"""Deterministic input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies, so
the same seed gives byte-identical inputs. The program under test only
sees the files these functions write.
"""

from __future__ import annotations

import math
import wave

import numpy as np

from attnseg import cli

# `synth` flags of each corpus, as a user would pass them.
TOY_SYNTH = {"size": 500}
PAPER_SYNTH = {"size": 1000, "lexicon_size": 1000, "sent_len_min": 3, "sent_len_max": 12,
               "word_len_min": 2, "word_len_max": 7, "alphabet_size": 26, "sub_rate": 0.1}
SPEECH_SYNTH = {"size": 40}

# A seed is accepted only if its corpus has this share of the expected
# symbol count or closer, so that every seed asks for the same work.
SIZE_TOLERANCE = 0.01
MAX_CANDIDATES = 1000

RATE = 16000
SYMBOL_SAMPLES = 1280        # 80 ms per rendered symbol
SPEECH_UTTS, SPEECH_UTT_SYMBOLS = 8, 8   # 62 frames per utterance, 496 in all
FRAME_LEN, FRAME_STEP = 400, 160  # the MFCC front end's 25 ms window and 10 ms step


def synth_config(params: dict, seed: int) -> cli.SynthConfig:
    """The config `attnseg synth` builds from these flags; `size` is its --size."""
    fields = {k: v for k, v in params.items() if k != "size"}
    return cli.SynthConfig(corpus_size=params["size"], seed=seed, **fields)


def synth_args(params: dict, seed: int, out_dir: str) -> list[str]:
    """The `attnseg synth` command line for a corpus."""
    args = ["synth", "--out-dir", out_dir, "--seed", str(seed)]
    for key, value in params.items():
        args += ["--" + key.replace("_", "-"), str(value)]
    return args


def expected_symbols(params: dict) -> float:
    cfg = synth_config(params, 0)
    words = (cfg.sent_len_min + cfg.sent_len_max) / 2
    word_len = (cfg.word_len_min + cfg.word_len_max) / 2
    return cfg.corpus_size * words * word_len


def pick_synth_seed(params: dict, workload_seed: int) -> int:
    """First `synth` seed derived from the workload seed whose corpus size is on target.

    A random lexicon of 20 words moves the toy corpus size by about 9%
    between seeds; fixing the size keeps wall time a measure of speed.
    """
    target = expected_symbols(params)
    for k in range(MAX_CANDIDATES):
        seed = MAX_CANDIDATES * workload_seed + k
        corpus = cli.synth_corpus(synth_config(params, seed))
        total = sum(len(u.ul_symbols) for u in corpus)
        if abs(total - target) <= SIZE_TOLERANCE * target:
            return seed
    raise RuntimeError("no synth seed within %.0f%% of %d symbols"
                       % (100 * SIZE_TOLERANCE, target))


# ---------------------------------------------------------------------------
# Tone renderer for the speech workload

def symbol_tones(symbol: str) -> tuple[float, float]:
    """Fixed (low, high) tone pair in Hz for a single-letter symbol."""
    k = ord(symbol) - ord("a")
    return 300.0 + 90.0 * k, 1500.0 + 230.0 * ((5 * k) % 13)


def render_utterance(symbols: list[str], rng: np.random.Generator) -> np.ndarray:
    """16-bit PCM samples: each symbol is its tone pair for SYMBOL_SAMPLES samples."""
    t = np.arange(SYMBOL_SAMPLES) / RATE
    ramp = np.minimum(1.0, np.minimum(np.arange(SYMBOL_SAMPLES),
                                      np.arange(SYMBOL_SAMPLES)[::-1]) / 80.0)
    pieces = []
    for s in symbols:
        lo, hi = symbol_tones(s)
        a_lo, a_hi = 0.3 * rng.uniform(0.9, 1.1, size=2)
        pieces.append(ramp * (a_lo * np.sin(2 * math.pi * lo * t)
                              + a_hi * np.sin(2 * math.pi * hi * t)))
    x = np.concatenate(pieces) + 0.01 * rng.standard_normal(len(symbols) * SYMBOL_SAMPLES)
    return np.round(np.clip(x, -1.0, 1.0) * 32767).astype("<i2")


def frame_truth(symbols: list[str]) -> list[str]:
    """Label of each MFCC frame: the symbol under the frame's centre sample."""
    n_frames = 1 + (len(symbols) * SYMBOL_SAMPLES - FRAME_LEN) // FRAME_STEP
    return [symbols[(i * FRAME_STEP + FRAME_LEN // 2) // SYMBOL_SAMPLES]
            for i in range(n_frames)]


def speech_utterances(ul_path: str) -> list[tuple[str, list[str]]]:
    """SPEECH_UTTS utterances of SPEECH_UTT_SYMBOLS symbols each, cut from a UL file.

    Equal lengths give every seed the same frame count and the same
    longest utterance, which sets the phone loop's time and memory.
    """
    with open(ul_path, encoding="utf-8") as f:
        stream = f.read().split()
    n = SPEECH_UTT_SYMBOLS
    if len(stream) < SPEECH_UTTS * n:
        raise RuntimeError("%s has fewer than %d symbols" % (ul_path, SPEECH_UTTS * n))
    return [("utt%05d" % (i + 1), stream[i * n:(i + 1) * n]) for i in range(SPEECH_UTTS)]


def write_speech(ul_path: str, out_dir: str, seed: int) -> tuple[str, dict[str, list[str]]]:
    """Render WAVs and a wav list; returns the list path and frame-level truth."""
    rng = np.random.default_rng(seed)
    entries, truth = [], {}
    for utt_id, syms in speech_utterances(ul_path):
        path = "%s/%s.wav" % (out_dir, utt_id)
        with wave.open(path, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(RATE)
            w.writeframes(render_utterance(syms, rng).tobytes())
        entries.append("%s %s\n" % (utt_id, path))
        truth[utt_id] = frame_truth(syms)
    list_path = out_dir + "/wavs.txt"
    with open(list_path, "w", encoding="utf-8") as f:
        f.writelines(entries)
    return list_path, truth
