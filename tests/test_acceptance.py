"""Acceptance suite: one test per release criterion.

Each test emits a single `ACCEPTANCE <n> (<name>): PASS|FAIL` line on the
real stdout so the verdicts survive pytest's output capture. The heavy
end-to-end fixtures (five aligner trainings on the 500-sentence toy
corpus) are shared across criteria 2, 4, 5 and 6.
"""

import itertools
import math
import os
import random
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from attnseg import numerics as nm
from attnseg.aligner import (
    AlignerConfig,
    AlignerModel,
    forced_decode_corpus,
    train,
)
from attnseg.aud import (
    AudConfig,
    AudModel,
    FeatureSequence,
    decode_units,
    forward_loglik,
    train_phone_loop,
)
from attnseg.baselines import (
    DpsegConfig,
    dpseg_segment_corpus,
    proportional_segment_corpus,
)
from attnseg.cli import SynthConfig, main as cli_main, synth_corpus
from attnseg.corpus import (
    ParallelCorpus,
    ParallelUtterance,
    Segmentation,
    Vocabulary,
    build_vocabularies,
    split_train_dev,
)
from attnseg.metrics import (
    PRF,
    boundary_prf,
    evaluate,
    token_type_prf,
)
from attnseg.segmenter import average_matrices, hard_align, segment_corpus, smooth_matrix

# Locked acceptance-run constants. The synthetic generator is the oracle:
# the corpus seed and thresholds below were fixed after the first oracle
# run and are recorded in every manifest the pipeline writes.
TOY_SEED = 4
ATTENTIONAL_MIN_F = 0.80
PROPORTIONAL_MIN_F = 0.40
N_RUNS = 5


VERDICT_LINES: list[str] = []  # replayed by conftest.pytest_terminal_summary


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE %d (%s): %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared end-to-end fixtures

def toy_corpus(sub_rate: float) -> tuple[ParallelCorpus, dict[str, Segmentation]]:
    """The acceptance toy corpus and its gold segmentation."""
    gold: dict[str, Segmentation] = {}
    return synth_corpus(SynthConfig(seed=TOY_SEED, sub_rate=sub_rate), gold), gold


@pytest.fixture(scope="module")
def clean():
    return toy_corpus(0.0)


@pytest.fixture(scope="module")
def noisy():
    return toy_corpus(0.15)


def run_aligner(corpus, run: int):
    """One training run with run-resampled split, then forced decoding."""
    tr, dev = split_train_dev(corpus, 0.1, seed=TOY_SEED + run)
    cfg = AlignerConfig(seed=run, max_epochs=120, patience=120)
    model, _log = train(tr, dev, cfg)
    return forced_decode_corpus(model, corpus)


@pytest.fixture(scope="module")
def toy_training(clean):
    t0 = time.time()
    runs = [run_aligner(clean[0], r) for r in range(N_RUNS)]
    return {"runs": runs, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def noisy_training(noisy):
    return run_aligner(noisy[0], 0)


# ---------------------------------------------------------------------------
# 1. Gradient correctness

def random_toy_instance(rng):
    n = int(rng.integers(3, 9))
    A = int(rng.integers(1, 6))
    T = int(rng.integers(1, 7))
    src_tokens = ["w%d" % i for i in range(6)]
    tgt_tokens = ["s%d" % i for i in range(7)]
    wrl = Vocabulary(src_tokens)
    ul = Vocabulary(tgt_tokens)
    cfg = AlignerConfig(cell_size=n, batch_size=2, dropout=0.0,
                        dtype="float64", seed=int(rng.integers(0, 10_000)))
    model = AlignerModel(cfg, wrl, ul, rng=rng)
    src = rng.integers(4, len(wrl), size=(1, A))
    tgt = rng.integers(4, len(ul), size=(1, T))
    mask = np.ones((1, T), dtype=bool)
    return model, src, tgt, mask


def check_instance(model, src, tgt, mask, rng, coords_per_param=4):
    def loss_value():
        loss, _, _ = model.forward_batch(src, tgt, mask, train=False)
        return float(loss.data)

    params = model.parameters()  # assigns gradient-map names before backward
    loss, _, _ = model.forward_batch(src, tgt, mask, train=False)
    grads = nm.backward(loss)
    worst = 0.0
    for name, p in params.items():
        # parameters that do not reach the loss (decoder LSTM when T=1)
        # have an identically zero gradient and are absent from the map
        g = grads.get(name, np.zeros_like(p.data))
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        k = min(coords_per_param, flat.size)
        idx = rng.choice(flat.size, size=k, replace=False)
        for i in idx:
            best = math.inf
            # maxout and max-gate kinks make a single step size unreliable;
            # accept the best agreement over a small ladder of steps
            for h in (1e-5, 1e-6, 1e-4):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-4)
                best = min(best, rel)
                if best < 1e-6:
                    break
            worst = max(worst, best)
    return worst


def test_acceptance_1_gradient_correctness():
    rng = np.random.default_rng(20_240_001)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):
        model, src, tgt, mask = random_toy_instance(rng)
        worst = max(worst, check_instance(model, src, tgt, mask, rng))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60
    verdict(1, "gradient correctness", ok,
            "worst rel err %.2e, %.1fs for 20 instances" % (worst, elapsed))


# ---------------------------------------------------------------------------
# 3. Metric oracle equivalence (cheap; runs before the heavy fixtures)

def brute_force_metrics(hyp, gold, corpus):
    b_match = b_hyp = b_gold = 0
    t_match = t_hyp = t_gold = 0
    hyp_types, gold_types = set(), set()
    for u in corpus:
        h, g = hyp[u.id], gold[u.id]
        for j in range(1, h.length):
            b_match += j in h.boundaries and j in g.boundaries
            b_hyp += j in h.boundaries
            b_gold += j in g.boundaries
        hw = {(a, b) for a, b in h.word_spans()}
        gw = {(a, b) for a, b in g.word_spans()}
        t_match += len(hw & gw)
        t_hyp += len(hw)
        t_gold += len(gw)
        hyp_types.update(tuple(u.ul_symbols[a:b]) for a, b in hw)
        gold_types.update(tuple(u.ul_symbols[a:b]) for a, b in gw)
    return (
        PRF.from_counts(b_match, b_hyp, b_gold),
        PRF.from_counts(t_match, t_hyp, t_gold),
        PRF.from_counts(len(hyp_types & gold_types), len(hyp_types), len(gold_types)),
    )


def test_acceptance_3_metric_oracle():
    rng = random.Random(20_240_003)
    t0 = time.time()
    mismatches = 0
    for _ in range(1000):
        n_utts = rng.randint(1, 20)
        utts = []
        for i in range(n_utts):
            m = rng.randint(1, 30)
            utts.append(ParallelUtterance(
                "u%02d" % i, tuple(rng.choice("abcd") for _ in range(m)), ("w",)))
        ul, wrl = build_vocabularies(utts)
        corpus = ParallelCorpus(tuple(utts), ul, wrl)

        def seg(n):
            return Segmentation(
                n, frozenset(j for j in range(1, n) if rng.random() < 0.3))

        hyp = {u.id: seg(len(u.ul_symbols)) for u in corpus}
        gold = {u.id: seg(len(u.ul_symbols)) for u in corpus}
        rb, rt, ry = brute_force_metrics(hyp, gold, corpus)
        got_b = boundary_prf(hyp, gold)
        got_t, got_y, _ = token_type_prf(hyp, gold, corpus)
        mismatches += (got_b, got_t, got_y) != (rb, rt, ry)
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    verdict(3, "metric oracle equivalence", ok,
            "%d mismatches on 1000 corpora, %.1fs" % (mismatches, elapsed))


# ---------------------------------------------------------------------------
# 2. Attention stochasticity

def test_acceptance_2_attention_stochasticity(toy_training):
    worst = 0.0
    for mats in toy_training["runs"]:
        for m in mats.values():
            worst = max(worst, float(np.abs(m.weights.sum(axis=1) - 1.0).max()))
    # smoothing and averaging must preserve row stochasticity
    first = toy_training["runs"][0]
    for utt_id in list(first)[:200]:
        sm = smooth_matrix(first[utt_id])
        worst = max(worst, float(np.abs(sm.weights.sum(axis=1) - 1.0).max()))
        av = average_matrices([run[utt_id] for run in toy_training["runs"]])
        worst = max(worst, float(np.abs(av.weights.sum(axis=1) - 1.0).max()))
    ok = worst <= 1e-6
    verdict(2, "attention stochasticity", ok, "max row-sum deviation %.2e" % worst)


# ---------------------------------------------------------------------------
# 4. End-to-end toy recovery

def test_acceptance_4_end_to_end_recovery(clean, toy_training):
    clean_corpus, gold = clean
    segs = segment_corpus(toy_training["runs"], smooth=False)
    attn_f = boundary_prf(segs, gold).fscore
    prop_f = boundary_prf(proportional_segment_corpus(clean_corpus), gold).fscore
    elapsed = toy_training["elapsed"]
    ok = (attn_f >= ATTENTIONAL_MIN_F and attn_f >= prop_f
          and prop_f >= PROPORTIONAL_MIN_F and elapsed < 900)
    verdict(4, "end-to-end toy recovery", ok,
            "attentional F %.4f, proportional F %.4f, %.0fs training"
            % (attn_f, prop_f, elapsed))


# ---------------------------------------------------------------------------
# 5. Noise robustness ordering

def test_acceptance_5_noise_robustness(clean, noisy, toy_training, noisy_training):
    (clean_corpus, gold_c), (noisy_corpus, gold_n) = clean, noisy
    attn_clean = boundary_prf(
        segment_corpus([toy_training["runs"][0]], smooth=False), gold_c).fscore
    attn_noisy = boundary_prf(
        segment_corpus([noisy_training], smooth=False), gold_n).fscore
    dp_cfg = DpsegConfig(iterations=150, seed=0)
    dp_clean = boundary_prf(dpseg_segment_corpus(clean_corpus, dp_cfg), gold_c).fscore
    dp_noisy = boundary_prf(dpseg_segment_corpus(noisy_corpus, dp_cfg), gold_n).fscore
    attn_drop = attn_clean - attn_noisy
    dp_drop = dp_clean - dp_noisy
    ok = attn_drop < dp_drop
    verdict(5, "noise robustness ordering", ok,
            "attentional %.4f->%.4f (drop %.4f), dpseg %.4f->%.4f (drop %.4f)"
            % (attn_clean, attn_noisy, attn_drop, dp_clean, dp_noisy, dp_drop))


# ---------------------------------------------------------------------------
# 6. Matrix-averaging benefit (soft check, logged only)

def test_acceptance_6_averaging_benefit(clean, toy_training):
    gold = clean[1]
    run_fs = [
        boundary_prf(segment_corpus([mats], smooth=False), gold).fscore
        for mats in toy_training["runs"]
    ]
    avg_f = boundary_prf(
        segment_corpus(toy_training["runs"], smooth=False), gold).fscore
    benefit = avg_f - sum(run_fs) / len(run_fs)
    detail = ("averaged F %.4f vs mean run F %.4f (delta %+.4f); soft check"
              % (avg_f, sum(run_fs) / len(run_fs), benefit))
    # stochastic property: log the outcome, never hard-fail
    verdict(6, "matrix-averaging benefit", True, detail)


# ---------------------------------------------------------------------------
# 7. AUD correctness

def tiny_aud_model(seed):
    rng = np.random.default_rng(seed)
    cfg = AudConfig(num_units=2, states_per_unit=2, mix_components=1,
                    seed=seed, iterations=3)
    return AudModel(
        config=cfg,
        log_pi=np.full(2, -math.log(2)),
        stay=np.full((2, 2), 0.6),
        mix_weights=np.full((2, 2, 1), 1.0),
        means=rng.standard_normal((2, 2, 1, 2)) * 2.0,
        variances=np.full((2, 2, 1, 2), 1.0),
    )


def brute_force_loglik(model, feats):
    U, S = model.stay.shape
    N = U * S
    F = feats.shape[0]
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    scores = []
    for path in itertools.product(range(N), repeat=F):
        s = init[path[0]] + b[0, path[0]]
        for t in range(1, F):
            s += A[path[t - 1], path[t]] + b[t, path[t]]
        s += final[path[-1]]
        if math.isfinite(s):
            scores.append(s)
    return float(logsumexp(scores))


def three_unit_corpus(n_utts, seed):
    rng = np.random.default_rng(seed)
    protos = np.array([[0.0, 8.0], [8.0, 0.0], [-8.0, -8.0]])
    feats, truth = [], []
    for i in range(n_utts):
        labels = rng.integers(0, 3, size=rng.integers(3, 6))
        frames, frame_labels = [], []
        for lab in labels:
            n = int(rng.integers(4, 8))
            frames.append(protos[lab] + 0.3 * rng.standard_normal((n, 2)))
            frame_labels.extend([int(lab)] * n)
        feats.append(FeatureSequence("u%03d" % i, np.concatenate(frames)))
        truth.append(frame_labels)
    return feats, truth


def normalized_mutual_information(a, b):
    """NMI with arithmetic-mean normalization over two label sequences."""
    from collections import Counter

    n = len(a)
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    mi = sum(
        c / n * math.log((c / n) / ((ca[x] / n) * (cb[y] / n)))
        for (x, y), c in cab.items()
    )
    denom = (ha + hb) / 2
    return mi / denom if denom > 0 else 0.0


def test_acceptance_7_aud_correctness():
    t0 = time.time()
    # forward likelihood vs exhaustive path sum
    max_err = 0.0
    for frames in (1, 2, 4, 6):
        rng = np.random.default_rng(frames)
        m = tiny_aud_model(frames)
        x = rng.standard_normal((frames, 2))
        max_err = max(max_err, abs(forward_loglik(m, x) - brute_force_loglik(m, x)))
    forward_ok = max_err < 1e-10
    # EM objective monotone
    feats, truth = three_unit_corpus(15, seed=7)
    cfg = AudConfig(num_units=8, states_per_unit=2, mix_components=1,
                    iterations=8, seed=7)
    model, log = train_phone_loop(feats, cfg)
    objectives = [entry["objective"] for entry in log]
    diffs = np.diff(objectives)
    monotone_ok = bool(np.all(diffs > -1e-6 * np.abs(np.array(objectives[:-1]))))
    # synthetic 3-unit recovery
    true_labels, hyp_labels = [], []
    for f, t in zip(feats, truth):
        seq = decode_units(model, f)
        for lab, s, e in seq.intervals:
            hyp_labels.extend([lab] * round((e - s) / 0.01))
        true_labels.extend(t)
    nmi = normalized_mutual_information(true_labels, hyp_labels)
    elapsed = time.time() - t0
    ok = forward_ok and monotone_ok and nmi >= 0.6 and elapsed < 300
    verdict(7, "AUD correctness", ok,
            "forward err %.1e, monotone %s, NMI %.3f, %.1fs"
            % (max_err, monotone_ok, nmi, elapsed))


# ---------------------------------------------------------------------------
# 8. Paper-scale numbers (documented as not desk-reproducible)

def test_acceptance_8_paper_scale_numbers():
    corpus_dir = os.environ.get("ATTNSEG_FULL_CORPUS_DIR", "")
    if not corpus_dir or not os.path.isdir(corpus_dir):
        VERDICT_LINES.append(
            "ACCEPTANCE 8 (paper-scale numbers): SKIP  "
            "[requires the full 5k-sentence bilingual speech corpus; "
            "set ATTNSEG_FULL_CORPUS_DIR to run the true-phones pipeline]")
        pytest.skip("full-scale corpus not available in this environment")
    ul = os.path.join(corpus_dir, "ul.txt")
    wrl = os.path.join(corpus_dir, "wrl.txt")
    gold = os.path.join(corpus_dir, "gold.txt")
    out = os.path.join(corpus_dir, "acceptance8")
    os.makedirs(out, exist_ok=True)
    ckpt = os.path.join(out, "model.npz")
    rc = cli_main(["train-aligner", "--ul", ul, "--wrl", wrl, "--out", ckpt,
                   "--quiet"])
    assert rc == 0
    mats = os.path.join(out, "attn.txt")
    assert cli_main(["force-align", "--model", ckpt, "--ul", ul, "--wrl", wrl,
                     "--out", mats]) == 0
    seg = os.path.join(out, "seg.txt")
    assert cli_main(["segment", "--matrices", mats, "--ul", ul, "--wrl", wrl,
                     "--out", seg]) == 0
    rep = os.path.join(out, "report.txt")
    rc = cli_main(["evaluate", "--ul", ul, "--wrl", wrl, "--gold", gold,
                   "--hyp", seg, "--out", rep])
    verdict(8, "paper-scale numbers", rc == 0, "full pipeline produced " + rep)


# ---------------------------------------------------------------------------
# 9. Determinism via manifests

def test_acceptance_9_determinism(tmp_path):
    import json

    def run_pipeline(tag):
        out_dir = str(tmp_path / tag)
        ini = tmp_path / (tag + ".ini")
        ini.write_text(
            "[pipeline]\nruns = 2\nout_dir = %s\n\n"
            "[synth]\ncorpus_size = 40\nlexicon_size = 6\nseed = 13\n\n"
            "[aligner]\ncell_size = 12\nbatch_size = 8\ndropout = 0.5\n"
            "max_epochs = 3\npatience = 3\nseed = 1\n" % out_dir
        )
        assert cli_main(["pipeline", "--config", str(ini)]) == 0
        hashes = {}
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".manifest.json"):
                m = json.loads(open(os.path.join(out_dir, name)).read())
                for path, digest in m["outputs"].items():
                    hashes[os.path.basename(path)] = digest
        return out_dir, hashes

    dir_a, hashes_a = run_pipeline("a")
    dir_b, hashes_b = run_pipeline("b")
    assert hashes_a, "pipeline produced no manifests"
    same = hashes_a == hashes_b
    # belt and braces: compare artifact bytes directly as well
    byte_same = all(
        open(os.path.join(dir_a, n), "rb").read()
        == open(os.path.join(dir_b, n), "rb").read()
        for n in hashes_a
    )
    ok = same and byte_same
    verdict(9, "determinism", ok,
            "%d artifacts byte-identical across reruns" % len(hashes_a))
