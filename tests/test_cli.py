import argparse
import dataclasses
import json
import math
import os
import wave

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from attnseg import aligner as al, aud as aud_mod, baselines as bl, cli, corpus as cp
from attnseg.aligner import AlignerConfig, AlignerModel, AttentionMatrix
from attnseg.cli import (
    SynthConfig,
    load_config_file,
    main,
    plot_attention,
    synth_corpus,
    write_manifest,
)
from attnseg.corpus import load_parallel_corpus
from attnseg.errors import ConfigError


def read_pgm(path: str) -> np.ndarray:
    """The pixels of the textual PGM heatmap that `attnseg plot` writes."""
    with open(path, encoding="utf-8") as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    assert tokens[0] == "P2", "%s: not a textual PGM" % path
    w, h = int(tokens[1]), int(tokens[2])
    return np.array([int(t) for t in tokens[4:]]).reshape(h, w)


def synth_with_gold(cfg):
    gold = {}
    return synth_corpus(cfg, gold), gold


class TestSynth:
    def test_deterministic(self):
        a = synth_with_gold(SynthConfig(corpus_size=20, seed=5))
        b = synth_with_gold(SynthConfig(corpus_size=20, seed=5))
        assert a[0].utterances == b[0].utterances and a[1] == b[1]
        # asking for the gold leaves the corpus as it is
        assert synth_corpus(SynthConfig(corpus_size=20, seed=5)).utterances == a[0].utterances

    def test_seed_changes_corpus(self):
        a = synth_corpus(SynthConfig(corpus_size=20, seed=5))
        b = synth_corpus(SynthConfig(corpus_size=20, seed=6))
        assert a.utterances != b.utterances

    def test_structure(self):
        c, gold = synth_with_gold(SynthConfig(corpus_size=30, lexicon_size=8,
                                              sent_len_min=2, sent_len_max=4, seed=0))
        assert len(c) == 30 and list(gold) == [u.id for u in c]
        for u in c:
            assert 2 <= len(u.wrl_words) <= 4
            assert gold[u.id].num_words == len(u.wrl_words)
            assert gold[u.id].length == len(u.ul_symbols)

    def test_noise_preserves_word_count(self):
        cfg = SynthConfig(corpus_size=30, sub_rate=0.2, del_rate=0.1,
                          ins_rate=0.1, seed=1)
        c, gold = synth_with_gold(cfg)
        for u in c:
            assert gold[u.id].num_words == len(u.wrl_words)

    def test_clean_corpus_has_consistent_lexicon(self):
        c, gold = synth_with_gold(SynthConfig(corpus_size=40, lexicon_size=6, seed=2))
        mapping = {}
        for u in c:
            words = gold[u.id].words(list(u.ul_symbols))
            for wrl, ul in zip(u.wrl_words, words):
                assert mapping.setdefault(wrl, ul) == ul

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(word_len_min=5, word_len_max=2)
        with pytest.raises(ConfigError):
            SynthConfig(sub_rate=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(alphabet_size=40)

    def test_lexicon_may_use_every_possible_word(self):
        # 2 symbols and words of length 2 allow exactly 4 distinct UL words
        c, gold = synth_with_gold(SynthConfig(corpus_size=30, lexicon_size=4, alphabet_size=2,
                                              word_len_min=2, word_len_max=2, seed=0))
        assert {tuple(w) for u in c for w in gold[u.id].words(list(u.ul_symbols))} \
            <= {(a, b) for a in "ab" for b in "ab"}
        with pytest.raises(ConfigError):
            SynthConfig(lexicon_size=5, alphabet_size=2, word_len_min=2, word_len_max=2)
        # the count stops once it reaches lexicon_size, however long words may be
        SynthConfig(alphabet_size=2, word_len_min=10 ** 9, word_len_max=10 ** 18)
        SynthConfig(lexicon_size=10 ** 9, alphabet_size=1, word_len_max=10 ** 9 + 1)
        with pytest.raises(ConfigError):
            SynthConfig(lexicon_size=10 ** 9, alphabet_size=1, word_len_max=10 ** 9)

    def test_write_and_reload(self, tmp_path):
        c, gold = synth_with_gold(SynthConfig(corpus_size=10, seed=3))
        assert main(["synth", "--out-dir", str(tmp_path), "--size", "10", "--seed", "3"]) == 0
        back = load_parallel_corpus(str(tmp_path / "ul.txt"), str(tmp_path / "wrl.txt"))
        assert len(back) == 10
        assert back.utterances[0].ul_symbols == c.utterances[0].ul_symbols
        assert cp.load_gold_segmentation(back, str(tmp_path / "gold.txt")) == gold


class TestPlot:
    def test_pgm_affine_readback(self, tmp_path):
        w = np.array([[1.0, 0.0], [0.25, 0.75]])
        m = AttentionMatrix("u", w)
        out = str(tmp_path / "h.pgm")
        plot_attention(m, None, out, out + ".txt")
        img = read_pgm(out)
        np.testing.assert_array_equal(img, 255 - np.round(255 * w))

    def test_diagonal_is_darkest(self, tmp_path):
        w = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        out = str(tmp_path / "h.pgm")
        plot_attention(AttentionMatrix("u", w), None, out, out + ".txt")
        img = read_pgm(out)
        for i in range(3):
            assert img[i, i] == img[i].min()

    def test_sidecar_labels(self, tmp_path):
        from attnseg.corpus import ParallelUtterance

        u = ParallelUtterance("u", ("a", "b"), ("mot",))
        out = str(tmp_path / "h.pgm")
        plot_attention(AttentionMatrix("u", np.array([[1.0], [1.0]])), u, out, out + ".txt")
        text = open(out + ".txt").read()
        assert "# rows: a b" in text
        assert "# cols: mot" in text

    @pytest.mark.parametrize("flag", ["--ul", "--wrl"])
    def test_one_corpus_side_alone_is_config_error(self, tmp_path, capsys, flag):
        (tmp_path / "ul.txt").write_text("a b\n")
        (tmp_path / "wrl.txt").write_text("mot\n")
        mats = str(tmp_path / "attn.txt")
        al.write_attention_matrices(mats, {"utt00001": AttentionMatrix(
            "utt00001", np.array([[1.0], [1.0]]))})
        assert main(["plot", "--matrices", mats, "--utt", "utt00001", "--out",
                     str(tmp_path / "h.pgm"), flag, str(tmp_path / (flag[2:] + ".txt"))]
                    ) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --ul and --wrl go together") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["attn.txt", "ul.txt", "wrl.txt"]  # nothing written


class TestManifest:
    def test_contents(self, tmp_path):
        art = tmp_path / "out.txt"
        art.write_text("payload")
        inp = tmp_path / "in.txt"
        inp.write_text("input")
        write_manifest(str(art), "stage-x", [str(inp)], {"seed": 3}, [str(art)])
        m = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        assert m["stage"] == "stage-x"
        assert m["config"] == {"seed": 3}
        assert str(inp) in m["inputs"]
        assert len(m["outputs"][str(art)]) == 64

    def test_config_hash_stable_under_key_order(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("x")
        b.write_text("x")
        write_manifest(str(a), "s", [], {"p": 1, "q": 2}, [])
        write_manifest(str(b), "s", [], {"q": 2, "p": 1}, [])
        ha = json.loads((tmp_path / "a.manifest.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b.manifest.json").read_text())["config_hash"]
        assert ha == hb

    def test_records_blas_threads_outside_the_config_hash(self, tmp_path, monkeypatch):
        art = str(tmp_path / "a")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_manifest(art, "s", [], {"p": 1}, [])
        one = json.loads(open(art + ".manifest.json").read())
        assert one["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                  "MKL_NUM_THREADS": None,
                                  "cpus": len(os.sched_getaffinity(0))}
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        write_manifest(art, "s", [], {"p": 1}, [])
        two = json.loads(open(art + ".manifest.json").read())
        assert two["threads"]["OPENBLAS_NUM_THREADS"] == "4"
        assert two["threads"]["MKL_NUM_THREADS"] == "3"
        assert two["config_hash"] == one["config_hash"]

    def test_cpus_where_os_cannot_tell_which(self, tmp_path, monkeypatch, capsys):
        """macOS and Windows have no `os.sched_getaffinity`: count every CPU."""
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["synth", "--out-dir", str(tmp_path), "--size", "3"]) == cli.EXIT_OK
        manifest = json.loads((tmp_path / "ul.txt.manifest.json").read_text())
        assert manifest["threads"]["cpus"] == os.cpu_count()

    @pytest.mark.parametrize("platform, mib", [("linux", 2048.0), ("darwin", 2.0)])
    def test_log_peak_rss_in_mib(self, tmp_path, monkeypatch, capsys, platform, mib):
        """`ru_maxrss` counts KiB on Linux and bytes on macOS."""
        monkeypatch.setattr(cli.resource, "getrusage",
                            lambda who: argparse.Namespace(ru_maxrss=2 ** 21))
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert main(["synth", "--out-dir", str(tmp_path), "--size", "3"]) == cli.EXIT_OK
        assert json.loads((tmp_path / "ul.txt.log.json").read_text())["peak_rss_mb"] == mib


CONFIG_FIELDS = sorted({f.name for cls in (SynthConfig, AlignerConfig, bl.DpsegConfig)
                        for f in dataclasses.fields(cls)} | {"runs", "out_dir"})
JUNK = st.text(st.sampled_from("abz_09 .-%()[]=:;#é\t"), max_size=8)
INI_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-3", "2.5", "1e400", "nan", "yes", "off", "bigram",
                     "float64", "%(seed)s", ""]),
    st.integers(-5, 300).map(str), JUNK)
INI_SECTION = st.tuples(
    st.sampled_from(["pipeline", "synth", "aligner", "dpseg", "DEFAULT", "aligne"]),
    st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS) | JUNK, INI_VALUES).map(" = ".join),
             max_size=4),
).map(lambda sec: ["[%s]" % sec[0]] + sec[1])
# well-formed sections of field names and junk keys and values, or lines of junk
INI_LINES = st.lists(INI_SECTION, max_size=4).map(lambda secs: sum(secs, [])) | st.lists(
    JUNK | INI_SECTION.map("\n".join), max_size=6)


class TestConfigFile:
    def test_load_and_coerce(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[synth]\ncorpus_size = 42\nsub_rate = 0.1\nseed = 3\n")
        sections = load_config_file(str(p))
        cfg = cli._coerce(SynthConfig, sections["synth"])
        assert cfg.corpus_size == 42
        assert cfg.sub_rate == 0.1

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[synth]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            cli._coerce(SynthConfig, load_config_file(str(p))["synth"])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config_file("/nonexistent/config.ini")

    @pytest.mark.parametrize("text", ["[synth]\nseed = 1\nseed = 2\n", "seed = 1\n"])
    def test_unparsable_file(self, tmp_path, text):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError):
            load_config_file(str(p))

    def test_optional_int_is_coerced(self):
        # no field is Optional; a config that sets the embedding width fails loudly,
        # because the embeddings are always cell_size wide
        with pytest.raises(ConfigError, match="unknown config key 'embed_dim'"):
            cli._coerce(AlignerConfig, {"embed_dim": "16"})

    @pytest.mark.parametrize("text", [
        "[aligner]\ncell_size = abc", "[aligner]\ndropout = half",
        "[aligner]\nembed_dim = x", "runs = two"])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text("[pipeline]\nout_dir = %s\n%s\n" % (tmp_path / "out", text))
        assert main(["pipeline", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        # embed_dim is not a field, so its key is rejected before its value
        assert ("unknown config key" if "embed_dim" in text else "not a number") in err


    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("yes", True), ("True", True), ("on", True),
        ("0", False), ("no", False), ("false", False), ("OFF", False)])
    def test_bool_reads_as_configparser_does(self, raw, value):
        # no config field is a bool; a config that asks for the EOS row fails loudly in
        # every configparser spelling, because the EOS row is always dropped
        assert all(f.type != "bool" for cls in (SynthConfig, AlignerConfig, bl.DpsegConfig,
                                                aud_mod.AudConfig, cli.PipelineConfig)
                   for f in dataclasses.fields(cls))
        with pytest.raises(ConfigError, match="unknown config key 'include_eos_row'"):
            cli._coerce(AlignerConfig, {"include_eos_row": raw})

    @pytest.mark.parametrize("text", [
        "[aligner]\ninclude_eos_row = treu", "[aligner]\ninclude_eos_row = 2",
        "[dpseg]\nanneal_start_temp = 5", "[dpseg]\nanneal_frac = 0.5"])
    def test_bad_bool_or_dropped_key_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text("[pipeline]\nout_dir = %s\n%s\n" % (tmp_path / "out", text))
        assert main(["pipeline", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "unknown config key" in err
        assert not (tmp_path / "out").exists()  # rejected before any work

    @pytest.mark.parametrize("text", [
        "[aligner]\nmaxout_pool = 0", "[aligner]\nmaxout_pool = -1",
        "[aligner]\nembed_dim = 0", "[aligner]\nembed_dim = -3", "[aligner]\nseed = -1"])
    def test_out_of_range_aligner_value_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text("[pipeline]\nout_dir = %s\n%s\n" % (tmp_path / "out", text))
        assert main(["pipeline", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # rejected before any work

    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(INI_LINES)
    def test_any_ini_gives_configs_or_config_error(self, tmp_path, monkeypatch, lines):
        monkeypatch.chdir(tmp_path)  # so a relative out_dir would land here
        (tmp_path / "c.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            configs = cli.pipeline_configs("c.ini", {})
        except ConfigError:
            pass
        else:
            assert [type(c) for c in configs[:3]] == [
                cli.PipelineConfig, SynthConfig, AlignerConfig]
            assert configs[3] is None or isinstance(configs[3], bl.DpsegConfig)
        assert os.listdir(tmp_path) == ["c.ini"]  # the config step writes nothing


# Each subcommand's flags, as read from the parser before its config flags were
# derived from the config dataclasses; no flag may be renamed or lost.
PARSER_FLAGS = {
    "synth": ["--alphabet-size", "--del-rate", "--ins-rate", "--lexicon-size", "--out-dir",
              "--seed", "--sent-len-max", "--sent-len-min", "--size", "--sub-rate",
              "--word-len-max", "--word-len-min"],
    "mfcc": ["--out", "--wav-list"],
    "aud-train": ["--features", "--gamma", "--iterations", "--mix", "--out", "--quiet",
                  "--seed", "--states", "--units"],
    "aud-decode": ["--features", "--model", "--out"],
    "train-aligner": ["--batch-size", "--cell-size", "--dropout", "--learning-rate",
                      "--max-epochs", "--out", "--patience", "--quiet", "--seed",
                      "--split-seed", "--temperature", "--ul", "--wrl"],
    "force-align": ["--model", "--out", "--ul", "--wrl"],
    "segment": ["--matrices", "--no-smooth", "--out", "--ul", "--wrl"],
    "baseline-proportional": ["--out", "--ul", "--wrl"],
    "baseline-dpseg": ["--alpha0", "--alpha1", "--iterations", "--order", "--out",
                       "--p-boundary", "--seed", "--ul", "--wrl"],
    "evaluate": ["--gold", "--hyp", "--out", "--ul", "--wrl"],
    "plot": ["--matrices", "--out", "--ul", "--utt", "--wrl"],
    "pipeline": ["--config", "--out-dir"],
}

# subcommand: (config class, every config flag with a non-default value, the config
# those flags built before the flags were derived from the dataclasses)
FLAG_CONFIGS = {
    "synth": (SynthConfig,
              ["--lexicon-size", "9", "--word-len-min", "3", "--word-len-max", "4",
               "--sent-len-min", "1", "--sent-len-max", "3", "--size", "40",
               "--alphabet-size", "10", "--sub-rate", "0.05", "--del-rate", "0.02",
               "--ins-rate", "0.01", "--seed", "7"],
              SynthConfig(lexicon_size=9, word_len_min=3, word_len_max=4, sent_len_min=1,
                          sent_len_max=3, corpus_size=40, alphabet_size=10, sub_rate=0.05,
                          del_rate=0.02, ins_rate=0.01, seed=7)),
    "aud-train": (aud_mod.AudConfig,
                  ["--units", "5", "--states", "2", "--mix", "1", "--gamma", "0.7",
                   "--iterations", "2", "--seed", "3"],
                  aud_mod.AudConfig(num_units=5, states_per_unit=2, mix_components=1,
                                    gamma=0.7, iterations=2, seed=3)),
    "train-aligner": (AlignerConfig,
                      ["--cell-size", "8", "--temperature", "5", "--dropout", "0.1",
                       "--batch-size", "16", "--learning-rate", "2e-2", "--max-epochs", "1",
                       "--patience", "3", "--seed", "2"],
                      AlignerConfig(cell_size=8, temperature=5.0, dropout=0.1, batch_size=16,
                                    learning_rate=0.02, max_epochs=1, patience=3, seed=2)),
    "baseline-dpseg": (bl.DpsegConfig,
                       ["--order", "unigram", "--alpha0", "20", "--alpha1", "100",
                        "--p-boundary", "0.4", "--iterations", "3", "--seed", "5"],
                       bl.DpsegConfig(order="unigram", alpha0=20.0, alpha1=100.0,
                                      p_boundary=0.4, iterations=3, seed=5)),
}


class _Built(Exception):
    """Raised in place of a stage, carrying the config its command built."""


class TestConfigFlags:
    def test_flags_of_every_subcommand(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        assert flags == PARSER_FLAGS

    def test_stage_replaced_on_the_module_is_the_one_run(self, tmp_path, monkeypatch):
        """The benchmark tracer wraps `cli.cmd_*` in place; `main` must run the wrapper."""
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args, stage: seen.append(args))
        assert main(["synth", "--out-dir", str(tmp_path / "b")]) == cli.EXIT_OK
        assert [a.out_dir for a in seen] == [str(tmp_path / "b")]
        assert not os.path.exists(tmp_path / "b")

    @pytest.fixture()
    def built_config(self, tmp_path, monkeypatch):
        """Run a subcommand up to its stage; return the config handed to the stage."""
        d = str(tmp_path / "corpus")
        assert main(["synth", "--out-dir", d, "--size", "10", "--seed", "1"]) == cli.EXIT_OK

        def stage(*args, **kwargs):
            raise _Built(args)

        for owner, name in [(cli, "synth_corpus"), (aud_mod, "train_phone_loop"),
                            (al, "train"), (bl, "dpseg_segment_corpus")]:
            monkeypatch.setattr(owner, name, stage)
        monkeypatch.setattr(aud_mod, "load_features", lambda path: [])
        required = {"synth": ["--out-dir", str(tmp_path / "out")],
                    "aud-train": ["--features", "f.npz", "--out", str(tmp_path / "m")]}
        corpus = ["--ul", d + "/ul.txt", "--wrl", d + "/wrl.txt", "--out", str(tmp_path / "o")]

        def run(command, flags, cls):
            with pytest.raises(_Built) as e:
                main([command] + required.get(command, corpus) + flags)
            return next(a for a in e.value.args[0] if isinstance(a, cls))
        return run

    @pytest.mark.parametrize("command", sorted(FLAG_CONFIGS))
    def test_no_flags_give_the_defaults(self, built_config, command):
        cls, _, _ = FLAG_CONFIGS[command]
        assert built_config(command, [], cls) == cls()

    @pytest.mark.parametrize("command", sorted(FLAG_CONFIGS))
    def test_every_flag_gives_the_same_config(self, built_config, command):
        cls, flags, expected = FLAG_CONFIGS[command]
        cfg = built_config(command, flags, cls)
        # the manifest records asdict(cfg): 5 and 5.0 must not trade places
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(expected))


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["baseline-proportional", "--ul", str(tmp_path / "no.txt"),
                   "--wrl", str(tmp_path / "no2.txt"),
                   "--out", str(tmp_path / "o.txt")])
        assert rc == cli.EXIT_DATA

    def test_bad_flag_value(self, tmp_path):
        (tmp_path / "ul.txt").write_text("a b\n")
        (tmp_path / "wrl.txt").write_text("x\n")
        rc = main(["baseline-dpseg", "--ul", str(tmp_path / "ul.txt"),
                   "--wrl", str(tmp_path / "wrl.txt"),
                   "--out", str(tmp_path / "o.txt"), "--p-boundary", "2.0"])
        assert rc == cli.EXIT_CONFIG

    def test_more_samples_to_average_than_sweeps(self, tmp_path, capsys):
        (tmp_path / "ul.txt").write_text("a b\n")
        (tmp_path / "wrl.txt").write_text("x\n")
        rc = main(["baseline-dpseg", "--ul", str(tmp_path / "ul.txt"),
                   "--wrl", str(tmp_path / "wrl.txt"), "--out", str(tmp_path / "o.txt"),
                   "--iterations", "2", "--sample-average", "10"])
        assert rc == cli.EXIT_CONFIG  # dpseg returns its last sample: there is no flag
        assert "unrecognized arguments: --sample-average 10" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["ul.txt", "wrl.txt"]

    def test_bad_aligner_setting_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "p.ini"
        ini.write_text("[pipeline]\nout_dir = %s\n[synth]\ncorpus_size = 5\n"
                       "[aligner]\ndropout = 1.0\n" % (tmp_path / "out"))
        assert main(["pipeline", "--config", str(ini)]) == cli.EXIT_CONFIG
        (tmp_path / "ul.txt").write_text("a b\n")
        (tmp_path / "wrl.txt").write_text("x\n")
        assert main(["train-aligner", "--ul", str(tmp_path / "ul.txt"),
                     "--wrl", str(tmp_path / "wrl.txt"), "--out", str(tmp_path / "m.npz"),
                     "--temperature", "0"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: dropout must be in [0, 1)",
                       "config error: temperature must be positive"]

    @pytest.mark.parametrize("flag", ["--max-epochs", "--patience"])
    def test_aligner_epochs_below_one_is_config_error(self, tmp_path, capsys, flag):
        (tmp_path / "ul.txt").write_text("a b\n")
        (tmp_path / "wrl.txt").write_text("x\n")
        assert main(["train-aligner", "--ul", str(tmp_path / "ul.txt"),
                     "--wrl", str(tmp_path / "wrl.txt"), "--out", str(tmp_path / "m.npz"),
                     flag, "0"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: max epochs and patience must be at least 1\n")
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("command", ["train-aligner", "aud-train"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, command):
        (tmp_path / "ul.txt").write_text("a b\nb a\n")
        (tmp_path / "wrl.txt").write_text("x\ny\n")
        inputs = (["--ul", str(tmp_path / "ul.txt"), "--wrl", str(tmp_path / "wrl.txt")]
                  if command == "train-aligner" else ["--features", str(tmp_path / "f.npz")])
        assert main([command, *inputs, "--out", str(tmp_path / "m.npz"),
                     "--seed", "-1"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert sorted(os.listdir(tmp_path)) == ["ul.txt", "wrl.txt"]

    def test_empty_training_corpus_is_data_error(self, tmp_path, capsys):
        (tmp_path / "ul.txt").write_text("")
        (tmp_path / "wrl.txt").write_text("")
        for command, message in [("train-aligner", "empty training corpus"),
                                 ("baseline-dpseg", "empty corpus")]:
            assert main([command, "--ul", str(tmp_path / "ul.txt"),
                         "--wrl", str(tmp_path / "wrl.txt"),
                         "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
            assert capsys.readouterr().err == "data error: %s\n" % message
        assert sorted(os.listdir(tmp_path)) == ["ul.txt", "wrl.txt"]

    def test_lexicon_larger_than_word_space_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["synth", "--out-dir", str(out), "--lexicon-size", "5",
                     "--alphabet-size", "2", "--word-len-min", "2",
                     "--word-len-max", "2"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        rc = main(["frobnicate"])
        assert rc == cli.EXIT_CONFIG

    def test_synth_ok(self, tmp_path, capsys):
        rc = main(["synth", "--out-dir", str(tmp_path / "c"), "--size", "5"])
        assert rc == cli.EXIT_OK
        assert os.path.exists(tmp_path / "c" / "ul.txt")
        assert os.path.exists(tmp_path / "c" / "ul.txt.manifest.json")


BAD_MATRIX_FILES = {
    "truncated": "utt00001 2 2\n0.5 0.5\n",
    "bad_header": "utt00001 two 2\n0.5 0.5\n0.5 0.5\n",
    "non_numeric": "utt00001 2 2\n0.5 0.5\n0.5 x\n",
    "wrong_width": "utt00001 2 2\n0.5 0.5\n0.2 0.3 0.5\n",
    "row_sum": "utt00001 2 2\n0.5 0.5\n0.9 0.9\n",
    "non_finite": "utt00001 2 2\n0.5 0.5\nnan 1.0\n",
    "duplicate_id": "utt00001 1 2\n0.5 0.5\nutt00001 1 2\n1.0 0.0\n",
}


# sidecar vocabularies that are not lists of strings: (key, value)
SIDECAR_TOKENS = {
    "wrl_tokens_number": ("wrl_tokens", 5),
    "wrl_tokens_string": ("wrl_tokens", "abc"),
    "ul_tokens_numbers": ("ul_tokens", [1, 2]),
    "ul_tokens_object": ("ul_tokens", {"a": 1}),
}


# sidecar config values of the wrong JSON type or out of range: (key, value), or
# (None, whole config)
SIDECAR_VALUES = {
    "cell_size_string": ("cell_size", "8"),
    "seed_bool": ("seed", True),
    "temperature_string": ("temperature", "10"),
    "dropout_null": ("dropout", None),
    "embed_dim_float": ("embed_dim", 8.5),
    "eos_row_string": ("include_eos_row", "no"),
    "config_not_object": (None, [4]),
    "maxout_pool_zero": ("maxout_pool", 0),
    "embed_dim_negative": ("embed_dim", -3),
    "seed_negative": ("seed", -1),
}


class TestBadInputs:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        d = str(tmp_path / "corpus")
        assert main(["synth", "--out-dir", d, "--size", "3", "--seed", "1"]) == cli.EXIT_OK
        return d

    @pytest.mark.parametrize("command", ["segment", "plot"])
    @pytest.mark.parametrize("case", sorted(BAD_MATRIX_FILES))
    def test_bad_attention_file_is_data_error(self, corpus_dir, tmp_path, capsys,
                                              command, case):
        mats = tmp_path / "attn.txt"
        mats.write_text(BAD_MATRIX_FILES[case])
        args = [command, "--matrices", str(mats), "--ul", corpus_dir + "/ul.txt",
                "--wrl", corpus_dir + "/wrl.txt", "--out", str(tmp_path / "out")]
        if command == "plot":
            args += ["--utt", "utt00001"]
        assert main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ids, odd", [(["utt00001", "utt00003"], "utt00002"),
                                          (["utt00001", "utt00002", "utt00003", "utt00009"],
                                           "utt00009")])
    def test_matrices_that_do_not_match_the_corpus_are_data_error(self, corpus_dir, tmp_path,
                                                                   capsys, ids, odd):
        corpus = load_parallel_corpus(corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt")
        lengths = {u.id: (len(u.ul_symbols), len(u.wrl_words)) for u in corpus}
        matrices = {}
        for i in ids:
            rows, cols = lengths.get(i, (2, 2))
            matrices[i] = AttentionMatrix(i, np.full((rows, cols), 1.0 / cols))
        mats = str(tmp_path / "attn.txt")
        al.write_attention_matrices(mats, matrices)
        out = tmp_path / "seg.txt"
        assert main(["segment", "--matrices", mats, "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: utterance %r is in " % odd) and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["attn.txt", "corpus"]  # nothing written

    def test_plot_of_an_utterance_the_corpus_lacks_is_data_error(self, corpus_dir, tmp_path,
                                                                  capsys):
        """An --utt in the matrices file but not in --ul/--wrl: the message names the
        matrices file, the utterance and both corpus files."""
        ul, wrl = corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt"
        mats = str(tmp_path / "attn.txt")
        al.write_attention_matrices(mats, {"utt00009": AttentionMatrix(
            "utt00009", np.full((2, 2), 0.5))})
        assert main(["plot", "--matrices", mats, "--utt", "utt00009", "--ul", ul, "--wrl", wrl,
                     "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: utterance 'utt00009' is in %s but not in %s and %s\n" % (mats, ul, wrl))
        assert sorted(os.listdir(tmp_path)) == ["attn.txt", "corpus"]  # nothing written

    @pytest.mark.parametrize("command, cut_run, side", [
        ("segment", 0, "row"), ("segment", 1, "row"), ("segment", 0, "column"),
        ("plot", 1, "row"), ("plot", 1, "column")],
        ids=["0", "1", "segment-column", "plot-row", "plot-column"])
    def test_matrix_with_a_row_too_few_is_data_error(self, corpus_dir, tmp_path, capsys,
                                                     command, cut_run, side):
        """The row count, and the column count, is checked against the corpus for every
        run, before an output file is opened: a row too few or a column too many."""
        ul, wrl = corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt"
        corpus = load_parallel_corpus(ul, wrl)
        runs = [str(tmp_path / ("attn%d.txt" % k)) for k in range(2)]
        for k, path in enumerate(runs):
            matrices = {}
            for i, u in enumerate(corpus):
                rows, cols = len(u.ul_symbols), len(u.wrl_words)
                if k == cut_run and i == 0:
                    rows, cols = (rows - 1, cols) if side == "row" else (rows, cols + 1)
                matrices[u.id] = AttentionMatrix(u.id, np.full((rows, cols), 1.0 / cols))
            al.write_attention_matrices(path, matrices)
        first = corpus.utterances[0]
        args = (["segment", "--matrices", *runs] if command == "segment"
                else ["plot", "--matrices", runs[cut_run], "--utt", first.id])
        assert main(args + ["--ul", ul, "--wrl", wrl,
                            "--out", str(tmp_path / "out")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        want = ((len(first.ul_symbols) - 1, len(first.ul_symbols), "UL symbols", ul)
                if side == "row" else
                (len(first.wrl_words) + 1, len(first.wrl_words), "WRL words", wrl))
        assert err == "data error: %s: %s has a %s count of %d, but %d %s in %s\n" % (
            runs[cut_run], first.id, side, *want)
        assert sorted(os.listdir(tmp_path)) == ["attn0.txt", "attn1.txt", "corpus"]

    def test_unknown_symbol_names_file_line_and_utterance(self, corpus_dir, tmp_path, capsys):
        ul, wrl = corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt"
        corpus = load_parallel_corpus(ul, wrl)
        ckpt = str(tmp_path / "model.npz")
        cli.save_aligner_bundle(ckpt, ckpt + ".json", AlignerModel(
            AlignerConfig(cell_size=4), corpus.wrl_vocab, corpus.ul_vocab))
        lines = open(ul).read().splitlines()
        lines[1] = "z z"  # synth's 12-symbol alphabet stops at l
        bad = str(tmp_path / "ul.txt")
        open(bad, "w").write("\n".join(lines) + "\n")
        out = tmp_path / "attn.txt"
        assert main(["force-align", "--model", ckpt, "--ul", bad, "--wrl", wrl,
                     "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err == ("data error: %s: line 2, utterance utt00002: symbol 'z' is not in "
                       "the model's vocabulary\n" % bad)
        assert not out.exists()

    @pytest.mark.parametrize("edit", [None, "unknown_key", "no_vocabulary", "bad_dtype",
                                      "cell_mismatch", "npz_nine_bytes", "npz_truncated",
                                      "npz_no_version", "npz_wrong_version",
                                      "npz_missing_param", "old_layout", *SIDECAR_VALUES,
                                      *SIDECAR_TOKENS])
    def test_bad_aligner_sidecar_is_data_error(self, corpus_dir, tmp_path, capsys, edit):
        corpus = load_parallel_corpus(corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt")
        ckpt = str(tmp_path / "model.npz")
        cli.save_aligner_bundle(ckpt, ckpt + ".json", AlignerModel(
            AlignerConfig(cell_size=4), corpus.wrl_vocab, corpus.ul_vocab))
        sidecar = json.loads(open(ckpt + ".json").read())
        with np.load(ckpt) as z:
            arrays = {k: z[k] for k in z.files}
        if edit == "unknown_key":
            sidecar["config"]["layers"] = 1  # a knob older checkpoints still carry
        elif edit == "no_vocabulary":
            del sidecar["ul_tokens"]
        elif edit == "bad_dtype":
            sidecar["config"]["dtype"] = "float16"
        elif edit == "cell_mismatch":
            sidecar["config"]["cell_size"] = 6
        elif edit == "npz_nine_bytes":
            open(ckpt, "wb").write(b"not a npz")
        elif edit == "npz_truncated":
            data = open(ckpt, "rb").read()
            open(ckpt, "wb").write(data[:len(data) // 2])
        elif edit == "npz_no_version":
            del arrays["__version__"]
            np.savez(ckpt, **arrays)
        elif edit == "npz_wrong_version":
            arrays["__version__"] = np.asarray(99)
            np.savez(ckpt, **arrays)
        elif edit == "npz_missing_param":
            del arrays["param/src_embed"]
            np.savez(ckpt, **arrays)
        elif edit == "old_layout":  # written when four constants were fields, plus meta/*
            sidecar["config"].update(embed_dim=4, clip_norm=5.0, maxout_pool=2,
                                     include_eos_row=False)
            for key, value in (("cell_size", 4), ("embed_dim", 4), ("temperature", 10.0),
                               ("maxout_pool", 2)):
                arrays["meta/" + key] = np.asarray(value)
            np.savez(ckpt, **arrays)
        elif edit in SIDECAR_TOKENS:
            key, value = SIDECAR_TOKENS[edit]
            sidecar[key] = value
        elif edit in SIDECAR_VALUES:
            key, value = SIDECAR_VALUES[edit]
            if key is None:
                sidecar["config"] = value
            else:
                sidecar["config"][key] = value
        open(ckpt + ".json", "w").write(json.dumps(sidecar))
        rc = main(["force-align", "--model", ckpt, "--ul", corpus_dir + "/ul.txt",
                   "--wrl", corpus_dir + "/wrl.txt", "--out", str(tmp_path / "attn.txt")])
        err = capsys.readouterr().err
        if edit is None:
            assert rc == cli.EXIT_OK
        else:
            assert rc == cli.EXIT_DATA
            assert err.startswith("data error: ") and err.count("\n") == 1
        if edit == "old_layout":
            assert err.startswith("data error: %s.json: unknown config key" % ckpt)

    @pytest.mark.parametrize("reader", ["matrices", "corpus", "segmentation", "wav_list",
                                        "sidecar"])
    def test_file_that_is_not_utf8_is_data_error(self, corpus_dir, tmp_path, capsys, reader):
        ul, wrl, out = corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt", str(tmp_path / "out")
        bad = str(tmp_path / "bad.txt")
        if reader == "sidecar":
            corpus = load_parallel_corpus(ul, wrl)
            cli.save_aligner_bundle(str(tmp_path / "m.npz"), str(tmp_path / "m.npz.json"),
                                    AlignerModel(AlignerConfig(cell_size=4), corpus.wrl_vocab,
                                                 corpus.ul_vocab))
            bad = str(tmp_path / "m.npz.json")
        with open(bad, "ab") as f:
            f.write(b"utt00001 1 2\n0.5 \xff0.5\n")
        args = {"matrices": ["segment", "--matrices", bad, "--ul", ul, "--wrl", wrl],
                "corpus": ["baseline-proportional", "--ul", bad, "--wrl", wrl],
                "segmentation": ["evaluate", "--ul", ul, "--wrl", wrl, "--gold", bad,
                                 "--hyp", corpus_dir + "/gold.txt"],
                "wav_list": ["mfcc", "--wav-list", bad],
                "sidecar": ["force-align", "--model", str(tmp_path / "m.npz"), "--ul", ul,
                            "--wrl", wrl]}[reader]
        assert main(args + ["--out", out]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: %s: " % bad) and err.count("\n") == 1
        assert not os.path.exists(out)


class TestCommandRoundtrips:
    @pytest.fixture()
    def corpus_dir(self, tmp_path, capsys):
        d = str(tmp_path / "corpus")
        assert main(["synth", "--out-dir", d, "--size", "30", "--lexicon-size",
                     "6", "--seed", "4"]) == cli.EXIT_OK
        capsys.readouterr()
        return d

    def test_proportional_then_evaluate(self, corpus_dir, tmp_path, capsys):
        hyp = str(tmp_path / "prop.txt")
        assert main(["baseline-proportional", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", hyp]) == cli.EXIT_OK
        rep = str(tmp_path / "report.txt")
        assert main(["evaluate", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--gold", corpus_dir + "/gold.txt",
                     "--hyp", hyp, "--out", rep]) == cli.EXIT_OK
        d = json.loads(open(rep + ".json").read())
        assert 0.0 <= d["boundary_fscore"] <= 1.0
        assert open(rep + ".json").read() == json.dumps(d, indent=2, sort_keys=True) + "\n"
        assert "boundary F" in capsys.readouterr().out

    def test_gold_scores_perfectly(self, corpus_dir, tmp_path, capsys):
        rep = str(tmp_path / "report.txt")
        assert main(["evaluate", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--gold", corpus_dir + "/gold.txt",
                     "--hyp", corpus_dir + "/gold.txt",
                     "--out", rep]) == cli.EXIT_OK
        d = json.loads(open(rep + ".json").read())
        assert d["boundary_fscore"] == 1.0
        assert d["token_fscore"] == 1.0
        assert d["type_retrieval"] == 1.0

    def test_dpseg_command(self, corpus_dir, tmp_path, capsys):
        hyp = str(tmp_path / "dp.txt")
        assert main(["baseline-dpseg", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", hyp,
                     "--order", "unigram", "--alpha0", "20",
                     "--iterations", "20"]) == cli.EXIT_OK
        lines = open(hyp).read().splitlines()
        assert len(lines) == 30

    def test_dpseg_sweep_log(self, corpus_dir, tmp_path):
        hyp = str(tmp_path / "dp.txt")
        assert main(["baseline-dpseg", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", hyp,
                     "--iterations", "10", "--seed", "2"]) == cli.EXIT_OK
        sweeps = json.loads(open(hyp + ".log.json").read())["sweeps"]
        assert [e["sweep"] for e in sweeps] == list(range(1, 11))
        assert all(set(e) == {"sweep", "temperature", "boundaries", "seconds"}
                   for e in sweeps)
        # the annealing schedule: from 10 down to 1 over 90% of the sweeps, then 1
        assert [e["temperature"] for e in sweeps] == pytest.approx(
            [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        manifest = json.loads(open(hyp + ".manifest.json").read())
        assert list(manifest["outputs"]) == [hyp]
        # the log leaves the segmentation as the library writes it without one
        corpus = load_parallel_corpus(corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt")
        segs = bl.dpseg_segment_corpus(corpus, bl.DpsegConfig(iterations=10, seed=2))
        plain = str(tmp_path / "plain.txt")
        cp.write_segmentations(corpus, segs, plain)
        assert open(hyp, "rb").read() == open(plain, "rb").read()
        assert sweeps[-1]["boundaries"] == sum(len(s.boundaries) for s in segs.values())

    def test_align_segment_plot_chain(self, corpus_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "model.npz")
        assert main(["train-aligner", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", ckpt,
                     "--cell-size", "12", "--batch-size", "8",
                     "--dropout", "0.0", "--max-epochs", "2",
                     "--quiet"]) == cli.EXIT_OK
        mats = str(tmp_path / "attn.txt")
        assert main(["force-align", "--model", ckpt,
                     "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--out", mats]) == cli.EXIT_OK
        seg = str(tmp_path / "seg.txt")
        assert main(["segment", "--matrices", mats,
                     "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--out", seg, "--no-smooth"]) == cli.EXIT_OK
        assert len(open(seg).read().splitlines()) == 30
        pgm = str(tmp_path / "map.pgm")
        assert main(["plot", "--matrices", mats, "--utt", "utt00001",
                     "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--out", pgm]) == cli.EXIT_OK
        img = read_pgm(pgm)
        assert img.min() >= 0 and img.max() <= 255
        manifest = json.loads(open(pgm + ".manifest.json").read())
        assert sorted(manifest["inputs"]) == sorted([mats, corpus_dir + "/ul.txt",
                                                     corpus_dir + "/wrl.txt"])
        assert sorted(manifest["outputs"]) == [pgm, pgm + ".txt"]

    def test_out_path_is_written_exactly(self, corpus_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "model")  # no .npz suffix
        assert main(["train-aligner", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", ckpt, "--cell-size", "4",
                     "--max-epochs", "1", "--quiet"]) == cli.EXIT_OK
        assert sorted(os.listdir(tmp_path)) == [
            "corpus", "model", "model.json", "model.log.json", "model.manifest.json"]
        manifest = json.loads(open(ckpt + ".manifest.json").read())
        assert manifest["outputs"] == {p: cli._sha256(p) for p in (ckpt, ckpt + ".json")}
        assert main(["force-align", "--model", ckpt, "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt",
                     "--out", str(tmp_path / "attn.txt")]) == cli.EXIT_OK

    def test_multichar_symbols_need_no_delimiter(self, tmp_path, capsys):
        d = tmp_path
        (d / "ul.txt").write_text("a1 a2 a3 a4\nb1 b2 a1\n")
        (d / "wrl.txt").write_text("x y\nz\n")
        (d / "gold.txt").write_text("a1a2 a3a4\nb1b2a1\n")
        corpus = ["--ul", str(d / "ul.txt"), "--wrl", str(d / "wrl.txt")]
        assert main(["baseline-proportional", *corpus, "--out", str(d / "prop.txt")]) == cli.EXIT_OK
        assert (d / "prop.txt").read_text() == "a1a2 a3a4\nb1b2a1\n"
        assert main(["evaluate", *corpus, "--gold", str(d / "gold.txt"),
                     "--hyp", str(d / "prop.txt"), "--out", str(d / "r.txt")]) == cli.EXIT_OK
        assert json.loads((d / "r.txt.json").read_text())["token_fscore"] == 1.0
        capsys.readouterr()
        for hyp, message in [("a1a2 a3a\nb1b2a1\n", "line 1: word 2 'a3a' does not spell"),
                             ("a1a2 a3a4\nb1b2\n", "line 2: the words spell 2 of the 3")]:
            (d / "bad.txt").write_text(hyp)
            assert main(["evaluate", *corpus, "--gold", str(d / "gold.txt"),
                         "--hyp", str(d / "bad.txt"), "--out", str(d / "r.txt")]) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error: %s %s" % (d / "bad.txt", message))
            assert err.count("\n") == 1

    def test_force_align_manifest_hashes_the_model_sidecar(self, corpus_dir, tmp_path, capsys):
        """The sidecar's config changes the matrices, so the manifest must tell it apart."""
        ckpt = str(tmp_path / "model.npz")
        corpus = ["--ul", corpus_dir + "/ul.txt", "--wrl", corpus_dir + "/wrl.txt"]
        assert main(["train-aligner", *corpus, "--out", ckpt, "--cell-size", "4",
                     "--max-epochs", "1", "--quiet"]) == cli.EXIT_OK

        def force_align(out):
            assert main(["force-align", "--model", ckpt, *corpus, "--out", out]) == cli.EXIT_OK
            return open(out, "rb").read(), json.loads(open(out + ".manifest.json").read())

        matrices, manifest = force_align(str(tmp_path / "a.txt"))
        assert manifest["inputs"] == {p: cli._sha256(p) for p in [
            ckpt, ckpt + ".json", corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt"]}
        sidecar = json.loads(open(ckpt + ".json").read())
        sidecar["config"]["temperature"] = 1.0
        open(ckpt + ".json", "w").write(json.dumps(sidecar))
        other_matrices, other = force_align(str(tmp_path / "b.txt"))
        assert other_matrices != matrices
        assert [p for p in manifest["inputs"]
                if manifest["inputs"][p] != other["inputs"][p]] == [ckpt + ".json"]

    def test_force_align_bit_identical(self, corpus_dir, tmp_path, capsys):
        ckpt = str(tmp_path / "model.npz")
        assert main(["train-aligner", "--ul", corpus_dir + "/ul.txt",
                     "--wrl", corpus_dir + "/wrl.txt", "--out", ckpt,
                     "--cell-size", "10", "--batch-size", "8",
                     "--dropout", "0.0", "--max-epochs", "1",
                     "--quiet"]) == cli.EXIT_OK
        m1, m2 = str(tmp_path / "a1.txt"), str(tmp_path / "a2.txt")
        for m in (m1, m2):
            assert main(["force-align", "--model", ckpt,
                         "--ul", corpus_dir + "/ul.txt",
                         "--wrl", corpus_dir + "/wrl.txt",
                         "--out", m]) == cli.EXIT_OK
        assert open(m1, "rb").read() == open(m2, "rb").read()


def _write_wav(path, samples):
    with wave.open(path, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(samples.tobytes())


class TestAudCli:
    def test_mfcc_train_decode(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        wavs = []
        for i in range(2):
            p = str(tmp_path / ("w%d.wav" % i))
            # alternate two band-limited textures so the loop has structure
            t = np.arange(8000) / 16000.0
            sig = 0.3 * np.sin(2 * np.pi * (400 if i else 1200) * t)
            sig += 0.01 * rng.standard_normal(len(t))
            samples = (sig * 32767).astype("<i2")
            with wave.open(p, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(16000)
                w.writeframes(samples.tobytes())
            wavs.append(p)
        lst = str(tmp_path / "wavs.txt")
        open(lst, "w").write("".join("utt%d %s\n" % (i, p) for i, p in enumerate(wavs)))
        feats = str(tmp_path / "feats.npz")
        assert main(["mfcc", "--wav-list", lst, "--out", feats]) == cli.EXIT_OK
        model = str(tmp_path / "aud.npz")
        capsys.readouterr()
        assert main(["aud-train", "--features", feats, "--out", model,
                     "--units", "4", "--states", "2", "--mix", "1",
                     "--iterations", "2", "--quiet"]) == cli.EXIT_OK
        assert capsys.readouterr().out == ""
        log = json.loads(open(model + ".log.json").read())
        assert [entry["iteration"] for entry in log["iterations"]] == [1, 2]
        assert log["iterations"][-1]["active_units"] == log["active_units"] <= 4
        assert all(entry["seconds"] > 0 and math.isfinite(entry["objective"])
                   for entry in log["iterations"])
        manifest = json.loads(open(model + ".manifest.json").read())
        assert list(manifest["outputs"]) == [model]
        units = str(tmp_path / "units.txt")
        assert main(["aud-decode", "--model", model, "--features", feats,
                     "--out", units]) == cli.EXIT_OK
        lines = open(units).read().splitlines()
        assert lines
        assert all(len(l.split()) == 4 for l in lines)
        for artifact, keys in [(feats, set()), (model, {"active_units", "iterations"}),
                               (units, set())]:
            log = json.loads(open(artifact + ".log.json").read())
            assert set(log) == keys | {"seconds", "peak_rss_mb"}
            assert log["seconds"] > 0 and log["peak_rss_mb"] > 0

    def test_mfcc_manifest_hashes_every_wav(self, tmp_path, capsys):
        wavs = [str(tmp_path / ("w%d.wav" % i)) for i in range(2)]
        for i, p in enumerate(wavs):
            _write_wav(p, np.full(1600, 1000 * (i + 1), dtype="<i2"))
        lst = str(tmp_path / "wavs.txt")
        open(lst, "w").write("".join("utt%d %s\n" % (i, p) for i, p in enumerate(wavs)))
        feats = str(tmp_path / "feats.npz")

        def input_hashes():
            assert main(["mfcc", "--wav-list", lst, "--out", feats]) == cli.EXIT_OK
            return json.loads(open(feats + ".manifest.json").read())["inputs"]

        before = input_hashes()
        assert before == {p: cli._sha256(p) for p in [lst] + wavs}
        _write_wav(wavs[1], np.full(1600, -500, dtype="<i2"))  # re-recorded under the same path
        after = input_hashes()
        assert [p for p in before if before[p] != after[p]] == [wavs[1]]


class TestAudBadInputs:
    @pytest.fixture()
    def aud_files(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = [aud_mod.FeatureSequence("u%d" % i, rng.standard_normal((9, 3)))
                 for i in range(2)]
        paths = {"feats": str(tmp_path / "feats.npz"), "model": str(tmp_path / "aud.npz")}
        aud_mod.save_features(paths["feats"], feats)
        cfg = aud_mod.AudConfig(num_units=2, states_per_unit=1, mix_components=1)
        aud_mod.save_aud_model(paths["model"], aud_mod.init_model(feats, cfg))
        return paths

    @pytest.mark.parametrize("case", ["wav_list_one_field", "wav_list_three_fields",
                                      "model_not_an_archive", "model_is_feature_archive",
                                      "features_without_matrices", "model_stay_cut",
                                      "model_negative_variance", "model_config_positional",
                                      "model_config_field_missing", "features_empty_matrix"])
    def test_bad_aud_input_is_data_error(self, aud_files, tmp_path, capsys, case):
        bad = str(tmp_path / "bad")
        decode = ["aud-decode", "--model", aud_files["model"], "--features", aud_files["feats"],
                  "--out", str(tmp_path / "units.txt")]
        if case.startswith("wav_list"):
            open(bad, "w").write("u1\nu0 a.wav\n" if case.endswith("one_field")
                                 else "u0 a.wav extra\n")
            args = ["mfcc", "--wav-list", bad, "--out", str(tmp_path / "f.npz")]
        elif case == "model_not_an_archive":
            open(bad, "w").write("not an archive\n")
            args = decode[:2] + [bad] + decode[3:]
        elif case == "model_is_feature_archive":
            args = decode[:2] + [aud_files["feats"]] + decode[3:]
        elif case.startswith("model_"):  # arrays that disagree, or a variance <= 0
            with np.load(aud_files["model"]) as z:
                arrays = {k: z[k] for k in z.files}
            if case == "model_stay_cut":
                arrays["stay"] = arrays["stay"][:1]
            elif case == "model_config_positional":  # the layout before `config/<field>`
                config = [arrays.pop(k) for k in list(arrays) if k.startswith("config/")]
                arrays["config"] = np.array(config, dtype=float)
            elif case == "model_config_field_missing":
                del arrays["config/gamma"]
            else:
                arrays["variances"][0, 0, 0, 0] = -1.0
            np.savez(bad + ".npz", **arrays)
            args = decode[:2] + [bad + ".npz"] + decode[3:]
        else:
            arrays = ({"feat/u1": np.zeros((0, 39))} if case == "features_empty_matrix"
                      else {"other": np.zeros(2)})
            np.savez(bad + ".npz", **arrays)
            args = decode[:4] + [bad + ".npz"] + decode[5:]
        assert main(decode) == cli.EXIT_OK
        capsys.readouterr()
        assert main(args) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert bad in err or aud_files["feats"] in err  # the message names the file
        if case == "features_empty_matrix":
            assert "u1: feature matrix has shape (0, 39)" in err

    @pytest.mark.parametrize("field, index, value", [
        ("stay", (0, 0), 1.5), ("stay", (1, 0), -0.25), ("stay", (0, 0), np.nan),
        ("mix_weights", (0, 0, 0), -0.5), ("mix_weights", (1, 0, 0), np.nan),
        ("mix_weights", (0, 0, 0), 0.9),  # a row that sums to 0.9
        ("log_pi", (0,), np.nan), ("log_pi", (1,), np.inf),
        ("means", (0, 0, 0, 1), np.inf), ("means", (1, 0, 0, 2), np.nan)])
    def test_model_that_is_not_probabilities_is_data_error(self, aud_files, tmp_path, capsys,
                                                           field, index, value):
        with np.load(aud_files["model"]) as z:
            arrays = {k: z[k] for k in z.files}
        arrays[field][index] = value
        bad = str(tmp_path / "bad.npz")
        np.savez(bad, **arrays)
        units = tmp_path / "units.txt"
        assert main(["aud-decode", "--model", bad, "--features", aud_files["feats"],
                     "--out", str(units)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert bad in err and field in err
        assert not units.exists()

    @pytest.mark.parametrize("case", ["not_riff", "header_cut", "data_cut"])
    def test_bad_wav_file_is_data_error(self, tmp_path, capsys, case):
        wav = str(tmp_path / "u.wav")
        _write_wav(wav, np.zeros(1600, dtype="<i2"))
        data = open(wav, "rb").read()
        open(wav, "wb").write({"not_riff": b"not a wav", "header_cut": data[:30],
                               "data_cut": data[:1001]}[case])
        wav_list = tmp_path / "wavs.txt"
        wav_list.write_text("u %s\n" % wav)
        assert main(["mfcc", "--wav-list", str(wav_list),
                     "--out", str(tmp_path / "feats.npz")]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: %s: " % wav) and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["u.wav", "wavs.txt"]  # nothing written

    @pytest.mark.parametrize("lines, message", [
        ("", "no `id wav-path` lines"), ("\n  \n", "no `id wav-path` lines"),
        ("x {wav}\n\nx {wav}\n", ":3: id 'x' already on line 1")])
    def test_empty_or_repeated_wav_list_is_data_error(self, tmp_path, capsys, lines, message):
        wav = str(tmp_path / "u.wav")
        with wave.open(wav, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(np.zeros(1600, dtype="<i2").tobytes())
        wav_list = tmp_path / "wavs.txt"
        wav_list.write_text(lines.format(wav=wav))
        out = tmp_path / "feats.npz"
        assert main(["mfcc", "--wav-list", str(wav_list), "--out", str(out)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: %s" % wav_list) and err.count("\n") == 1
        assert message in err
        assert sorted(os.listdir(tmp_path)) == ["u.wav", "wavs.txt"]  # nothing written

    @pytest.mark.parametrize("flag, value", [("--iterations", "0"), ("--units", "1")])
    def test_out_of_range_aud_setting_is_config_error(self, aud_files, tmp_path, capsys,
                                                      flag, value):
        assert main(["aud-train", "--features", aud_files["feats"],
                     "--out", str(tmp_path / "m.npz"), flag, value, "--quiet"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


TINY_STAGES = ("[synth]\ncorpus_size = 6\nlexicon_size = 3\n"
               "[aligner]\ncell_size = 4\nbatch_size = 4\nmax_epochs = 1\npatience = 1\n")


# a two-run pipeline with a setting other than the default in every section
STAGES_INI = ("[pipeline]\nruns = 2\nout_dir = {out_dir}\n"
              "[synth]\ncorpus_size = 8\nlexicon_size = 3\nseed = 2\n"
              "[aligner]\ncell_size = 4\nbatch_size = 4\nmax_epochs = 2\npatience = 1\n"
              "seed = 5\n{aligner_extra}"
              "[dpseg]\niterations = 5\nseed = 1\n")


class TestPipelineCommand:
    @pytest.mark.parametrize("extra", ["runs = 1\nrun = 1\n", "runs = 0\n",
                                       "runs = 1\n[aligne]\ncell_size = 4\n"])
    def test_bad_pipeline_setting_is_config_error(self, tmp_path, capsys, extra):
        ini = tmp_path / "p.ini"
        ini.write_text(TINY_STAGES + "[pipeline]\nout_dir = %s\n%s" % (tmp_path / "out", extra))
        assert main(["pipeline", "--config", str(ini)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_out_dir_flag_overrides_config(self, tmp_path, capsys):
        ini = tmp_path / "p.ini"
        ini.write_text(TINY_STAGES + "[pipeline]\nruns = 1\nout_dir = %s\n" % (tmp_path / "ini"))
        assert main(["pipeline", "--config", str(ini),
                     "--out-dir", str(tmp_path / "flag")]) == cli.EXIT_OK
        assert (tmp_path / "flag" / "eval_attentional.txt").exists()
        assert not (tmp_path / "ini").exists()

    def test_same_artifacts_as_the_stage_commands(self, tmp_path, capsys):
        by_hand, pipeline = tmp_path / "by_hand", tmp_path / "pipeline"
        ini = tmp_path / "p.ini"
        ini.write_text(STAGES_INI.format(out_dir=pipeline, aligner_extra=""))
        assert main(["pipeline", "--config", str(ini)]) == cli.EXIT_OK
        # the README's stage commands, with the INI's settings as flags
        d = str(by_hand)
        corpus = ["--ul", d + "/ul.txt", "--wrl", d + "/wrl.txt"]
        commands = [["synth", "--out-dir", d, "--size", "8", "--lexicon-size", "3",
                     "--seed", "2"]]
        for run in range(2):
            model = "%s/model_run%d.npz" % (d, run)
            commands += [["train-aligner", *corpus, "--out", model, "--cell-size", "4",
                          "--batch-size", "4", "--max-epochs", "2", "--patience", "1",
                          "--seed", str(5 + run), "--split-seed", str(2 + run)],
                         ["force-align", "--model", model, *corpus,
                          "--out", "%s/attention_run%d.txt" % (d, run)]]
        commands += [["segment", "--matrices", d + "/attention_run0.txt",
                      d + "/attention_run1.txt", *corpus, "--out", d + "/segmentation.txt"],
                     ["baseline-proportional", *corpus, "--out", d + "/proportional.txt"],
                     ["baseline-dpseg", *corpus, "--out", d + "/dpseg.txt",
                      "--iterations", "5", "--seed", "1"]]
        for name, hyp in [("attentional", "segmentation"), ("proportional", "proportional"),
                          ("dpseg", "dpseg")]:
            commands.append(["evaluate", *corpus, "--gold", d + "/gold.txt",
                             "--hyp", "%s/%s.txt" % (d, hyp),
                             "--out", "%s/eval_%s.txt" % (d, name)])
        for argv in commands:
            assert main(argv) == cli.EXIT_OK, argv
        names = sorted(os.listdir(pipeline))
        assert names == sorted(os.listdir(by_hand))
        for name in names:
            a, b = (pipeline / name).read_bytes(), (by_hand / name).read_bytes()
            if name.endswith(".manifest.json"):  # the same stage and config
                a, b = ({k: json.loads(m)[k] for k in ("stage", "config")} for m in (a, b))
            if not name.endswith(".log.json"):  # logs hold timings
                assert a == b, name

    def test_every_artifact_is_the_output_of_one_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        ini = tmp_path / "p.ini"
        ini.write_text(STAGES_INI.format(out_dir=out, aligner_extra="dtype = float64\n"))
        assert main(["pipeline", "--config", str(ini)]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "%s: boundary F %.4f" % (name, json.loads(
                (out / ("eval_%s.txt.json" % name)).read_text())["boundary_fscore"])
            for name in ("attentional", "proportional", "dpseg")]
        manifests = [json.loads((out / n).read_text())
                     for n in os.listdir(out) if n.endswith(".manifest.json")]
        outputs = [item for m in manifests for item in m["outputs"].items()]
        artifacts = sorted(n for n in os.listdir(out)
                           if not n.endswith((".manifest.json", ".log.json")))
        assert artifacts == sorted(
            ["ul.txt", "wrl.txt", "gold.txt", "segmentation.txt", "proportional.txt",
             "dpseg.txt"] + ["model_run%d.npz%s" % (k, e) for k in (0, 1) for e in ("", ".json")]
            + ["attention_run%d.txt" % k for k in (0, 1)]
            + ["eval_%s.txt%s" % (s, e) for s in ("attentional", "proportional", "dpseg")
               for e in ("", ".json")])
        assert sorted(os.path.basename(p) for p, _ in outputs) == artifacts
        assert all(cli._sha256(p) == digest for p, digest in outputs)
        assert all(os.path.exists(p) for m in manifests for p in m["inputs"])
        # a key with no flag still reaches the stage, and force-align names its model
        assert json.loads((out / "model_run1.npz.json").read_text())["config"]["dtype"] == "float64"
        force_align = json.loads((out / "attention_run1.txt.manifest.json").read_text())
        assert str(out / "model_run1.npz") in force_align["inputs"]
        # each manifest has a log beside it, and each log a manifest
        logs = sorted(n[:-len(".log.json")] for n in os.listdir(out) if n.endswith(".log.json"))
        assert logs == sorted(n[:-len(".manifest.json")] for n in os.listdir(out)
                              if n.endswith(".manifest.json"))
        for name in logs:
            log = json.loads((out / (name + ".log.json")).read_text())
            assert log["seconds"] > 0 and log["peak_rss_mb"] > 0, name
        assert set(json.loads((out / "model_run0.npz.log.json").read_text())) == {
            "best_epoch", "best_dev_loss", "epochs", "seconds", "peak_rss_mb"}
        assert set(json.loads((out / "dpseg.txt.log.json").read_text())) == {
            "sweeps", "seconds", "peak_rss_mb"}

    def test_small_end_to_end(self, tmp_path, capsys):
        ini = tmp_path / "p.ini"
        ini.write_text(
            "[pipeline]\nruns = 2\nout_dir = %s\n\n"
            "[synth]\ncorpus_size = 24\nlexicon_size = 5\nseed = 11\n\n"
            "[aligner]\ncell_size = 10\nbatch_size = 8\ndropout = 0.0\n"
            "max_epochs = 2\npatience = 2\n\n"
            "[dpseg]\norder = unigram\nalpha0 = 20\niterations = 10\n"
            % str(tmp_path / "out")
        )
        assert main(["pipeline", "--config", str(ini)]) == cli.EXIT_OK
        out = tmp_path / "out"
        for name in ("attentional", "proportional", "dpseg"):
            assert (out / ("eval_%s.txt.json" % name)).exists()
        text = capsys.readouterr().out
        assert "attentional: boundary F" in text
