import json
import os

import numpy as np
import pytest

from attnseg import cli
from attnseg.aligner import AlignerConfig, AlignerModel, AttentionMatrix
from attnseg.cli import (
    ConfigError,
    SynthConfig,
    load_config_file,
    main,
    plot_attention,
    read_pgm,
    synth_corpus,
    write_manifest,
    write_synth_corpus,
)
from attnseg.corpus import load_parallel_corpus


class TestSynth:
    def test_deterministic(self):
        a = synth_corpus(SynthConfig(corpus_size=20, seed=5))
        b = synth_corpus(SynthConfig(corpus_size=20, seed=5))
        assert a.utterances == b.utterances

    def test_seed_changes_corpus(self):
        a = synth_corpus(SynthConfig(corpus_size=20, seed=5))
        b = synth_corpus(SynthConfig(corpus_size=20, seed=6))
        assert a.utterances != b.utterances

    def test_structure(self):
        c = synth_corpus(SynthConfig(corpus_size=30, lexicon_size=8,
                                     sent_len_min=2, sent_len_max=4, seed=0))
        assert len(c) == 30
        for u in c:
            assert 2 <= len(u.wrl_words) <= 4
            assert u.gold_boundaries.num_words == len(u.wrl_words)
            assert u.gold_boundaries.length == len(u.ul_symbols)

    def test_noise_preserves_word_count(self):
        cfg = SynthConfig(corpus_size=30, sub_rate=0.2, del_rate=0.1,
                          ins_rate=0.1, seed=1)
        for u in synth_corpus(cfg):
            assert u.gold_boundaries.num_words == len(u.wrl_words)

    def test_clean_corpus_has_consistent_lexicon(self):
        c = synth_corpus(SynthConfig(corpus_size=40, lexicon_size=6, seed=2))
        mapping = {}
        for u in c:
            words = u.gold_boundaries.words(list(u.ul_symbols))
            for wrl, ul in zip(u.wrl_words, words):
                assert mapping.setdefault(wrl, ul) == ul

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(word_len_min=5, word_len_max=2)
        with pytest.raises(ConfigError):
            SynthConfig(sub_rate=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(alphabet_size=40)

    def test_write_and_reload(self, tmp_path):
        c = synth_corpus(SynthConfig(corpus_size=10, seed=3))
        paths = write_synth_corpus(c, str(tmp_path))
        back = load_parallel_corpus(paths["ul"], paths["wrl"])
        assert len(back) == 10
        assert back.utterances[0].ul_symbols == c.utterances[0].ul_symbols


class TestPlot:
    def test_pgm_affine_readback(self, tmp_path):
        w = np.array([[1.0, 0.0], [0.25, 0.75]])
        m = AttentionMatrix("u", w)
        out = str(tmp_path / "h.pgm")
        plot_attention(m, None, out)
        img = read_pgm(out)
        np.testing.assert_array_equal(img, 255 - np.round(255 * w))

    def test_diagonal_is_darkest(self, tmp_path):
        w = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        out = str(tmp_path / "h.pgm")
        plot_attention(AttentionMatrix("u", w), None, out)
        img = read_pgm(out)
        for i in range(3):
            assert img[i, i] == img[i].min()

    def test_sidecar_labels(self, tmp_path):
        from attnseg.corpus import ParallelUtterance

        u = ParallelUtterance("u", ("a", "b"), ("mot",))
        out = str(tmp_path / "h.pgm")
        plot_attention(AttentionMatrix("u", np.array([[1.0], [1.0]])), u, out)
        text = open(out + ".txt").read()
        assert "# rows: a b" in text
        assert "# cols: mot" in text


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
        assert cli._coerce(AlignerConfig, {"embed_dim": "16"}).embed_dim == 16

    @pytest.mark.parametrize("text", [
        "[aligner]\ncell_size = abc", "[aligner]\ndropout = half",
        "[aligner]\nembed_dim = x", "runs = two"])
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text("[pipeline]\nout_dir = %s\n%s\n" % (tmp_path / "out", text))
        assert main(["pipeline", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "not a number" in err


    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("yes", True), ("True", True), ("on", True),
        ("0", False), ("no", False), ("false", False), ("OFF", False)])
    def test_bool_reads_as_configparser_does(self, raw, value):
        assert cli._coerce(AlignerConfig, {"include_eos_row": raw}).include_eos_row is value

    @pytest.mark.parametrize("text", [
        "[aligner]\ninclude_eos_row = treu", "[aligner]\ninclude_eos_row = 2",
        "[dpseg]\nanneal_start_temp = 5", "[dpseg]\nanneal_frac = 0.5"])
    def test_bad_bool_or_dropped_key_is_config_error(self, tmp_path, capsys, text):
        p = tmp_path / "c.ini"
        p.write_text("[pipeline]\nout_dir = %s\n%s\n" % (tmp_path / "out", text))
        assert main(["pipeline", "--config", str(p)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "not a boolean" in err or "unknown config key" in err
        assert not (tmp_path / "out").exists()  # rejected before any work


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

    def test_empty_training_corpus_is_data_error(self, tmp_path, capsys):
        (tmp_path / "ul.txt").write_text("")
        (tmp_path / "wrl.txt").write_text("")
        assert main(["train-aligner", "--ul", str(tmp_path / "ul.txt"),
                     "--wrl", str(tmp_path / "wrl.txt"),
                     "--out", str(tmp_path / "m.npz")]) == cli.EXIT_DATA
        assert capsys.readouterr().err == "data error: empty training corpus\n"

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


class TestBadInputs:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        d = str(tmp_path / "corpus")
        write_synth_corpus(synth_corpus(SynthConfig(corpus_size=3, seed=1)), d)
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

    @pytest.mark.parametrize("edit", [None, "unknown_key", "no_vocabulary", "bad_dtype",
                                      "cell_mismatch", "npz_nine_bytes", "npz_truncated",
                                      "npz_no_version", "npz_wrong_version"])
    def test_bad_aligner_sidecar_is_data_error(self, corpus_dir, tmp_path, capsys, edit):
        corpus = load_parallel_corpus(corpus_dir + "/ul.txt", corpus_dir + "/wrl.txt")
        ckpt = str(tmp_path / "model.npz")
        cli.save_aligner_bundle(ckpt, AlignerModel(AlignerConfig(cell_size=4),
                                                   corpus.wrl_vocab, corpus.ul_vocab))
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
        open(ckpt + ".json", "w").write(json.dumps(sidecar))
        rc = main(["force-align", "--model", ckpt, "--ul", corpus_dir + "/ul.txt",
                   "--wrl", corpus_dir + "/wrl.txt", "--out", str(tmp_path / "attn.txt")])
        err = capsys.readouterr().err
        if edit is None:
            assert rc == cli.EXIT_OK
        else:
            assert rc == cli.EXIT_DATA
            assert err.startswith("data error: ") and err.count("\n") == 1


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


class TestAudCli:
    def test_mfcc_train_decode(self, tmp_path, capsys):
        import wave

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
        assert main(["aud-train", "--features", feats, "--out", model,
                     "--units", "4", "--states", "2", "--mix", "1",
                     "--iterations", "2", "--quiet"]) == cli.EXIT_OK
        units = str(tmp_path / "units.txt")
        assert main(["aud-decode", "--model", model, "--features", feats,
                     "--out", units]) == cli.EXIT_OK
        lines = open(units).read().splitlines()
        assert lines
        assert all(len(l.split()) == 4 for l in lines)


class TestPipelineCommand:
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
