import math

import numpy as np
import pytest

from attnseg import numerics as nm
from attnseg.aligner import (
    AlignerConfig,
    AlignerError,
    AlignerModel,
    AttentionMatrix,
    _bucket_batches,
    _pack_batch,
    evaluate_loss,
    forced_decode_corpus,
    load_model,
    read_attention_matrices,
    save_model,
    train,
    write_attention_matrices,
)
from attnseg.corpus import (
    ParallelCorpus,
    ParallelUtterance,
    build_vocabularies,
)


def small_config(**kw):
    defaults = dict(cell_size=12, batch_size=4, seed=0, dropout=0.0, max_epochs=1)
    defaults.update(kw)
    return AlignerConfig(**defaults)


def toy_corpus(n=8, seed=0):
    import random

    rng = random.Random(seed)
    lex = {"un": "ab", "deux": "cde", "trois": "fg", "quatre": "hij"}
    utts = []
    for i in range(n):
        words = [rng.choice(list(lex)) for _ in range(rng.randint(1, 3))]
        syms = tuple("".join(lex[w] for w in words))
        utts.append(ParallelUtterance("u%03d" % i, syms, tuple(words)))
    ul, wrl = build_vocabularies(utts)
    return ParallelCorpus(tuple(utts), ul, wrl)


@pytest.fixture(scope="module")
def corpus():
    return toy_corpus(12)


@pytest.fixture(scope="module")
def model(corpus):
    return AlignerModel(small_config(), corpus.wrl_vocab, corpus.ul_vocab)


class TestConfig:
    def test_embed_defaults_to_cell(self):
        assert AlignerConfig(cell_size=48).embed_dim == 48

    def test_rejects_bad_temperature(self):
        with pytest.raises(AlignerError):
            AlignerConfig(temperature=0.0)

    def test_rejects_bad_dropout(self):
        with pytest.raises(AlignerError):
            AlignerConfig(dropout=1.0)

    def test_dtype_is_float32_or_float64(self):
        assert AlignerConfig(dtype="float64").np_dtype == np.float64
        assert AlignerConfig().np_dtype == np.float32
        with pytest.raises(AlignerError):
            AlignerConfig(dtype="float16")


class TestShapes:
    def test_encode(self, model):
        src = np.array([[4, 5, 6], [5, 6, 4]])
        h, s0 = model.encode(src)
        assert h.shape == (2, 3, 24)
        assert s0.data.shape == (2, 12)

    def test_attend_rows_normalized(self, model):
        src = np.array([[4, 5, 6, 7]])
        h, s0 = model.encode(src)
        alpha, ctx = model.attend(h, s0)
        assert alpha.data.shape == (1, 4)
        assert ctx.data.shape == (1, 24)
        assert alpha.data.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(alpha.data > 0)

    def test_large_temperature_near_uniform(self, corpus):
        cfg = small_config(temperature=1e4)
        m = AlignerModel(cfg, corpus.wrl_vocab, corpus.ul_vocab)
        h, s0 = m.encode(np.array([[4, 5, 6]]))
        alpha, _ = m.attend(h, s0)
        np.testing.assert_allclose(alpha.data, 1 / 3, atol=1e-4)

    def test_out_of_range_source_id(self, model):
        with pytest.raises(AlignerError):
            model.encode(np.array([[9999]]))


def reference_attend(model, h_list, s_prev):
    """Per-position attention read: one score matmul and one context term per h_i."""
    h_proj = [nm.matmul(hi, model.attn_W1) for hi in h_list]
    sp = nm.add(nm.matmul(s_prev, model.attn_W2), model.attn_b2)
    scores = [nm.matmul(nm.tanh(nm.add(hp, sp)), model.attn_v) for hp in h_proj]
    alpha = nm.softmax_with_temperature(nm.concat(scores, axis=-1), model.config.temperature)
    ctx = nm.mul(nm.narrow(alpha, -1, 0, 1), h_list[0])
    for i in range(1, len(h_list)):
        ctx = nm.add(ctx, nm.mul(nm.narrow(alpha, -1, i, 1), h_list[i]))
    return alpha, ctx


class TestAttendOracle:
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("A", [1, 2, 5, 9])
    def test_matches_per_position_reference(self, corpus, A, B):
        model = AlignerModel(small_config(dtype="float64", seed=A + 10 * B),
                             corpus.wrl_vocab, corpus.ul_vocab)
        n2 = 2 * model.config.cell_size
        rng = np.random.default_rng(A + 10 * B)
        h_data = rng.standard_normal((B, A, n2))
        s_data = rng.standard_normal((B, model.config.cell_size))
        w_alpha, w_ctx = rng.standard_normal((B, A)), rng.standard_normal((B, n2))

        def run(attend):
            model.parameters()  # names the parameters for the gradient map
            h = nm.tensor(h_data, requires_grad=True, name="h")
            alpha, ctx = attend(h, nm.tensor(s_data))
            loss = nm.add(nm.sum_all(nm.mul(alpha, nm.tensor(w_alpha))),
                          nm.sum_all(nm.mul(ctx, nm.tensor(w_ctx))))
            grads = nm.backward(loss)
            names = ("attn.W1", "attn.W2", "attn.b2", "attn.v", "h")
            return [alpha.data, ctx.data] + [grads[k] for k in names]

        def per_position(h, s):
            h_list = [nm.reshape(nm.narrow(h, 1, i, 1), (B, n2)) for i in range(A)]
            return reference_attend(model, h_list, s)

        for got, want in zip(run(model.attend), run(per_position)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_graph_size_does_not_grow_with_source_length(self, model, monkeypatch):
        created = []
        init = nm.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            created.append(tensor)
            init(tensor, *args, **kwargs)

        counts = []
        for A in (2, 9):
            h, s0 = model.encode(np.full((2, A), 4))
            monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
            model.attend(h, s0)
            monkeypatch.undo()
            counts.append(len(created))
            created.clear()
        assert counts[0] == counts[1] > 0


def maxout_reference(x, pool, g):
    """Blockwise max and its gradient; a tie goes to the earliest block."""
    blocks = np.split(x, pool, axis=-1)
    out, winner = blocks[0], np.zeros(blocks[0].shape, dtype=int)
    for k in range(1, pool):
        better = blocks[k] > out
        out, winner = np.where(better, blocks[k], out), np.where(better, k, winner)
    grad = np.concatenate([np.where(winner == k, g, 0.0) for k in range(pool)], axis=-1)
    return out, grad


class TestMaxoutOracle:
    @pytest.mark.parametrize("pool", [2, 3])
    def test_matches_numpy_reference_with_ties(self, pool):
        rng = np.random.default_rng(pool)
        x = rng.standard_normal((2, 3, 4 * pool))
        x[0, 0, 4:8] = x[0, 0, 0:4]  # blocks 0 and 1 tie exactly
        x[1, 2, 5] = x[1, 2, 1] = 1e3  # a tie at the maximum
        if pool == 3:
            x[1, 1, 2::4] = 7.0  # a three-way tie
        g = rng.standard_normal((2, 3, 4))
        a = nm.tensor(x, requires_grad=True)
        out = nm.maxout(a, pool)
        nm.backward(nm.sum_all(nm.mul(out, nm.tensor(g))))
        want_out, want_grad = maxout_reference(x, pool, g)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(a.grad, want_grad)
        assert a.grad[1, 2, 1] == g[1, 2, 1] and a.grad[1, 2, 5] == 0.0

    def test_rejects_indivisible_width(self):
        with pytest.raises(nm.NumericsError):
            nm.maxout(nm.tensor(np.zeros((1, 5))), 2)


class TestBatching:
    def test_buckets_never_mix_lengths(self, corpus):
        rng = np.random.default_rng(0)
        batches = _bucket_batches(corpus.utterances, 3, rng, shuffle=True)
        covered = []
        for b in batches:
            lengths = {len(corpus.utterances[i].wrl_words) for i in b}
            assert len(lengths) == 1
            assert len(b) <= 3
            covered.extend(b)
        assert sorted(covered) == list(range(len(corpus)))

    def test_pack_appends_eos_and_masks(self, corpus, model):
        utts = [u for u in corpus if len(u.wrl_words) == 2][:2]
        if len(utts) < 2:
            pytest.skip("need two 2-word utterances")
        src, tgt, msk = _pack_batch(model, utts)
        assert src.shape[1] == 2
        for b, u in enumerate(utts):
            n = len(u.ul_symbols)
            assert tgt[b, n] == model.ul_vocab.eos_id
            assert msk[b, : n + 1].all()
            assert not msk[b, n + 1:].any()

    def test_batch_matches_unbatched_loss(self, corpus, model):
        utts = [u for u in corpus if len(u.wrl_words) == 2][:3]
        src, tgt, msk = _pack_batch(model, utts)
        _, per_utt, _ = model.forward_batch(src, tgt, msk, train=False)
        for b, u in enumerate(utts):
            s1, t1, m1 = _pack_batch(model, [u])
            _, single, _ = model.forward_batch(s1, t1, m1, train=False)
            assert float(single.data[0]) == pytest.approx(
                float(per_utt.data[b]), rel=1e-5)


class TestTraining:
    def test_loss_decreases_and_memorizes(self, corpus):
        cfg = small_config(cell_size=24, batch_size=8, max_epochs=120,
                           patience=120, seed=1)
        model, log = train(corpus, corpus, cfg)
        first = log.epochs[0]["dev_loss"]
        assert log.best_dev_loss < first
        _, ppl = evaluate_loss(model, corpus)
        assert ppl < 1.2

    def test_deterministic_given_seed(self, corpus):
        cfg = small_config(max_epochs=3, patience=3, seed=7)
        _, log_a = train(corpus, corpus, cfg)
        _, log_b = train(corpus, corpus, cfg)
        assert log_a.epochs == log_b.epochs

    @pytest.mark.parametrize("clip_norm", [1e-6, 5.0])
    def test_logs_gradient_norm_and_clip_rate(self, corpus, clip_norm):
        _, log = train(corpus, corpus, small_config(max_epochs=2, patience=2,
                                                    clip_norm=clip_norm))
        for entry in log.epochs:
            assert 0.0 < entry["grad_norm_mean"] < math.inf
            assert 0.0 <= entry["clip_frac"] <= 1.0
        if clip_norm < 1e-3:
            assert [e["clip_frac"] for e in log.epochs] == [1.0, 1.0]

    def test_empty_corpus_rejected(self, corpus):
        empty = ParallelCorpus((), corpus.ul_vocab, corpus.wrl_vocab)
        with pytest.raises(AlignerError):
            train(empty, empty, small_config())


@pytest.fixture(scope="module")
def trained(corpus):
    cfg = small_config(cell_size=16, batch_size=8, max_epochs=20,
                       patience=20, seed=2)
    model, _ = train(corpus, corpus, cfg)
    return model


class TestForcedDecode:
    def test_shapes_and_row_sums(self, trained, corpus):
        mats = forced_decode_corpus(trained, corpus)
        assert set(mats) == {u.id for u in corpus}
        for u in corpus:
            m = mats[u.id]
            assert m.weights.shape == (len(u.ul_symbols), len(u.wrl_words))
            np.testing.assert_allclose(m.weights.sum(axis=1), 1.0, atol=1e-6)

    def test_eos_row_included_when_configured(self, corpus):
        cfg = small_config(include_eos_row=True)
        model = AlignerModel(cfg, corpus.wrl_vocab, corpus.ul_vocab)
        mats = forced_decode_corpus(model, corpus)
        for u in corpus:
            assert mats[u.id].weights.shape[0] == len(u.ul_symbols) + 1

    def test_bit_identical_across_calls(self, trained, corpus):
        a = forced_decode_corpus(trained, corpus)
        b = forced_decode_corpus(trained, corpus)
        for utt_id in a:
            np.testing.assert_array_equal(a[utt_id].weights, b[utt_id].weights)

    def test_matrix_io_roundtrip(self, trained, corpus, tmp_path):
        mats = forced_decode_corpus(trained, corpus)
        path = str(tmp_path / "attn.txt")
        write_attention_matrices(path, mats)
        back = read_attention_matrices(path)
        assert set(back) == set(mats)
        for utt_id in mats:
            np.testing.assert_allclose(
                back[utt_id].weights, mats[utt_id].weights, rtol=1e-9)

    def test_checkpoint_preserves_decode(self, trained, corpus, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(path, trained)
        loaded = load_model(path, trained.config, corpus.wrl_vocab, corpus.ul_vocab)
        a = forced_decode_corpus(trained, corpus)
        b = forced_decode_corpus(loaded, corpus)
        for utt_id in a:
            np.testing.assert_array_equal(a[utt_id].weights, b[utt_id].weights)

    def test_checkpoint_cell_mismatch(self, trained, corpus, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(path, trained)
        with pytest.raises(AlignerError):
            load_model(path, small_config(cell_size=20), corpus.wrl_vocab,
                       corpus.ul_vocab)


class TestAttentionMatrixValidation:
    def test_bad_row_sum(self):
        m = AttentionMatrix("u", np.array([[0.5, 0.4]]))
        with pytest.raises(AlignerError):
            m.validate()

    def test_negative_weight(self):
        m = AttentionMatrix("u", np.array([[1.2, -0.2]]))
        with pytest.raises(AlignerError):
            m.validate()

    def test_valid_passes(self):
        AttentionMatrix("u", np.array([[0.25, 0.75]])).validate()
