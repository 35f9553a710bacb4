import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_ops as ref
from attnseg import aligner as al
from attnseg import numerics as nm
from attnseg.aligner import (
    AlignerConfig,
    AlignerModel,
    AttentionMatrix,
    _bucket_batches,
    _first_max,
    _pack_batch,
    evaluate_loss,
    forced_decode_corpus,
    load_model,
    read_attention_matrices,
    save_model,
    train,
    write_attention_matrices,
)
from attnseg.cli import SynthConfig, synth_corpus
from attnseg.corpus import (
    ParallelCorpus,
    ParallelUtterance,
    Vocabulary,
    build_vocabularies,
)
from attnseg.errors import ConfigError, DataError, NumericalError


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
    def test_embed_defaults_to_cell(self, corpus):
        m = AlignerModel(AlignerConfig(cell_size=48), corpus.wrl_vocab, corpus.ul_vocab)
        assert m.src_embed.data.shape[1] == m.tgt_embed.data.shape[1] == 48

    def test_rejects_bad_temperature(self):
        with pytest.raises(ConfigError):
            AlignerConfig(temperature=0.0)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            AlignerConfig(dropout=1.0)

    def test_dtype_is_float32_or_float64(self):
        assert AlignerConfig(dtype="float64").np_dtype == np.float64
        assert AlignerConfig().np_dtype == np.float32
        with pytest.raises(ConfigError):
            AlignerConfig(dtype="float16")


class TestShapes:
    def test_encode(self, model):
        src = np.array([[4, 5, 6], [5, 6, 4]])
        h, s0 = model.encode(src)
        assert isinstance(h, np.ndarray) and isinstance(s0, np.ndarray)
        assert h.shape == (2, 3, 24)
        assert s0.shape == (2, 12)

    def test_attend_rows_normalized(self, model):
        src = np.array([[4, 5, 6, 7]])
        h, s0 = model.encode(src)
        alpha, ctx, act = model.attend(h, s0, h @ model.attn_W1.data)
        assert alpha.shape == (1, 4)
        assert ctx.shape == (1, 24)
        assert act.shape == (1, 4, 12)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(alpha > 0)

    def test_large_temperature_near_uniform(self, corpus):
        cfg = small_config(temperature=1e4)
        m = AlignerModel(cfg, corpus.wrl_vocab, corpus.ul_vocab)
        h, s0 = m.encode(np.array([[4, 5, 6]]))
        alpha, _, _ = m.attend(h, s0, h @ m.attn_W1.data)
        np.testing.assert_allclose(alpha, 1 / 3, atol=1e-4)

    def test_out_of_range_source_id(self, model):
        with pytest.raises(NumericalError):
            model.encode(np.array([[9999]]))


def reference_attend(model, h_list, s_prev):
    """Per-position attention read: one score matmul and one context term per h_i."""
    h_proj = [ref.matmul(hi, model.attn_W1) for hi in h_list]
    sp = ref.add(ref.matmul(s_prev, model.attn_W2), model.attn_b2)
    scores = [ref.matmul(ref.tanh(ref.add(hp, sp)), model.attn_v) for hp in h_proj]
    alpha = ref.softmax_with_temperature(ref.concat(scores, axis=-1), model.config.temperature)
    ctx = ref.mul(ref.narrow(alpha, -1, 0, 1), h_list[0])
    for i in range(1, len(h_list)):
        ctx = ref.add(ctx, ref.mul(ref.narrow(alpha, -1, i, 1), h_list[i]))
    return alpha, ctx


def count_tensors(monkeypatch, fn, *args, **kwargs):
    """Call fn and return (its result, the number of Tensors it created)."""
    created = []
    init = nm.Tensor.__init__

    def counting_init(tensor, *a, **k):
        created.append(tensor)
        init(tensor, *a, **k)

    monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
    try:
        return fn(*args, **kwargs), len(created)
    finally:
        monkeypatch.undo()


class TestAttendOracle:
    """The tape attention of the reference decoder graph against a per-position one."""

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

        tm = ref.tape_model(model)

        def run(attend):
            h = ref.tensor(h_data, requires_grad=True, name="h")
            alpha, ctx = attend(h, ref.tensor(s_data))
            loss = ref.add(ref.sum_all(ref.mul(alpha, ref.tensor(w_alpha))),
                           ref.sum_all(ref.mul(ctx, ref.tensor(w_ctx))))
            grads = ref.backward(loss)
            names = ("attn.W1", "attn.W2", "attn.b2", "attn.v", "h")
            return [alpha.data, ctx.data] + [grads[k] for k in names]

        def per_position(h, s):
            h_list = [ref.reshape(ref.narrow(h, 1, i, 1), (B, n2)) for i in range(A)]
            return reference_attend(tm, h_list, s)

        def tape(h, s):
            return ref.tape_attend(tm, h, s)

        want = run(per_position)
        for got, w in zip(run(tape), want):
            assert got.shape == w.shape
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))
        alpha, ctx, _ = model.attend(h_data, s_data, h_data @ model.attn_W1.data)
        for got, w in zip((alpha, ctx), want):
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    def test_graph_size_does_not_grow_with_source_length(self, model, monkeypatch):
        counts = []
        for A in (2, 9):
            h, s0 = model.encode(np.full((2, A), 4))
            args = (h, s0, h @ model.attn_W1.data)
            counts.append(count_tensors(monkeypatch, model.attend, *args)[1])
        assert counts == [0, 0]  # the read is plain numpy inside the decoder op


def oracle_case(A, T, B, seed, perturb=0.0, cell_size=5):
    """A float64 model and a batch whose first row is padded.

    At the initial parameters the attention is nearly uniform, so the
    attention gradients are sums over A that nearly cancel; `perturb`
    adds Gaussian noise of that scale to every parameter.
    """
    wrl = Vocabulary(["w%d" % i for i in range(6)])
    ul = Vocabulary(["s%d" % i for i in range(7)])
    model = AlignerModel(AlignerConfig(cell_size=cell_size, dtype="float64", seed=seed,
                                       dropout=0.5), wrl, ul)
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p.data += perturb * rng.standard_normal(p.data.shape)
    src = rng.integers(4, len(wrl), size=(B, A))
    tgt = rng.integers(4, len(ul), size=(B, T))
    mask = np.ones((B, T), dtype=bool)
    if B > 1 and T > 1:
        tgt[0, T - 2:] = ul.pad_id
        mask[0, T - 2:] = False
    return model, src, tgt, mask


class TestDecoderOracle:
    """The array encoder and decoder against the per-position tape graphs, float64."""

    @pytest.mark.parametrize("start", ["initial", "perturbed", "initial_cell_16"])
    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("T", [1, 6])
    @pytest.mark.parametrize("A", [1, 2, 5])
    def test_matches_reference_decode_step(self, A, T, B, train, start):
        model, src, tgt, mask = oracle_case(
            A, T, B, seed=100 * A + 10 * T + B, perturb=0.3 if start == "perturbed" else 0.0,
            cell_size=16 if start == "initial_cell_16" else 5)
        params = model.parameters()

        def run(forward, backward):
            rng = np.random.default_rng(7)
            loss, per_utt, alphas = forward(src, tgt, mask, rng=rng, train=train)
            grads = backward(loss)
            # the tape has no entry for a parameter the loss does not reach (the
            # decoder cell when T=1); the array path reports a zero gradient for it
            return ([loss.data, per_utt, alphas]
                    + [grads.get(k, np.zeros_like(p.data)) for k, p in params.items()],
                    rng.random(), grads)

        got, got_after, got_grads = run(model.forward_batch, nm.backward)
        want, want_after, want_grads = run(
            lambda *a, **k: ref.reference_forward_batch(model, *a, **k), ref.backward)
        assert got_after == want_after  # the same dropout draws in the same order
        assert list(got_grads) == list(reversed(params))  # every parameter, last first
        assert sorted(want_grads.keys() & params.keys()) == sorted(
            k for k in params if T > 1 or not k.startswith("dec."))
        for name, g, w in zip(["loss", "per_utt", "alphas"] + list(params), got, want):
            assert g.shape == w.shape, name
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name

    def test_train_batch_graph_does_not_grow_with_target_length(self, monkeypatch):
        counts = []
        for A in (2, 9):
            for T in (2, 12):
                model, src, tgt, mask = oracle_case(A, T, 2, seed=1)

                def step():
                    loss, _, _ = model.forward_batch(src, tgt, mask,
                                                     rng=np.random.default_rng(0), train=True)
                    nm.backward(loss)

                counts.append(count_tensors(monkeypatch, step)[1])
        assert counts == [1, 1, 1, 1]  # the loss, whose parents are the parameters

    def test_forced_decode_creates_no_decoder_tensor(self, corpus, model, monkeypatch):
        mats, total = count_tensors(monkeypatch, forced_decode_corpus, model, corpus)
        assert len(mats) == len(corpus)
        assert total == 0  # neither the encoder nor the decoder records a tape

    def test_float32_overflow_in_decoder_cell_raises(self, corpus):
        model = AlignerModel(small_config(), corpus.wrl_vocab, corpus.ul_vocab)
        model.tgt_embed.data[:] = 3e38  # 3e38 + 3e38 overflows float32 in the cell's x @ W
        model.dec.W.data[:] = 1.0
        model.out_W1.data[:] = 0.0  # so the readout stays finite
        src, tgt, msk = _pack_batch(model, list(corpus)[:1])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="lstm_cell"):
            model.forward_batch(src, tgt, msk)

    def test_float32_overflow_in_encoder_cell_raises(self, corpus):
        model = AlignerModel(small_config(), corpus.wrl_vocab, corpus.ul_vocab)
        model.src_embed.data[:] = 3e38  # 3e38 + 3e38 overflows float32 in the cell's x @ W
        model.enc_fwd.W.data[:] = 1.0
        model.enc_bwd.W.data[:] = 1.0
        src, tgt, msk = _pack_batch(model, list(corpus)[:1])
        # saturated gates leave c and h finite, so only the pre-activation check can catch it
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="lstm_cell"):
            model.forward_batch(src, tgt, msk)


def assert_views_of_flat(model):
    for name, p in model.parameters().items():
        assert np.shares_memory(p.data, model.flat), name
        assert np.shares_memory(p.grad, model.flat_grad), name


class TestFlatBuffers:
    """Parameters and gradients stay views of the model's two flat buffers."""

    def test_set_parameters_and_load_model_write_into_the_views(self, corpus, model, tmp_path):
        m = AlignerModel(small_config(seed=3), corpus.wrl_vocab, corpus.ul_vocab)
        m.set_parameters({k: p.data + 1.0 for k, p in model.parameters().items()})
        assert_views_of_flat(m)
        assert m.flat.tobytes() == (model.flat + 1.0).tobytes()
        path = str(tmp_path / "model.npz")
        save_model(path, m)
        loaded = load_model(path, m.config, corpus.wrl_vocab, corpus.ul_vocab)
        assert_views_of_flat(loaded)
        assert loaded.flat.tobytes() == m.flat.tobytes()
        before = {k: p.data.copy() for k, p in loaded.parameters().items()}
        loaded.flat_grad[...] = 1.0
        nm.adam_update(loaded.flat, loaded.flat_grad, nm.AdamState(), lr=0.01)
        for k, p in loaded.parameters().items():
            assert np.all(p.data != before[k]), k  # each entry moved by about -lr

    def test_train_restores_the_best_epoch_into_the_views(self, corpus):
        model, log = train(corpus, corpus, small_config(max_epochs=3, patience=3, seed=5))
        assert_views_of_flat(model)
        assert evaluate_loss(model, corpus)[0] == log.best_dev_loss

    def test_backward_overwrites_the_gradients(self):
        model, src, tgt, mask = oracle_case(3, 4, 2, seed=4)
        loss, _, _ = model.forward_batch(src, tgt, mask, rng=np.random.default_rng(0),
                                         train=True)
        first = {k: g.copy() for k, g in nm.backward(loss).items()}
        second = nm.backward(loss)
        assert list(second) == list(first)
        for k, g in first.items():
            assert second[k].tobytes() == g.tobytes(), k

    def test_gradient_map_names_every_parameter_and_zeroes_an_unread_decoder_cell(self):
        model, src, tgt, mask = oracle_case(2, 3, 2, seed=5)
        loss, _, _ = model.forward_batch(src, tgt, mask)
        assert nm.backward(loss)["dec.W"].any()
        loss, _, _ = model.forward_batch(src, tgt[:, :1], mask[:, :1])  # T = 1
        grads = nm.backward(loss)
        assert len(grads) == 21 and grads.keys() == model.parameters().keys()
        for k, g in grads.items():
            assert g.any() != k.startswith("dec."), k


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
        a = ref.tensor(x, requires_grad=True)
        out = ref.maxout(a, pool)
        ref.backward(ref.sum_all(ref.mul(out, ref.tensor(g))))
        want_out, want_grad = maxout_reference(x, pool, g)
        np.testing.assert_array_equal(out.data, want_out)
        np.testing.assert_array_equal(a.grad, want_grad)
        assert a.grad[1, 2, 1] == g[1, 2, 1] and a.grad[1, 2, 5] == 0.0
        # the fused decoder's readout routes its gradient through this mask
        blocks = x.reshape(6, pool, 4)
        win = _first_max(blocks, blocks.max(axis=1))
        np.testing.assert_array_equal((win * g.reshape(6, 1, 4)).reshape(x.shape), want_grad)

    def test_rejects_indivisible_width(self):
        with pytest.raises(NumericalError):
            ref.maxout(ref.tensor(np.zeros((1, 5))), 2)


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
            assert float(single[0]) == pytest.approx(float(per_utt[b]), rel=1e-5)


class TestTraining:
    def test_loss_decreases_and_memorizes(self, corpus):
        cfg = small_config(cell_size=24, batch_size=8, max_epochs=120,
                           patience=120, seed=1)
        model, log = train(corpus, corpus, cfg)
        first = log.epochs[0]["dev_loss"]
        assert log.best_dev_loss < first
        _, ppl, _ = evaluate_loss(model, corpus)
        assert ppl < 1.2

    def test_deterministic_given_seed(self, corpus):
        cfg = small_config(max_epochs=3, patience=3, seed=7)
        _, log_a = train(corpus, corpus, cfg)
        _, log_b = train(corpus, corpus, cfg)

        def untimed(log):
            return [{k: v for k, v in e.items() if k != "epoch_s"} for e in log.epochs]

        assert untimed(log_a) == untimed(log_b)

    def test_logs_epoch_time_and_dev_entropy_and_prints_nothing(self, corpus, capsys):
        _, log = train(corpus, corpus, small_config(max_epochs=2, patience=2, dropout=0.3))
        assert capsys.readouterr().out == ""
        for entry in log.epochs:
            assert set(entry) == {"epoch", "train_loss", "dev_loss", "dev_perplexity",
                                  "grad_norm_mean", "clip_frac", "dev_attn_entropy",
                                  "epoch_s"}
            assert 0.0 <= entry["dev_attn_entropy"] <= 1.0
            assert entry["epoch_s"] > 0.0

    def test_dev_entropy_reads_uniform_and_one_word_rows(self, corpus):
        model = AlignerModel(small_config(temperature=1e6), corpus.wrl_vocab, corpus.ul_vocab)
        assert evaluate_loss(model, corpus)[2] == pytest.approx(1.0, abs=1e-6)
        one_word = ParallelCorpus(tuple(u for u in corpus if len(u.wrl_words) == 1),
                                  corpus.ul_vocab, corpus.wrl_vocab)
        assert len(one_word) and evaluate_loss(model, one_word)[2] is None

    @pytest.mark.parametrize("clip_norm", [1e-6, 5.0])
    def test_logs_gradient_norm_and_clip_rate(self, corpus, monkeypatch, clip_norm):
        monkeypatch.setattr(al, "CLIP_NORM", clip_norm)
        _, log = train(corpus, corpus, small_config(max_epochs=2, patience=2))
        for entry in log.epochs:
            assert 0.0 < entry["grad_norm_mean"] < math.inf
            assert 0.0 <= entry["clip_frac"] <= 1.0
        if clip_norm < 1e-3:
            assert [e["clip_frac"] for e in log.epochs] == [1.0, 1.0]

    def test_empty_corpus_rejected(self, corpus):
        empty = ParallelCorpus((), corpus.ul_vocab, corpus.wrl_vocab)
        with pytest.raises(DataError):  # a data error, not a numerical one
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
        with pytest.raises(ConfigError, match="shape mismatch"):
            load_model(path, small_config(cell_size=20), corpus.wrl_vocab,
                       corpus.ul_vocab)

    def test_checkpoint_holds_only_the_parameters(self, trained, tmp_path):
        """The config lives in the CLI's sidecar alone."""
        path = str(tmp_path / "model.npz")
        save_model(path, trained)
        with np.load(path) as z:
            names = set(z.files)
        assert names == {"__version__"} | {"param/" + k for k in trained.parameters()}


def bucketed_corpus(sizes: dict[int, int], seed: int = 5) -> ParallelCorpus:
    """The first sizes[A] utterances with A words of one synthetic corpus, for each A,
    in corpus order."""
    full = synth_corpus(SynthConfig(corpus_size=1500, sent_len_min=1, sent_len_max=6,
                                    seed=seed))
    kept = []
    for u in full:
        if sum(len(v.wrl_words) == len(u.wrl_words) for v in kept) < sizes.get(
                len(u.wrl_words), 0):
            kept.append(u)
    return ParallelCorpus(tuple(kept), full.ul_vocab, full.wrl_vocab)


def peaky_model(corpus, dtype, seed=3):
    """An untrained model whose weights are scaled up, so that its attention is not
    near uniform."""
    model = AlignerModel(small_config(cell_size=16, dtype=dtype, seed=seed),
                         corpus.wrl_vocab, corpus.ul_vocab)
    model.flat *= 4.0
    return model


# buckets of one, of 2-64 and of over 128 utterances, none of 64k + 1
BUCKETS = {1: 1, 2: 2, 3: 37, 4: 64, 5: 130, 6: 200}


class TestForcedDecodeBatches:
    """Length-sorted chunks that drop finished rows, against the full `decode` in
    64-row batches of corpus order."""

    @pytest.fixture(scope="class")
    def bucketed(self):
        return bucketed_corpus(BUCKETS)

    def test_chunks(self, bucketed):
        chunks = al._forced_decode_chunks(bucketed)
        assert sorted(i for c in chunks for i in c) == list(range(len(bucketed)))
        sizes: dict[int, list[int]] = {}
        for c in chunks:
            utts = [bucketed.utterances[i] for i in c]
            assert len({len(u.wrl_words) for u in utts}) == 1
            lengths = [len(u.ul_symbols) for u in utts]
            assert lengths == sorted(lengths, reverse=True)
            sizes.setdefault(len(utts[0].wrl_words), []).append(len(c))
        for a, n in BUCKETS.items():
            k = -(-n // al.FORCED_DECODE_ROWS)
            assert len(sizes[a]) == k and sum(sizes[a]) == n
            assert max(sizes[a]) <= al.FORCED_DECODE_ROWS
            assert max(sizes[a]) - min(sizes[a]) <= 1

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_full_decode_reference(self, bucketed, dtype):
        model = peaky_model(bucketed, dtype)
        fast = forced_decode_corpus(model, bucketed)
        slow = ref.reference_forced_decode_corpus(model, bucketed)
        assert list(fast) == [u.id for u in bucketed]  # corpus order
        for u in bucketed:
            np.testing.assert_array_equal(fast[u.id].weights, slow[u.id].weights, err_msg=u.id)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(keep=st.lists(st.booleans(), min_size=sum(BUCKETS.values()),
                         max_size=sum(BUCKETS.values())))
    def test_matrix_does_not_depend_on_neighbours(self, bucketed, keep):
        """Any sub-corpus that leaves an utterance at least one bucket mate decodes
        it to the same bits."""
        model = peaky_model(bucketed, "float32")
        full = forced_decode_corpus(model, bucketed)
        sub = ParallelCorpus(tuple(u for u, k in zip(bucketed, keep) if k),
                             bucketed.ul_vocab, bucketed.wrl_vocab)
        mates = {}
        for u in sub:
            mates[len(u.wrl_words)] = mates.get(len(u.wrl_words), 0) + 1
        utts = {u.id: u for u in sub}
        for u_id, m in forced_decode_corpus(model, sub).items():
            u = utts[u_id]
            if mates[len(u.wrl_words)] >= 2:
                np.testing.assert_array_equal(m.weights, full[u_id].weights, err_msg=u_id)

    @pytest.mark.parametrize("dtype, eps", [("float32", 1.2e-7), ("float64", 2.3e-16)])
    def test_utterance_alone_in_a_reference_batch_moves_in_the_last_bits(self, dtype, eps):
        """A bucket of 65: the 64-row reference decodes its last utterance alone, on
        numpy's one-row BLAS path; that matrix may differ from the reference within
        a few hundred units in the last place, and no other may differ at all."""
        corpus = bucketed_corpus({4: 65})
        model = peaky_model(corpus, dtype)
        fast = forced_decode_corpus(model, corpus)
        slow = ref.reference_forced_decode_corpus(model, corpus)
        lone = corpus.utterances[-1].id
        for u in corpus.utterances[:-1]:
            np.testing.assert_array_equal(fast[u.id].weights, slow[u.id].weights)
        np.testing.assert_allclose(fast[lone].weights, slow[lone].weights, rtol=200 * eps)

    def test_unknown_symbol_names_line_and_utterance(self, bucketed):
        model = peaky_model(bucketed, "float32")
        utts = list(bucketed.utterances[:3])
        utts[1] = ParallelUtterance(utts[1].id, ("never-seen",), utts[1].wrl_words)
        corpus = ParallelCorpus(tuple(utts), bucketed.ul_vocab, bucketed.wrl_vocab)
        with pytest.raises(DataError, match=r"^line 2, utterance %s: symbol 'never-seen' "
                                            % utts[1].id):
            forced_decode_corpus(model, corpus)


class TestMatrixWriter:
    """The row-format writer against the one-value-at-a-time reference, byte for byte."""

    def check(self, tmp_path, matrices):
        fast, slow = str(tmp_path / "fast.txt"), str(tmp_path / "slow.txt")
        write_attention_matrices(fast, matrices)
        ref.reference_write_attention_matrices(slow, matrices)
        with open(fast, "rb") as f, open(slow, "rb") as g:
            assert f.read() == g.read()

    def test_edge_values(self, tmp_path):
        tenth = [0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0), 0.1 + 1e-17, 0.09999999999]
        rows = [[0.0, 1.0, 1e-300], [5e-324, 2.2e-310, 1.0 - 2.2e-16], tenth[:3], tenth[2:]]
        matrices = {"edge": AttentionMatrix("edge", np.array(rows)),
                    "column": AttentionMatrix("column", np.array([[1.0], [0.0], [1e-300]])),
                    "single": AttentionMatrix("single", np.array([[0.1]]))}
        self.check(tmp_path, matrices)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_random_rows(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        matrices = {}
        for k in range(5):
            w = rng.dirichlet(np.full(k + 1, 0.3), size=7).astype(dtype)
            matrices["u%d" % k] = AttentionMatrix("u%d" % k, w)
        self.check(tmp_path, matrices)

    def test_decoded_matrices(self, trained, corpus, tmp_path):
        self.check(tmp_path, forced_decode_corpus(trained, corpus))


class TestMatrixReader:
    """The numpy row parser against Python's float(), value for value, and its errors."""

    def test_values_match_python_float(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [[0.0, 1.0, 1e-300], [5e-324, 2.2e-310, 1.0 - 2.2e-16],
                [0.1, np.nextafter(0.1, 0.0), 1.0 - 0.1 - np.nextafter(0.1, 0.0)]]
        matrices = {"edge": AttentionMatrix("edge", np.array(rows))}
        for k in range(4):
            w = rng.dirichlet(np.full(k + 1, 0.3), size=6)
            matrices["u%d" % k] = AttentionMatrix("u%d" % k, w)
        path = str(tmp_path / "attn.txt")
        write_attention_matrices(path, matrices)
        back = read_attention_matrices(path)
        with open(path) as f:
            lines = [l.split() for l in f]
        i = 0
        while i < len(lines):
            utt_id, T = lines[i][0], int(lines[i][1])
            want = np.array([[float(v) for v in row] for row in lines[i + 1: i + 1 + T]])
            assert back[utt_id].weights.tobytes() == want.tobytes()
            i += 1 + T

    @pytest.mark.parametrize("text, message", [
        ("u1 2 3\n0.2 0.3 0.5\n0.5 0.5\n", "{path}:3: 2 weights, expected 3"),
        ("u1 2 2\n0.5 0.5\n0.5 x\n", "{path}: u1 has a non-numeric weight"),
        ("u1 2 2\n0.5 0.5\n", "{path}: u1 is truncated, 1 of 2 rows"),
        ("u1 1 2\n0.5 0.5\nu1 1 2\n1.0 0.0\n", "{path}:3: utterance u1 appears twice"),
    ])
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "attn.txt"
        path.write_text(text)
        with pytest.raises(DataError) as e:
            read_attention_matrices(str(path))
        assert str(e.value) == message.format(path=path)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(
        st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
                min_size=1, max_size=4),
        st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda shape: st.lists(
            st.floats(0.0, 1.0), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda v: np.array(v).reshape(shape))),
        min_size=1, max_size=4))
    def test_random_matrices_read_back_as_written(self, tmp_path, draws):
        matrices = {}
        for utt_id, w in draws.items():
            w[w.sum(axis=1) == 0.0, 0] = 1.0
            matrices[utt_id] = AttentionMatrix(utt_id, w / w.sum(axis=1, keepdims=True))
        path = str(tmp_path / "attn.txt")
        write_attention_matrices(path, matrices)
        back = read_attention_matrices(path)
        with open(path, encoding="utf-8") as f:
            lines = [l.split() for l in f]
        assert len(lines) == sum(1 + m.num_symbols for m in matrices.values())
        for utt_id in sorted(matrices):
            T = matrices[utt_id].num_symbols
            head, rows = lines[0], lines[1: 1 + T]
            assert head == [utt_id, str(T), str(matrices[utt_id].num_words)]
            want = np.array([[float(v) for v in row] for row in rows])
            assert back[utt_id].weights.tobytes() == want.tobytes()
            del lines[: 1 + T]
        assert list(back) == sorted(matrices)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=60) | st.lists(
        st.sampled_from(["u1", "u2", "0", "1", "2", "3", "-1", "0.5", "1.0", "nan", "inf",
                         "1e999", "x", "99999999999999999999999", "\u0663", " ", "\n", "\r",
                         "\t", "\x1c", "\xa0"]) | st.text(max_size=3), max_size=16
    ).map(lambda parts: "".join(parts).encode("utf-8", "surrogatepass")))
    def test_any_bytes_read_or_raise_corpus_error(self, tmp_path, data):
        path = tmp_path / "attn.txt"
        path.write_bytes(data)
        try:
            matrices = read_attention_matrices(str(path))
        except DataError:
            return
        for m in matrices.values():
            m.validate()

    def test_peak_memory_stays_below_the_file_size(self, tmp_path):
        """The reader streams: its traced peak is about the size of the matrices it
        returns (≈0.55 of the text here), where a whole-file read peaks at ≈6 times it."""
        rng = np.random.default_rng(5)
        matrices = {}
        for k in range(2000):  # paper-shaped: 3-12 words, 2-7 symbols each
            A = int(rng.integers(3, 13))
            w = rng.dirichlet(np.full(A, 0.3), size=int(rng.integers(2 * A, 7 * A + 1)))
            matrices["utt%05d" % k] = AttentionMatrix("utt%05d" % k, w)
        path = str(tmp_path / "attn.txt")
        write_attention_matrices(path, matrices)
        del matrices
        tracemalloc.start()
        try:
            read_attention_matrices(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path)


class TestAttentionMatrixValidation:
    def test_bad_row_sum(self):
        m = AttentionMatrix("u", np.array([[0.5, 0.4]]))
        with pytest.raises(NumericalError):
            m.validate()

    def test_negative_weight(self):
        m = AttentionMatrix("u", np.array([[1.2, -0.2]]))
        with pytest.raises(NumericalError):
            m.validate()

    def test_valid_passes(self):
        AttentionMatrix("u", np.array([[0.25, 0.75]])).validate()
