import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_ops as ref
from attnseg import numerics as nm
from attnseg.errors import NumericalError
from attnseg.numerics import (
    AdamState,
    adam_update,
    clip_global_norm,
    load_checkpoint,
    lstm_init,
    save_checkpoint,
    share_buffers,
)
from reference_ops import (
    Tensor,
    backward,
    cross_entropy,
    dropout,
    lstm_step,
    maxout,
    softmax_with_temperature,
    tape_cell,
    tensor,
)


class TestSoftmaxTemperature:
    def test_uniform_on_equal_logits(self):
        out = softmax_with_temperature(tensor([[1.0, 1.0, 1.0]]), T=7.3)
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-7)

    def test_t1_value(self):
        # e^2/(e^2+1) = 0.8808
        out = softmax_with_temperature(tensor([[2.0, 0.0]]), T=1.0)
        np.testing.assert_allclose(out.data, [[0.8808, 0.1192]], atol=1e-4)

    def test_t10_value(self):
        # sigma(0.2) = 0.5498
        out = softmax_with_temperature(tensor([[2.0, 0.0]]), T=10.0)
        np.testing.assert_allclose(out.data, [[0.5498, 0.4502]], atol=1e-4)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(NumericalError):
            softmax_with_temperature(tensor([1.0]), T=0.0)
        with pytest.raises(NumericalError):
            softmax_with_temperature(tensor([1.0]), T=-2.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10),
           st.floats(0.1, 100.0))
    def test_rows_sum_to_one(self, logits, T):
        out = softmax_with_temperature(tensor(np.array([logits], dtype=np.float64)), T=T)
        assert abs(out.data.sum() - 1.0) < 1e-6
        assert np.all(out.data >= 0)

    def test_masked_entries_get_zero(self):
        mask = np.array([[True, False, True]])
        out = softmax_with_temperature(tensor([[1.0, 99.0, 1.0]]), T=1.0, mask=mask)
        assert out.data[0, 1] == 0.0
        assert abs(out.data.sum() - 1.0) < 1e-6


def reference_lstm_step(W, U, b, x, h, c):
    """Scalar-by-scalar LSTM oracle, gate order i, f, o, g."""
    n = U.shape[0]
    pre = x @ W + h @ U + b
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    h_new = np.zeros_like(h)
    c_new = np.zeros_like(c)
    for r in range(h.shape[0]):
        for j in range(n):
            i_g = sig(pre[r, j])
            f_g = sig(pre[r, n + j])
            o_g = sig(pre[r, 2 * n + j])
            g_g = math.tanh(pre[r, 3 * n + j])
            c_new[r, j] = f_g * c[r, j] + i_g * g_g
            h_new[r, j] = o_g * math.tanh(c_new[r, j])
    return h_new, c_new


class TestLstmStep:
    def test_zero_weights_give_zero_output(self):
        n = 3
        params = nm.LSTMParams(
            W=tensor(np.zeros((2, 4 * n))), U=tensor(np.zeros((n, 4 * n))),
            b=tensor(np.zeros(4 * n)))
        h, c = lstm_step(params, tensor(np.ones((1, 2))),
                         (tensor(np.zeros((1, n))), tensor(np.zeros((1, n)))))
        np.testing.assert_allclose(h.data, 0.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        n, d = 4, 3
        params = tape_cell(lstm_init(rng, d, n, dtype=np.float64), "lstm")
        x = rng.standard_normal((2, d))
        h0 = rng.standard_normal((2, n))
        c0 = rng.standard_normal((2, n))
        h, c = lstm_step(params, tensor(x), (tensor(h0), tensor(c0)))
        h_ref, c_ref = reference_lstm_step(
            params.W.data, params.U.data, params.b.data, x, h0, c0)
        np.testing.assert_allclose(h.data, h_ref, atol=1e-12)
        np.testing.assert_allclose(c.data, c_ref, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        params = tape_cell(lstm_init(rng, 2, 3, dtype=np.float64), "lstm")
        x = tensor(np.ones((1, 2)))
        s = (tensor(np.zeros((1, 3))), tensor(np.zeros((1, 3))))
        a = lstm_step(params, x, s)[0].data
        b = lstm_step(params, x, s)[0].data
        assert np.array_equal(a, b)

    def test_shape_mismatch_named(self):
        rng = np.random.default_rng(0)
        params = tape_cell(lstm_init(rng, 2, 3), "lstm")
        with pytest.raises(NumericalError, match="W"):
            lstm_step(params, tensor(np.ones((1, 5))),
                      (tensor(np.zeros((1, 3))), tensor(np.zeros((1, 3)))))


def composed_lstm_step(params, x, state):
    """The LSTM cell built from tape primitives, one node per matmul, slice and gate."""
    h, c = state
    n = params.hidden_size
    pre = ref.add(ref.add(ref.matmul(x, params.W), ref.matmul(h, params.U)), params.b)
    i = ref.sigmoid(ref.narrow(pre, -1, 0, n))
    f = ref.sigmoid(ref.narrow(pre, -1, n, n))
    o = ref.sigmoid(ref.narrow(pre, -1, 2 * n, n))
    g = ref.tanh(ref.narrow(pre, -1, 3 * n, n))
    c_new = ref.add(ref.mul(f, c), ref.mul(i, g))
    h_new = ref.mul(o, ref.tanh(c_new))
    return h_new, c_new


def assert_close_rel(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestFusedLstmOracle:
    """The fused cell against the composed one: values and every gradient, float64."""

    @pytest.mark.parametrize("steps", [1, 6])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("reads", ["h+c", "h", "c"])
    def test_matches_composed_cell(self, B, n, steps, reads):
        d = 3
        rng = np.random.default_rng(100 * B + 10 * n + steps)
        params = lstm_init(rng, d, n, dtype=np.float64)
        params.b.data += rng.standard_normal(4 * n)
        xs = rng.standard_normal((steps, B, d))
        h0, c0 = rng.standard_normal((B, n)), rng.standard_normal((B, n))
        w_h = rng.standard_normal((steps, B, n))
        w_c = rng.standard_normal((B, n))

        def run(step):
            cell = tape_cell(params, "lstm")
            ps = cell.tensors("lstm")
            x = [tensor(xs[k], requires_grad=True, name="x%d" % k) for k in range(steps)]
            h = tensor(h0, requires_grad=True, name="h0")
            c = tensor(c0, requires_grad=True, name="c0")
            terms, values = [], []
            for k in range(steps):
                h, c = step(cell, x[k], (h, c))
                values += [h.data, c.data]
                if "h" in reads:
                    terms.append(ref.sum_all(ref.mul(h, tensor(w_h[k]))))
            if "c" in reads:
                terms.append(ref.sum_all(ref.mul(c, tensor(w_c))))
            loss = terms[0]
            for t in terms[1:]:
                loss = ref.add(loss, t)
            grads = backward(loss)
            names = sorted(ps) + ["x%d" % k for k in range(steps)] + ["h0", "c0"]
            return values + [grads[k] for k in names]

        for got, want in zip(run(lstm_step), run(composed_lstm_step)):
            assert_close_rel(got, want)

    def test_one_step_records_a_fixed_number_of_tensors(self, monkeypatch):
        created = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        counts = []
        for B, d, n in [(1, 2, 1), (5, 7, 6)]:
            rng = np.random.default_rng(B)
            params = tape_cell(lstm_init(rng, d, n, dtype=np.float64), "lstm")
            x = tensor(rng.standard_normal((B, d)))
            state = (tensor(np.zeros((B, n))), tensor(np.zeros((B, n))))
            del created[:]
            lstm_step(params, x, state)
            counts.append(len(created))
        assert counts[0] == counts[1] <= 3

    def test_float32_overflow_in_preactivations_raises(self):
        rng = np.random.default_rng(0)
        params = tape_cell(lstm_init(rng, 2, 3), "lstm")
        params.W.data[:] = 1.0  # 3e38 + 3e38 overflows float32
        x = tensor(np.full((1, 2), 3e38, dtype=np.float32))
        state = (tensor(np.zeros((1, 3), dtype=np.float32)),
                 tensor(np.zeros((1, 3), dtype=np.float32)))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            lstm_step(params, x, state)


class TestLinear:
    def test_matches_matmul_add(self):
        rng = np.random.default_rng(9)
        x_data, W_data, b_data = (rng.standard_normal(s) for s in [(3, 5), (5, 4), (4,)])
        w_out = rng.standard_normal((3, 4))

        def run(affine):
            ts = [tensor(a, requires_grad=True, name=k)
                  for k, a in zip("xWb", (x_data, W_data, b_data))]
            y = affine(*ts)
            grads = backward(ref.sum_all(ref.mul(y, tensor(w_out))))
            return [y.data] + [grads[k] for k in "xWb"]

        composed = lambda x, W, b: ref.add(ref.matmul(x, W), b)
        for got, want in zip(run(ref.linear), run(composed)):
            assert_close_rel(got, want)

    def test_shape_mismatch(self):
        with pytest.raises(NumericalError, match="linear"):
            ref.linear(tensor(np.ones((2, 3))), tensor(np.ones((3, 4))), tensor(np.ones(3)))


class TestBackward:
    """The reference tape's reverse pass."""

    def test_sum_gradient_is_ones(self):
        x = tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, name="x")
        grads = backward(ref.sum_all(x))
        np.testing.assert_array_equal(grads["x"], np.ones((2, 3)))

    def test_dot_product_gradients(self):
        x = tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, name="x")
        y = tensor(np.array([4.0, 5.0, 6.0]), requires_grad=True, name="y")
        grads = backward(ref.sum_all(ref.mul(x, y)))
        np.testing.assert_array_equal(grads["x"], y.data)
        np.testing.assert_array_equal(grads["y"], x.data)

    def test_non_scalar_loss_rejected(self):
        x = tensor(np.ones(3), requires_grad=True, name="x")
        with pytest.raises(NumericalError):
            backward(x)
        with pytest.raises(NumericalError):  # the package's loss closure runner
            nm.backward(nm.Tensor(np.ones(3), backward=lambda g: {}))

    def test_reused_node_accumulates(self):
        x = tensor(np.array([2.0]), requires_grad=True, name="x")
        loss = ref.sum_all(ref.add(ref.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
        grads = backward(loss)
        np.testing.assert_allclose(grads["x"], [5.0])

    def test_repeated_backward_not_accumulating(self):
        x = tensor(np.array([3.0]), requires_grad=True, name="x")
        g1 = backward(ref.sum_all(ref.mul(x, x)))["x"].copy()
        g2 = backward(ref.sum_all(ref.mul(x, x)))["x"]
        np.testing.assert_array_equal(g1, g2)


def finite_difference_check(build_loss, params, h=1e-6, tol=1e-4):
    """Compare autodiff grads of named float64 tensors to central differences."""
    grads = backward(build_loss())
    for name, t in params.items():
        g = grads.get(name, np.zeros_like(t.data))
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(build_loss().data)
            flat[i] = orig - h
            lm = float(build_loss().data)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            ga = g.ravel()[i]
            rel = abs(fd - ga) / max(abs(fd), abs(ga), 1e-4)
            assert rel < tol, "%s[%d]: fd=%g autodiff=%g" % (name, i, fd, ga)


class TestGradientChecks:
    """Every primitive op covered by a finite-difference comparison."""

    def params(self, seed, *shapes):
        rng = np.random.default_rng(seed)
        return {
            "p%d" % i: tensor(rng.standard_normal(s), requires_grad=True, name="p%d" % i)
            for i, s in enumerate(shapes)
        }

    def test_matmul_add_tanh(self):
        ps = self.params(0, (3, 4), (2, 3), (4,))
        build = lambda: ref.sum_all(ref.tanh(ref.add(ref.matmul(ps["p1"], ps["p0"]), ps["p2"])))
        finite_difference_check(build, ps)

    def test_sigmoid_mul_concat(self):
        ps = self.params(1, (2, 3), (2, 3))
        build = lambda: ref.sum_all(
            ref.concat([ref.sigmoid(ps["p0"]), ref.mul(ps["p0"], ps["p1"])], axis=-1))
        finite_difference_check(build, ps)

    def test_narrow_maximum_scale(self):
        ps = self.params(2, (2, 7))
        build = lambda: ref.sum_all(ref.scale(maxout(ref.narrow(ps["p0"], -1, 1, 6), 2), 1.7))
        finite_difference_check(build, ps)

    def test_nd_matmul_stack_reshape_sum_axis(self):
        ps = self.params(8, (2, 3), (2, 3), (3, 4))
        build = lambda: ref.sum_all(ref.tanh(ref.sum_axis(ref.reshape(
            ref.matmul(ref.stack([ps["p0"], ps["p1"]], axis=1), ps["p2"]), (2, 8)), axis=0)))
        finite_difference_check(build, ps)

    def test_softmax_temperature_grad(self):
        ps = self.params(3, (3, 5))
        w = tensor(np.arange(15.0).reshape(3, 5))
        build = lambda: ref.sum_all(
            ref.mul(softmax_with_temperature(ps["p0"], T=3.0), w))
        finite_difference_check(build, ps)

    def test_cross_entropy_grad(self):
        ps = self.params(4, (3, 6))
        targets = np.array([1, 0, 5])
        build = lambda: ref.sum_all(cross_entropy(ps["p0"], targets))
        finite_difference_check(build, ps)

    def test_rows_grad(self):
        ps = self.params(5, (4, 3))
        ids = np.array([0, 2, 2, 1])
        build = lambda: ref.sum_all(ref.tanh(ref.rows(ps["p0"], ids)))
        finite_difference_check(build, ps)

    def test_maxout_grad(self):
        ps = self.params(6, (2, 8))
        build = lambda: ref.sum_all(maxout(ps["p0"], 2))
        finite_difference_check(build, ps)

    def test_linear_grad(self):
        ps = self.params(9, (3, 4), (4, 2), (2,))
        build = lambda: ref.sum_all(ref.tanh(ref.linear(ps["p0"], ps["p1"], ps["p2"])))
        finite_difference_check(build, ps)

    @pytest.mark.parametrize("reads", ["c", "h"])
    def test_lstm_grad_one_output(self, reads):
        """The encoder reads only its last cell's h, the decoder's last c goes unread."""
        rng = np.random.default_rng(10)
        params = tape_cell(lstm_init(rng, 2, 3, dtype=np.float64), "lstm")
        ps = params.tensors("lstm")
        x = tensor(rng.standard_normal((2, 2)), requires_grad=True, name="x")
        h0 = tensor(rng.standard_normal((2, 3)), requires_grad=True, name="h0")
        c0 = tensor(rng.standard_normal((2, 3)), requires_grad=True, name="c0")
        ps.update(x=x, h0=h0, c0=c0)

        def build():
            h, c = lstm_step(params, x, lstm_step(params, x, (h0, c0)))
            return ref.sum_all(ref.tanh(c if reads == "c" else h))

        finite_difference_check(build, ps)

    def test_lstm_grad(self):
        rng = np.random.default_rng(7)
        params = tape_cell(lstm_init(rng, 2, 3, dtype=np.float64), "lstm")
        ps = params.tensors("lstm")
        x = tensor(rng.standard_normal((2, 2)))
        s = (tensor(rng.standard_normal((2, 3))), tensor(rng.standard_normal((2, 3))))

        def build():
            h, c = lstm_step(params, x, s)
            return ref.sum_all(ref.add(h, c))

        finite_difference_check(build, ps)


def textbook_adam_update(params, grads, state, lr=0.001, betas=(0.9, 0.999), eps=1e-8):
    """Adam as it was written before the update moved into flat buffers: one
    array per parameter and per moment."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)
    return state


def flat_case(values):
    """Tensors holding `values` as views of flat buffers: (tensors, flat, flat_grad)."""
    ts = {k: nm.Tensor(v.copy()) for k, v in values.items()}
    flat, flat_grad = share_buffers(ts)
    return ts, flat, flat_grad


class TestAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_bit_identical_to_textbook(self, dtype):
        rng = np.random.default_rng(11)
        shapes = {"W": (4, 6), "b": (6,)}
        start = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        grads = [{k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, s)).astype(dtype)
                  for k, s in shapes.items()} for _ in range(3)]
        params, flat, flat_grad = flat_case(start)
        state = AdamState()
        for g in grads:
            for k, p in params.items():
                p.grad[...] = g[k]
            adam_update(flat, flat_grad, state, lr=0.01)
        sizes = np.cumsum([0] + [params[k].data.size for k in shapes])
        got = [params[k].data for k in shapes] + [
            moment[a:b] for moment in (state.m, state.v) for a, b in zip(sizes, sizes[1:])]
        textbook = {k: tensor(a.copy()) for k, a in start.items()}
        state = types.SimpleNamespace(m={}, v={}, t=0)
        for g in grads:
            textbook_adam_update(textbook, g, state, lr=0.01)
        want = [textbook[k].data for k in shapes] + list(state.m.values()) + list(state.v.values())
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype == dtype
            assert g.tobytes() == w.tobytes()

    def test_updates_after_the_first_allocate_no_buffer(self):
        """The two temporaries of a step live in the state: a later update allocates
        less than one parameter buffer (only `isfinite`'s boolean mask)."""
        p, g = np.zeros(100_000), np.ones(100_000)
        state = AdamState()
        adam_update(p, g, state)
        buffers = [state.m, state.v, state.step, state.vhat]
        tracemalloc.start()
        try:
            adam_update(p, g, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.nbytes
        assert all(a is b for a, b in zip([state.m, state.v, state.step, state.vhat], buffers))

    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, 2.0])
        adam_update(p, np.zeros(2), AdamState())
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_first_step_closed_form(self):
        p = np.array([0.0])
        adam_update(p, np.array([1.0]), AdamState(), lr=0.001)
        # mhat = 1, vhat = 1 -> delta = -lr / (1 + eps)
        np.testing.assert_allclose(p, [-0.001], atol=1e-8)

    def test_constant_gradient_step_approaches_lr(self):
        p = np.array([0.0])
        state = AdamState()
        prev = 0.0
        for _ in range(500):
            prev = float(p[0])
            adam_update(p, np.array([2.5]), state, lr=0.001)
        assert abs((prev - float(p[0])) - 0.001) < 1e-5

    def test_nan_gradient_rejected(self):
        with pytest.raises(NumericalError):
            adam_update(np.array([0.0, 1.0]), np.array([0.0, np.nan]), AdamState())


class TestDropout:
    def test_eval_mode_identity(self):
        x = tensor(np.ones((4, 4)))
        out = dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert out is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = tensor(np.ones((2000,)))
        out = dropout(x, 0.5, rng, train=True)
        assert abs(out.data.mean() - 1.0) < 0.1
        assert set(np.unique(out.data)).issubset({0.0, 2.0})

    def test_bad_rate(self):
        with pytest.raises(NumericalError):
            dropout(tensor([1.0]), 1.0, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           data=st.data())
    def test_keep_mask_gives_the_float_mask_product_bit_for_bit(self, dtype, rate, data):
        info = np.finfo(dtype)
        special = [0.0, -0.0, float(info.smallest_subnormal), -float(info.smallest_subnormal),
                   float(info.smallest_normal) / 3, -float(info.smallest_normal) / 7,
                   -1.0, float(info.max), -float(info.max)]
        width = 32 if dtype == np.float32 else 64
        values = data.draw(st.lists(st.one_of(st.sampled_from(special),
                                              st.floats(width=width, allow_nan=False,
                                                        allow_infinity=False)),
                                    min_size=1, max_size=40))
        x = np.array(values, dtype=dtype)
        keep = data.draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x)))
        keep = np.array(keep)
        with np.errstate(over="ignore"):  # a large value times 1/(1-rate) may overflow
            want = x * (keep.astype(dtype) / (1.0 - rate))  # the float multipliers
            got = nm.apply_dropout(x.copy(), keep, rate)
        assert got.dtype == dtype
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.tobytes() == want.tobytes()


class TestFiniteness:
    def test_overflow_detected(self):
        big = tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            ref.scale(big, 10.0)


class TestClipGlobalNorm:
    def test_scales_to_max(self):
        ts, _, flat_grad = flat_case({"a": np.array([0.0]), "b": np.array([0.0])})
        flat_grad[:] = [3.0, 4.0]
        grads = {k: t.grad for k, t in ts.items()}
        norm = clip_global_norm(grads, flat_grad, 1.0)
        assert abs(norm - 5.0) < 1e-12
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert abs(total - 1.0) < 1e-12

    def test_no_clip_below_threshold(self):
        ts, _, flat_grad = flat_case({"a": np.array([0.0])})
        flat_grad[:] = 0.3
        clip_global_norm({"a": ts["a"].grad}, flat_grad, 5.0)
        np.testing.assert_array_equal(ts["a"].grad, [0.3])

    def test_norm_adds_views_in_the_given_order(self):
        """One float per view, summed in the map's order: the norm a separate array
        per parameter gives, which a single sum over the buffer does not."""
        rng = np.random.default_rng(12)
        values = {k: rng.standard_normal(s).astype(np.float32)
                  for k, s in (("W", (40, 33)), ("b", (33,)), ("v", (33, 1)))}
        ts, _, flat_grad = flat_case({k: np.zeros_like(v) for k, v in values.items()})
        for k, v in values.items():
            ts[k].grad[...] = v
        grads = {k: ts[k].grad for k in reversed(values)}
        want = math.sqrt(sum(float((v * v).sum()) for v in reversed(values.values())))
        assert clip_global_norm(grads, flat_grad, math.inf) == want


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        params = {"w": tensor(np.arange(6.0).reshape(2, 3)),
                  "b": tensor(np.zeros(3))}
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, params)
        values = load_checkpoint(path)
        assert set(values) == {"w", "b"}
        np.testing.assert_array_equal(values["w"], params["w"].data)
