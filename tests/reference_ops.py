"""A reverse-mode tape, its ops, graphs and slow paths that only the tests use.

The aligner runs its encoder and decoder on arrays with hand-derived
backward passes that write into flat gradient buffers, so the tape has
no caller in the package. `Tensor` is a tape node (value, gradient,
parents and the closure that passes its gradient on to them), and
`backward` runs the closures of everything a scalar loss depends on in
reverse topological order and returns the gradients of named nodes.
`tape_model` gives a model's parameters as named leaves on the same
arrays.

The ops are the building blocks of the reference graphs the array code
is checked against: `reference_encode` builds the bidirectional encoder
one position at a time on the tape, `tape_attend` and
`reference_decode_step` build the decoder one step at a time, one node
per primitive, and `reference_forward_batch` runs them over a whole
batch as the oracle for `AlignerModel.forward_batch`.

`reference_resample_site` is the dpseg site step that scores each
hypothesis by adding its chain to the counts and removing it again, the
oracle for the read-only `DpsegSampler._resample_site`.
`reference_write_attention_matrices` formats one value at a time, the
oracle for `write_attention_matrices`. `reference_forced_decode_corpus`
runs every utterance through the full teacher-forced `decode`, readout
included, in source-length batches of up to 64 in corpus order: the oracle
for `forced_decode_corpus`.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, Optional, Sequence

import numpy as np

from attnseg import numerics as nm
from attnseg.aligner import MAXOUT_POOL, AttentionMatrix, _bucket_batches, _pack_batch
from attnseg.baselines import UTT_EDGE, _break_after, _break_before
from attnseg.errors import NumericalError
from attnseg.numerics import check_finite


class Tensor:
    """Node in the computation tape: value, gradient buffer, parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple = (),
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ):
        self.data = np.asarray(data, dtype=np.result_type(np.asarray(data).dtype, np.float32))
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse pass from a scalar loss; returns gradients of named tensors.

    Every tensor reachable from the loss gets its .grad populated; the
    returned map covers tensors that carry a name.
    """
    if loss.data.size != 1:
        raise NumericalError("loss must be scalar, got shape %s" % (loss.data.shape,))
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    for node in topo:
        node.grad = None  # stale buffers from a previous backward call
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return {t.name: t.grad for t in topo if t.name is not None and t.grad is not None}


def tape_cell(params: nm.LSTMParams, prefix: str) -> nm.LSTMParams:
    """The cell with W, U and b as leaves named `prefix`.W and so on, on the same arrays."""
    return nm.LSTMParams(*(Tensor(getattr(params, k).data, requires_grad=True,
                                  name="%s.%s" % (prefix, k)) for k in "WUb"))


def tape_model(model):
    """A shallow copy of an AlignerModel whose parameters are tape leaves on the
    same arrays, each named as in `model.parameters()`."""
    tm = copy.copy(model)
    cells = ("enc_fwd", "enc_bwd", "dec")
    for cell in cells:
        setattr(tm, cell, tape_cell(getattr(model, cell), cell))
    for name, p in model.parameters().items():
        if name.split(".")[0] not in cells:  # src_embed, init.W -> init_W, ...
            setattr(tm, name.replace(".", "_"),
                    Tensor(p.data, requires_grad=True, name=name))
    return tm


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def scale(a: Tensor, k: float) -> Tensor:
    out_data = check_finite(a.data * k, "scale")

    def bwd(g):
        a.accumulate(g * k)

    return Tensor(out_data, parents=(a,), backward=bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise NumericalError(
            "matmul shape mismatch: %s @ %s" % (a.data.shape, b.data.shape)
        )
    out_data = check_finite(a.data @ b.data, "matmul")

    def bwd(g):
        a.accumulate(g @ b.data.T)
        # an N-d left operand acts as a stack of rows
        b.accumulate(a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ W + b as one node; x (..., in), W (in, out), b (out,)."""
    if x.data.shape[-1] != W.data.shape[0] or b.data.shape != W.data.shape[1:]:
        raise NumericalError(
            "linear shape mismatch: %s @ %s + %s" % (x.data.shape, W.data.shape, b.data.shape)
        )
    out_data = check_finite(x.data @ W.data + b.data, "linear")

    def bwd(g):
        x.accumulate(g @ W.data.T)
        W.accumulate(x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(x, W, b), backward=bwd)


def tanh(a: Tensor) -> Tensor:
    y = check_finite(np.tanh(a.data), "tanh")

    def bwd(g):
        a.accumulate(g * (1.0 - y * y))

    return Tensor(y, parents=(a,), backward=bwd)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out_data = check_finite(np.concatenate([p.data for p in parts], axis=axis), "concat")
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        for p, piece in zip(parts, np.split(g, splits, axis=axis)):
            p.accumulate(piece)

    return Tensor(out_data, parents=tuple(parts), backward=bwd)


def stack(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join equally shaped tensors along a new axis."""
    out_data = np.stack([p.data for p in parts], axis=axis)

    def bwd(g):
        for k, p in enumerate(parts):
            p.accumulate(np.take(g, k, axis=axis))

    return Tensor(out_data, parents=tuple(parts), backward=bwd)


def rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of a (V, n) table by integer ids."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise NumericalError(
            "row index out of range [0, %d)" % table.data.shape[0]
        )
    out_data = table.data[ids]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table.accumulate(full)

    return Tensor(out_data, parents=(table,), backward=bwd)


def sum_all(a: Tensor) -> Tensor:
    out_data = check_finite(np.asarray(a.data.sum()), "sum")

    def bwd(g):
        a.accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: scales by 1/(1-rate) at train time, identity at eval."""
    if not 0.0 <= rate < 1.0:
        raise NumericalError("dropout rate must be in [0, 1), got %r" % rate)
    if not train or rate == 0.0:
        return a
    keep = nm.dropout_mask(rng, a.data.shape, rate)
    out_data = nm.apply_dropout(a.data.copy(), keep, rate)

    def bwd(g):
        a.accumulate(nm.apply_dropout(np.array(g, dtype=a.data.dtype), keep, rate))

    return Tensor(out_data, parents=(a,), backward=bwd)


def lstm_step(params: nm.LSTMParams, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """Standard LSTM cell update; x (B, in), state (h, c) each (B, n).

    One fused op with a hand-derived backward that records two tape
    nodes: the new cell c, whose parents are x, h, c and the weights,
    and the new state h = o * tanh(c), whose only parent is that c.
    The h node runs first in the reverse pass; it adds its share to
    dL/dc and leaves dL/do for the c node to turn into pre-activation
    gradients. A loss that never reads h leaves dL/do at zero.
    """
    h, c = state
    W, U, b = params.W, params.U, params.b
    n = params.hidden_size
    if x.data.shape[-1] != W.data.shape[0]:
        raise NumericalError(
            "lstm_step input dim %d != W rows %d" % (x.data.shape[-1], W.data.shape[0])
        )
    if h.data.shape[-1] != n or c.data.shape[-1] != n:
        raise NumericalError("lstm_step state dim mismatch with cell size %d" % n)
    gates, c_data, tc, h_data = nm.lstm_step(params, x.data, h.data, c.data)
    f, o = gates[..., n: 2 * n], gates[..., 2 * n: 3 * n]
    d_o = []  # dL/do from the h node's backward, consumed by the c node's

    def c_bwd(dc):
        dpre = nm.lstm_cell_grad(gates, c.data, dc, d_o.pop() if d_o else 0.0)
        c.accumulate(dc * f)
        x.accumulate(dpre @ W.data.T)
        W.accumulate(x.data.reshape(-1, x.data.shape[-1]).T @ dpre.reshape(-1, 4 * n))
        h.accumulate(dpre @ U.data.T)
        U.accumulate(h.data.reshape(-1, n).T @ dpre.reshape(-1, 4 * n))
        b.accumulate(_unbroadcast(dpre, b.data.shape))

    c_new = Tensor(c_data, parents=(x, h, c, W, U, b), backward=c_bwd)

    def h_bwd(dh):
        d_o.append(dh * tc)
        c_new.accumulate(dh * o * (1.0 - tc * tc))

    return Tensor(h_data, parents=(c_new,), backward=h_bwd), c_new


def tensor(data, requires_grad: bool = False, name: Optional[str] = None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, name=name)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = check_finite(a.data + b.data, "add")

    def bwd(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = check_finite(a.data * b.data, "mul")

    def bwd(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def sigmoid(a: Tensor) -> Tensor:
    # stable logistic via tanh identity
    y = check_finite(0.5 * (np.tanh(0.5 * a.data) + 1.0), "sigmoid")

    def bwd(g):
        a.accumulate(g * y * (1.0 - y))

    return Tensor(y, parents=(a,), backward=bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = a.data.reshape(shape)

    def bwd(g):
        a.accumulate(g.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis` starting at `start`."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out_data = a.data[sl]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        a.accumulate(full)

    return Tensor(out_data, parents=(a,), backward=bwd)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = check_finite(a.data.sum(axis=axis, keepdims=keepdims), "sum_axis")

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(out_data, parents=(a,), backward=bwd)


def softmax_with_temperature(
    logits: Tensor, T: float, mask: Optional[np.ndarray] = None
) -> Tensor:
    """Row-stochastic softmax(logits / T) over the last axis.

    T > 0; stabilized by max-subtraction. `mask` (same shape, boolean)
    marks valid positions; masked entries get probability exactly 0 and
    receive no gradient.
    """
    if T <= 0:
        raise NumericalError("softmax temperature must be positive, got %r" % T)
    x = logits.data / T
    if mask is not None:
        if mask.shape != x.shape:
            raise NumericalError("mask shape %s != logits shape %s" % (mask.shape, x.shape))
        x = np.where(mask, x, -np.inf)
    m = np.max(x, axis=-1, keepdims=True)
    # all-masked rows would give -inf max; forbid them
    if not np.all(np.isfinite(m)):
        raise NumericalError("softmax row with no valid entries")
    ex = np.exp(x - m)
    s = ex / ex.sum(axis=-1, keepdims=True)
    check_finite(s, "softmax_with_temperature")

    def bwd(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        gl = (g - inner) * s / T
        logits.accumulate(gl)

    return Tensor(s, parents=(logits,), backward=bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-example negative log-likelihood of target ids under softmax(logits).

    logits (B, V), targets (B,) -> losses (B,).
    """
    targets = np.asarray(targets)
    x = logits.data
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[..., 0]
    nll = lse - x[np.arange(x.shape[0]), targets]
    check_finite(nll, "cross_entropy")

    def bwd(g):
        p = np.exp(x - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(x.shape[0]), targets] -= 1.0
        logits.accumulate(p * g[:, None])

    return Tensor(nll, parents=(logits,), backward=bwd)


def maxout(a: Tensor, pool_size: int = 2) -> Tensor:
    """Maxout over `pool_size` blocks of the last axis.

    Output feature j pools columns j, j + n/p, ..., one per block; a tie
    sends the gradient to the first block.
    """
    n = a.data.shape[-1]
    if n % pool_size != 0:
        raise NumericalError("maxout: %d features not divisible by pool %d" % (n, pool_size))
    blocks = a.data.reshape(a.data.shape[:-1] + (pool_size, n // pool_size))
    out_data = check_finite(blocks.max(axis=-2), "maxout")
    first = np.expand_dims(blocks.argmax(axis=-2), -2)  # argmax picks the first of a tie

    def bwd(g):
        full = np.zeros_like(blocks)
        np.put_along_axis(full, first, np.expand_dims(g, -2), axis=-2)
        a.accumulate(full.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


# ---------------------------------------------------------------------------
# The per-position encoder and per-step decoder graphs

def reference_encode(model, src_ids: np.ndarray, rng=None,
                     train: bool = False) -> tuple[Tensor, Tensor]:
    """Bidirectional encoding of (B, A) source ids.

    Returns the states h (B, A, 2n), forward then backward half, and
    the initial decoder state (nonlinear transform of the final
    forward/backward states).
    """
    src_ids = np.atleast_2d(np.asarray(src_ids))
    if src_ids.size == 0:
        raise NumericalError("empty source sequence")
    if src_ids.min() < 0 or src_ids.max() >= len(model.wrl_vocab):
        raise NumericalError("source id outside vocabulary range")
    B, A = src_ids.shape
    n = model.config.cell_size
    dt = model.config.np_dtype
    zeros = Tensor(np.zeros((B, n), dtype=dt))
    emb = []
    for i in range(A):
        e = rows(model.src_embed, src_ids[:, i])
        if train and model.config.dropout > 0:
            e = dropout(e, model.config.dropout, rng, train=True)
        emb.append(e)
    hf, cf = zeros, zeros
    fwd = []
    for i in range(A):
        hf, cf = lstm_step(model.enc_fwd, emb[i], (hf, cf))
        fwd.append(hf)
    hb, cb = zeros, zeros
    bwd = [None] * A
    for i in reversed(range(A)):
        hb, cb = lstm_step(model.enc_bwd, emb[i], (hb, cb))
        bwd[i] = hb
    h = concat([stack(fwd, axis=1), stack(bwd, axis=1)], axis=-1)
    final = concat([fwd[-1], bwd[0]], axis=-1)
    s0 = tanh(linear(final, model.init_W, model.init_b))
    return h, s0


def tape_attend(model, h: Tensor, s_prev: Tensor,
                h_proj: Optional[Tensor] = None) -> tuple[Tensor, Tensor]:
    """One attention read on the tape: scores v^T tanh(W1 h_i + W2 s + b2).

    h (B, A, 2n); h_proj = h W1 (B, A, n). Returns (alpha (B, A),
    context (B, 2n)).
    """
    B, A, _ = h.shape
    if h_proj is None:
        h_proj = matmul(h, model.attn_W1)
    sp = linear(s_prev, model.attn_W2, model.attn_b2)
    pre = tanh(add(h_proj, reshape(sp, (B, 1, -1))))
    e = reshape(matmul(pre, model.attn_v), (B, A))
    alpha = softmax_with_temperature(e, model.config.temperature)
    ctx = sum_axis(mul(reshape(alpha, (B, A, 1)), h), axis=1)
    return alpha, ctx


def reference_decode_step(model, s_prev: tuple[Tensor, Tensor], w_prev: np.ndarray,
                          w_cur: np.ndarray, h: Tensor, h_proj: Tensor, rng=None,
                          train: bool = False):
    """Teacher-forced decoder step on the tape; returns (logits, alpha, new_state).

    Dropout masks are drawn in the order e_prev, mix, e_cur.
    """
    cfg = model.config
    drop = train and cfg.dropout > 0
    s_h, s_c = s_prev
    alpha, ctx = tape_attend(model, h, s_h, h_proj)
    e_prev = rows(model.tgt_embed, w_prev)
    if drop:
        e_prev = dropout(e_prev, cfg.dropout, rng, train=True)
    mix = concat([s_h, e_prev, ctx], axis=-1)
    if drop:
        mix = dropout(mix, cfg.dropout, rng, train=True)
    hidden = maxout(linear(mix, model.out_W1, model.out_b1), MAXOUT_POOL)
    logits = linear(hidden, model.out_W2, model.out_b2)
    e_cur = rows(model.tgt_embed, w_cur)
    if drop:
        e_cur = dropout(e_cur, cfg.dropout, rng, train=True)
    s_new = lstm_step(model.dec, concat([e_cur, ctx], axis=-1), (s_h, s_c))
    return logits, alpha, s_new


def reference_forward_batch(model, src_ids, tgt_ids, tgt_mask, rng=None, train=False):
    """`AlignerModel.forward_batch` built from the per-position tape graphs.

    Returns, like it, (loss, per-utterance losses (B,), alphas (T, B, A));
    only the loss is a Tensor. `backward(loss)` names the gradient of
    each parameter the loss reaches as `model.parameters()` does.
    """
    model = tape_model(model)
    B, T = tgt_ids.shape
    dt = model.config.np_dtype
    h, s0 = reference_encode(model, src_ids, rng=rng, train=train)
    h_proj = matmul(h, model.attn_W1)
    state = (s0, Tensor(np.zeros((B, model.config.cell_size), dtype=dt)))
    prev = np.full(B, model.ul_vocab.bos_id, dtype=np.int64)
    step_losses, alphas = [], []
    for t in range(T):
        cur = tgt_ids[:, t]
        logits, alpha, state = reference_decode_step(model, state, prev, cur, h, h_proj,
                                                     rng=rng, train=train)
        step_losses.append(cross_entropy(logits, cur))
        alphas.append(alpha)
        prev = cur
    masked = mul(stack(step_losses, axis=0), Tensor(tgt_mask.T.astype(dt)))
    per_utt = sum_axis(masked, axis=0)
    return mean_all(per_utt), per_utt.data, np.stack([a.data for a in alphas])


# ---------------------------------------------------------------------------
# dpseg site step and attention-matrix writer, one value at a time


def _log_smoothed(n: int, alpha: float, log_prior: float, total: int) -> float:
    """log((n + alpha * prior) / (total + alpha)); finite however small the prior is."""
    num = math.log(n + alpha * math.exp(log_prior)) if n else math.log(alpha) + log_prior
    return num - math.log(total + alpha)


def _bump(counts: dict, key, k: int):
    n = counts.get(key, 0) + k
    if n:
        counts[key] = n
    else:
        del counts[key]


def _update(st, chain: list, k: int, score: bool = False) -> float:
    """Add (k = 1) or remove (k = -1) the chain [l_ctx, w1, ..., r_ctx] of word tuples.

    The counts of `st` are keyed by its word ids. With `score`, returns
    the chain's log probability: each word after l_ctx scored under the
    counts of the words before it (unigrams score the inner words only).
    """
    lp = 0.0
    last = len(chain) - 1
    for i in range(1, len(chain)):
        prev, word = chain[i - 1], chain[i]
        p, w = st.ids[prev], st.ids[word]
        inner = i < last
        if score and (inner or st.bigram_order):
            lw = _log_smoothed(st.unigram.get(w, 0), st.cfg.alpha0, st.log_base(word), st.total)
            if st.bigram_order:
                lw = _log_smoothed(st.bigram.get((p, w), 0), st.cfg.alpha1, lw,
                                   st.context.get(p, 0))
            lp += lw
        if st.bigram_order:
            _bump(st.bigram, (p, w), k)
            _bump(st.context, p, k)
        if inner:
            _bump(st.unigram, w, k)
            st.total += k
    return lp


def reference_resample_site(sampler, ui: int, pos: int, temperature: float) -> float:
    """`DpsegSampler._resample_site` by adding and removing each hypothesis chain."""
    st = sampler.state
    seq = sampler.sequences[ui]
    flags = sampler.flags[ui]
    left, right = _break_before(flags, pos), _break_after(flags, pos)
    w1, w2 = tuple(seq[left:pos]), tuple(seq[pos:right])
    l_ctx = tuple(seq[_break_before(flags, left):left]) if left > 0 else UTT_EDGE
    r_ctx = tuple(seq[right:_break_after(flags, right)]) if right < len(seq) else UTT_EDGE
    split = [l_ctx, w1, w2, r_ctx]
    merge = [l_ctx, w1 + w2, r_ctx]
    _update(st, split if flags[pos - 1] else merge, -1)
    lp_merge = _update(st, merge, 1, score=True)
    _update(st, merge, -1)
    lp_split = _update(st, split, 1, score=True)
    log_odds = (lp_merge - lp_split) / temperature
    boundary = sampler.rng.random() < 1.0 / (1.0 + math.exp(min(log_odds, 700.0)))
    if not boundary:
        _update(st, split, -1)
        _update(st, merge, 1)
    flags[pos - 1] = boundary
    return log_odds


def reference_write_attention_matrices(path: str, matrices: dict) -> None:
    """`write_attention_matrices` with one `%` operation per value."""
    with open(path, "w", encoding="utf-8") as f:
        for utt_id in sorted(matrices):
            m = matrices[utt_id]
            f.write("%s %d %d\n" % (utt_id, m.num_symbols, m.num_words))
            for row in m.weights:
                f.write(" ".join("%.10e" % v for v in row) + "\n")


def reference_forced_decode_corpus(model, corpus) -> dict:
    """`forced_decode_corpus` through `decode`, in batches of up to 64 in corpus order."""
    out = {}
    for batch in _bucket_batches(corpus.utterances, 64, None, shuffle=False):
        utts = [corpus.utterances[i] for i in batch]
        src, tgt, _ = _pack_batch(model, utts)
        h, s0 = model.encode(src)
        _, alphas = model.decode(h, h @ model.attn_W1.data, s0, tgt)
        for b, u in enumerate(utts):
            out[u.id] = AttentionMatrix(u.id, alphas[:len(u.ul_symbols), b].astype(np.float64))
    return out
