"""Tape ops and graphs that only the tests use.

The aligner's decoder is one fused op with a hand-derived backward, so
these primitives have no caller in the package. They are the building
blocks of the reference graphs the fused code is checked against:
`tape_attend` and `reference_decode_step` build the decoder one step at
a time on the tape, one node per primitive, and `reference_forward_batch`
runs them over a whole batch as the oracle for
`AlignerModel.forward_batch`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from attnseg import numerics as nm
from attnseg.numerics import NumericsError, Tensor, _unbroadcast, check_finite


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
        raise NumericsError("softmax temperature must be positive, got %r" % T)
    x = logits.data / T
    if mask is not None:
        if mask.shape != x.shape:
            raise NumericsError("mask shape %s != logits shape %s" % (mask.shape, x.shape))
        x = np.where(mask, x, -np.inf)
    m = np.max(x, axis=-1, keepdims=True)
    # all-masked rows would give -inf max; forbid them
    if not np.all(np.isfinite(m)):
        raise NumericsError("softmax row with no valid entries")
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
        raise NumericsError("maxout: %d features not divisible by pool %d" % (n, pool_size))
    blocks = a.data.reshape(a.data.shape[:-1] + (pool_size, n // pool_size))
    out_data = check_finite(blocks.max(axis=-2), "maxout")
    first = np.expand_dims(blocks.argmax(axis=-2), -2)  # argmax picks the first of a tie

    def bwd(g):
        full = np.zeros_like(blocks)
        np.put_along_axis(full, first, np.expand_dims(g, -2), axis=-2)
        a.accumulate(full.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


# ---------------------------------------------------------------------------
# The per-step decoder graph

def tape_attend(model, h: Tensor, s_prev: Tensor,
                h_proj: Optional[Tensor] = None) -> tuple[Tensor, Tensor]:
    """One attention read on the tape: scores v^T tanh(W1 h_i + W2 s + b2).

    h (B, A, 2n); h_proj = h W1 (B, A, n). Returns (alpha (B, A),
    context (B, 2n)).
    """
    B, A, _ = h.shape
    if h_proj is None:
        h_proj = nm.matmul(h, model.attn_W1)
    sp = nm.linear(s_prev, model.attn_W2, model.attn_b2)
    pre = nm.tanh(add(h_proj, reshape(sp, (B, 1, -1))))
    e = reshape(nm.matmul(pre, model.attn_v), (B, A))
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
    e_prev = nm.rows(model.tgt_embed, w_prev)
    if drop:
        e_prev = nm.dropout(e_prev, cfg.dropout, rng, train=True)
    mix = nm.concat([s_h, e_prev, ctx], axis=-1)
    if drop:
        mix = nm.dropout(mix, cfg.dropout, rng, train=True)
    hidden = maxout(nm.linear(mix, model.out_W1, model.out_b1), cfg.maxout_pool)
    logits = nm.linear(hidden, model.out_W2, model.out_b2)
    e_cur = nm.rows(model.tgt_embed, w_cur)
    if drop:
        e_cur = nm.dropout(e_cur, cfg.dropout, rng, train=True)
    s_new = nm.lstm_step(model.dec, nm.concat([e_cur, ctx], axis=-1), (s_h, s_c))
    return logits, alpha, s_new


def reference_forward_batch(model, src_ids, tgt_ids, tgt_mask, rng=None, train=False):
    """`AlignerModel.forward_batch` built from the per-step tape graph.

    Returns (loss, per-utterance losses, list of T alpha tensors (B, A)).
    """
    B, T = tgt_ids.shape
    dt = model.config.np_dtype
    h, s0 = model.encode(src_ids, rng=rng, train=train)
    h_proj = nm.matmul(h, model.attn_W1)
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
    masked = mul(nm.stack(step_losses, axis=0), Tensor(tgt_mask.T.astype(dt)))
    per_utt = sum_axis(masked, axis=0)
    return nm.mean_all(per_utt), per_utt, alphas
