"""Dense tensors and reverse-mode automatic differentiation.

Minimal tape-based autodiff over numpy arrays: just the operations the
attentional encoder-decoder needs (affine maps, gate nonlinearities,
concatenation, stacking, reshaping, tempered softmax, embedding lookup,
cross-entropy, dropout, maxout). Training arithmetic is float32 by
default; gradient checks run the same code in float64.

Any non-finite value produced by a public operation raises
NumericsError immediately; values are never clamped silently.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class NumericsError(ArithmeticError):
    """Raised on non-finite values or inconsistent shapes."""


def _check_finite(x: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericsError("non-finite value produced by %s" % op)
    return x


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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return "Tensor(shape=%s%s)" % (self.data.shape, ", name=%r" % self.name if self.name else "")


def tensor(data, requires_grad: bool = False, name: Optional[str] = None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, name=name)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = _check_finite(a.data + b.data, "add")

    def bwd(g):
        a.accumulate(_unbroadcast(g, a.data.shape))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = _check_finite(a.data * b.data, "mul")

    def bwd(g):
        a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def scale(a: Tensor, k: float) -> Tensor:
    out_data = _check_finite(a.data * k, "scale")

    def bwd(g):
        a.accumulate(g * k)

    return Tensor(out_data, parents=(a,), backward=bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise NumericsError(
            "matmul shape mismatch: %s @ %s" % (a.data.shape, b.data.shape)
        )
    out_data = _check_finite(a.data @ b.data, "matmul")

    def bwd(g):
        a.accumulate(g @ b.data.T)
        # an N-d left operand acts as a stack of rows
        b.accumulate(a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return Tensor(out_data, parents=(a, b), backward=bwd)


def linear(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """Affine map x @ W + b as one node; x (..., in), W (in, out), b (out,)."""
    if x.data.shape[-1] != W.data.shape[0] or b.data.shape != W.data.shape[1:]:
        raise NumericsError(
            "linear shape mismatch: %s @ %s + %s" % (x.data.shape, W.data.shape, b.data.shape)
        )
    out_data = _check_finite(x.data @ W.data + b.data, "linear")

    def bwd(g):
        x.accumulate(g @ W.data.T)
        W.accumulate(x.data.reshape(-1, x.data.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(x, W, b), backward=bwd)


def tanh(a: Tensor) -> Tensor:
    y = _check_finite(np.tanh(a.data), "tanh")

    def bwd(g):
        a.accumulate(g * (1.0 - y * y))

    return Tensor(y, parents=(a,), backward=bwd)


def sigmoid(a: Tensor) -> Tensor:
    # stable logistic via tanh identity
    y = _check_finite(0.5 * (np.tanh(0.5 * a.data) + 1.0), "sigmoid")

    def bwd(g):
        a.accumulate(g * y * (1.0 - y))

    return Tensor(y, parents=(a,), backward=bwd)


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    out_data = _check_finite(np.concatenate([p.data for p in parts], axis=axis), "concat")
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


def rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding lookup: gather rows of a (V, n) table by integer ids."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise NumericsError(
            "row index out of range [0, %d)" % table.data.shape[0]
        )
    out_data = table.data[ids]

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table.accumulate(full)

    return Tensor(out_data, parents=(table,), backward=bwd)


def sum_all(a: Tensor) -> Tensor:
    out_data = _check_finite(np.asarray(a.data.sum()), "sum")

    def bwd(g):
        a.accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = _check_finite(a.data.sum(axis=axis, keepdims=keepdims), "sum_axis")

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor(out_data, parents=(a,), backward=bwd)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


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
    _check_finite(s, "softmax_with_temperature")

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
    _check_finite(nll, "cross_entropy")

    def bwd(g):
        p = np.exp(x - m)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(x.shape[0]), targets] -= 1.0
        logits.accumulate(p * g[:, None])

    return Tensor(nll, parents=(logits,), backward=bwd)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: scales by 1/(1-rate) at train time, identity at eval."""
    if not 0.0 <= rate < 1.0:
        raise NumericsError("dropout rate must be in [0, 1), got %r" % rate)
    if not train or rate == 0.0:
        return a
    keep = (rng.random(a.data.shape) >= rate).astype(a.data.dtype) / (1.0 - rate)
    out_data = a.data * keep

    def bwd(g):
        a.accumulate(g * keep)

    return Tensor(out_data, parents=(a,), backward=bwd)


def maxout(a: Tensor, pool_size: int = 2) -> Tensor:
    """Maxout over `pool_size` blocks of the last axis.

    Output feature j pools columns j, j + n/p, ..., one per block; a tie
    sends the gradient to the first block.
    """
    n = a.data.shape[-1]
    if n % pool_size != 0:
        raise NumericsError("maxout: %d features not divisible by pool %d" % (n, pool_size))
    blocks = a.data.reshape(a.data.shape[:-1] + (pool_size, n // pool_size))
    out_data = _check_finite(blocks.max(axis=-2), "maxout")
    first = np.expand_dims(blocks.argmax(axis=-2), -2)  # argmax picks the first of a tie

    def bwd(g):
        full = np.zeros_like(blocks)
        np.put_along_axis(full, first, np.expand_dims(g, -2), axis=-2)
        a.accumulate(full.reshape(a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Reverse pass from a scalar loss; returns gradients of named tensors.

    Every tensor reachable from the loss gets its .grad populated; the
    returned map covers tensors that carry a name.
    """
    if loss.data.size != 1:
        raise NumericsError("loss must be scalar, got shape %s" % (loss.data.shape,))
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


# ---------------------------------------------------------------------------
# LSTM cell

@dataclass
class LSTMParams:
    """One LSTM cell: W (in, 4n), U (n, 4n), b (4n,); gate order i, f, o, g."""

    W: Tensor
    U: Tensor
    b: Tensor

    @property
    def hidden_size(self) -> int:
        return self.U.data.shape[0]

    def tensors(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + ".W": self.W, prefix + ".U": self.U, prefix + ".b": self.b}


def lstm_step(params: LSTMParams, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
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
        raise NumericsError(
            "lstm_step input dim %d != W rows %d" % (x.data.shape[-1], W.data.shape[0])
        )
    if h.data.shape[-1] != n or c.data.shape[-1] != n:
        raise NumericsError("lstm_step state dim mismatch with cell size %d" % n)
    pre = _check_finite(x.data @ W.data + h.data @ U.data + b.data, "lstm_step")
    sig = 0.5 * (np.tanh(0.5 * pre[..., : 3 * n]) + 1.0)  # sigmoid()'s form, same values
    i, f, o = sig[..., :n], sig[..., n: 2 * n], sig[..., 2 * n:]
    g = np.tanh(pre[..., 3 * n:])
    c_data = _check_finite(f * c.data + i * g, "lstm_step")
    tc = np.tanh(c_data)
    h_data = _check_finite(o * tc, "lstm_step")
    d_o = []  # dL/do from the h node's backward, consumed by the c node's

    def c_bwd(dc):
        dpre = np.empty_like(pre)
        dpre[..., :n] = dc * g * i * (1.0 - i)
        dpre[..., n: 2 * n] = dc * c.data * f * (1.0 - f)
        dpre[..., 2 * n: 3 * n] = d_o.pop() * o * (1.0 - o) if d_o else 0.0
        dpre[..., 3 * n:] = dc * i * (1.0 - g * g)
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


# ---------------------------------------------------------------------------
# Parameter initialization and optimization

def uniform_init(rng: np.random.Generator, shape, scale_: float = 0.1, dtype=np.float32) -> np.ndarray:
    return rng.uniform(-scale_, scale_, size=shape).astype(dtype)


def orthogonal_init(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Orthogonal (rows or columns) init for square-ish recurrent matrices."""
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return q[: shape[0], : shape[1]].astype(dtype)


def lstm_init(rng: np.random.Generator, in_dim: int, n: int, dtype=np.float32,
              forget_bias: float = 1.0) -> LSTMParams:
    """Uniform input weights, orthogonal recurrent blocks, forget bias 1."""
    U = np.concatenate([orthogonal_init(rng, (n, n), dtype) for _ in range(4)], axis=1)
    b = np.zeros(4 * n, dtype=dtype)
    b[n: 2 * n] = forget_bias
    return LSTMParams(
        W=Tensor(uniform_init(rng, (in_dim, 4 * n), dtype=dtype), requires_grad=True),
        U=Tensor(U, requires_grad=True),
        b=Tensor(b, requires_grad=True),
    )


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        k = max_norm / total
        for g in grads.values():
            g *= k
    return total


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_update(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 0.001,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> AdamState:
    """In-place Adam step with bias correction. Missing grads are treated as zero."""
    b1, b2 = betas
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericsError("NaN/Inf gradient for parameter %r" % name)
        if g.shape != p.data.shape:
            raise NumericsError(
                "gradient shape %s != parameter shape %s for %r" % (g.shape, p.data.shape, name)
            )
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


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, params: dict[str, Tensor], meta: Optional[dict] = None) -> None:
    """Self-describing .npz container: parameter name -> array, plus metadata."""
    arrays = {"param/" + k: v.data for k, v in params.items()}
    arrays["__version__"] = np.asarray(CHECKPOINT_VERSION)
    for k, v in (meta or {}).items():
        arrays["meta/" + k] = np.asarray(v)
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a save_checkpoint file; ValueError if it is not one of this version."""
    try:
        with np.load(path, allow_pickle=False) as z:
            version = int(z["__version__"])
            params = {k[len("param/"):]: z[k] for k in z.files if k.startswith("param/")}
            meta = {k[len("meta/"):]: z[k] for k in z.files if k.startswith("meta/")}
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise ValueError("%s: not a checkpoint (%s: %s)"
                         % (path, type(e).__name__, e)) from None
    if version != CHECKPOINT_VERSION:
        raise ValueError("%s: unsupported checkpoint version %d" % (path, version))
    return params, meta
