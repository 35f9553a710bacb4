"""Dense tensors and reverse-mode automatic differentiation.

Minimal tape-based autodiff over numpy arrays: just the operations the
aligner's encoder needs (affine maps, tanh, concatenation, stacking,
embedding lookup, dropout, the LSTM cell) and the mean of its loss. The
decoder is one op of its own, built in `aligner` from the numpy cell
forward and gradient defined here. Training arithmetic is float32 by
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


def check_finite(x: np.ndarray, op: str) -> np.ndarray:
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
        raise NumericsError(
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
        raise NumericsError(
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
    out_data = check_finite(np.asarray(a.data.sum()), "sum")

    def bwd(g):
        a.accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor(out_data, parents=(a,), backward=bwd)


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.data.size)


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability `rate`, else 1/(1-rate)."""
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout: scales by 1/(1-rate) at train time, identity at eval."""
    if not 0.0 <= rate < 1.0:
        raise NumericsError("dropout rate must be in [0, 1), got %r" % rate)
    if not train or rate == 0.0:
        return a
    keep = dropout_mask(rng, a.data.shape, rate, a.data.dtype)
    out_data = a.data * keep

    def bwd(g):
        a.accumulate(g * keep)

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


def lstm_cell(params: LSTMParams, x: np.ndarray, h: np.ndarray,
              c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The LSTM cell forward on arrays; x (B, in), h and c (B, n).

    Returns (gates, c_new, tanh(c_new), h_new), where gates (B, 4n)
    holds the activated i, f, o and g. A non-finite pre-activation,
    cell or state raises NumericsError: an overflow saturates the gates
    and leaves c_new and h_new finite, so the pre-activations are
    checked as well.
    """
    n = params.hidden_size
    pre = check_finite(x @ params.W.data + h @ params.U.data + params.b.data, "lstm_cell")
    gates = np.empty_like(pre)
    gates[..., : 3 * n] = 0.5 * (np.tanh(0.5 * pre[..., : 3 * n]) + 1.0)  # the logistic
    gates[..., 3 * n:] = np.tanh(pre[..., 3 * n:])
    i, f, o, g = (gates[..., k * n: (k + 1) * n] for k in range(4))
    c_new = check_finite(f * c + i * g, "lstm_cell")
    tc = np.tanh(c_new)
    return gates, c_new, tc, check_finite(o * tc, "lstm_cell")


def lstm_cell_grad(gates: np.ndarray, c: np.ndarray, dc: np.ndarray, d_o) -> np.ndarray:
    """dL/d(pre-activations) of one cell from its gates and input cell c.

    dc is dL/dc_new including the share that reaches c_new through
    h_new = o * tanh(c_new); d_o is dL/do (0 when h_new is not read).
    The caller passes dc * f on to c and the pre-activation gradient on
    to x, h and the weights.
    """
    n = gates.shape[-1] // 4
    i, f, o, g = (gates[..., k * n: (k + 1) * n] for k in range(4))
    dpre = np.empty_like(gates)
    dpre[..., :n] = dc * g * i * (1.0 - i)
    dpre[..., n: 2 * n] = dc * c * f * (1.0 - f)
    dpre[..., 2 * n: 3 * n] = d_o * o * (1.0 - o)
    dpre[..., 3 * n:] = dc * i * (1.0 - g * g)
    return dpre


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
    gates, c_data, tc, h_data = lstm_cell(params, x.data, h.data, c.data)
    f, o = gates[..., n: 2 * n], gates[..., 2 * n: 3 * n]
    d_o = []  # dL/do from the h node's backward, consumed by the c node's

    def c_bwd(dc):
        dpre = lstm_cell_grad(gates, c.data, dc, d_o.pop() if d_o else 0.0)
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
