"""The LSTM cell on arrays, a minimal loss tape, the optimizer and checkpoints.

The aligner computes its forward passes on numpy arrays and derives
their backward passes by hand (`aligner.AlignerModel.encode`, `decode`
and their `_backward` passes), sharing the LSTM cell forward and
gradient defined here. A training batch records one `Tensor`, its loss,
whose backward fills the parameters' gradient buffers; `backward`
returns them by name. Training arithmetic is float32 by default;
gradient checks run the same code in float64.

Any non-finite value produced by a forward pass raises NumericsError
immediately; values are never clamped silently.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Optional

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

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return "Tensor(shape=%s%s)" % (self.data.shape, ", name=%r" % self.name if self.name else "")


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout multipliers: 0 with probability `rate`, else 1/(1-rate)."""
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


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


def lstm_step(params: LSTMParams, x: np.ndarray, h: np.ndarray,
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
    to x, h and the weights (`lstm_step` has no tape node of its own).
    """
    n = gates.shape[-1] // 4
    i, f, o, g = (gates[..., k * n: (k + 1) * n] for k in range(4))
    dpre = np.empty_like(gates)
    dpre[..., :n] = dc * g * i * (1.0 - i)
    dpre[..., n: 2 * n] = dc * c * f * (1.0 - f)
    dpre[..., 2 * n: 3 * n] = d_o * o * (1.0 - o)
    dpre[..., 3 * n:] = dc * i * (1.0 - g * g)
    return dpre


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
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        # p -= lr * mhat / (sqrt(vhat) + eps) with mhat = m / (1 - b1^t) and
        # vhat = v / (1 - b2^t), in the textbook order but in two buffers
        step, vhat = np.empty_like(m), np.empty_like(v)
        m *= b1
        m += np.multiply(g, 1 - b1, out=step)
        v *= b2
        np.multiply(g, 1 - b2, out=vhat)
        vhat *= g
        v += vhat
        np.divide(m, 1 - b1 ** t, out=step)
        step *= lr
        np.divide(v, 1 - b2 ** t, out=vhat)
        np.sqrt(vhat, out=vhat)
        vhat += eps
        step /= vhat
        p.data -= step
    return state


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_VERSION = 1

# what np.load and reading its arrays raise on a file that is not the archive expected
ARCHIVE_ERRORS = (ValueError, TypeError, KeyError, IndexError, EOFError, zipfile.BadZipFile)


def save_checkpoint(path: str, params: dict[str, Tensor], meta: Optional[dict] = None) -> None:
    """Self-describing .npz container: parameter name -> array, plus metadata."""
    arrays = {"param/" + k: v.data for k, v in params.items()}
    arrays["__version__"] = np.asarray(CHECKPOINT_VERSION)
    for k, v in (meta or {}).items():
        arrays["meta/" + k] = np.asarray(v)
    with open(path, "wb") as f:  # at `path` exactly: np.savez appends .npz to a name
        np.savez(f, **arrays)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a save_checkpoint file; ValueError if it is not one of this version."""
    try:
        with np.load(path, allow_pickle=False) as z:
            version = int(z["__version__"])
            params = {k[len("param/"):]: z[k] for k in z.files if k.startswith("param/")}
            meta = {k[len("meta/"):]: z[k] for k in z.files if k.startswith("meta/")}
    except ARCHIVE_ERRORS as e:
        raise ValueError("%s: not a checkpoint (%s: %s)"
                         % (path, type(e).__name__, e)) from None
    if version != CHECKPOINT_VERSION:
        raise ValueError("%s: unsupported checkpoint version %d" % (path, version))
    return params, meta
