"""The LSTM cell on arrays, flat parameter buffers, the optimizer and .npz archives.

The aligner computes its forward passes on numpy arrays and derives
their backward passes by hand (`aligner.AlignerModel.encode`, `decode`
and their `_backward` passes), sharing the LSTM cell forward and
gradient defined here. A model's parameters are views of one flat
array and their gradients views of a second array of the same layout
(`share_buffers`). A training batch makes one `Tensor`, its loss, whose
closure overwrites the gradient buffer; `backward` runs that closure
and returns the gradients by name. Clipping and Adam each make one
pass over the flat buffers. Training arithmetic is float32 by default;
gradient checks run the same code in float64.

Any non-finite value produced by a forward pass raises NumericalError
immediately; values are never clamped silently.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import numpy as np

from .errors import DataError, NumericalError

T = TypeVar("T")


def check_finite(x: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericalError("non-finite value produced by %s" % op)
    return x


class Tensor:
    """A value and its gradient: a parameter, or a loss whose closure computes the
    parameters' gradients and returns them by name."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, backward: Optional[Callable[[np.ndarray], dict]] = None):
        self.data = np.asarray(data, dtype=np.result_type(np.asarray(data).dtype, np.float32))
        self.grad: Optional[np.ndarray] = None
        self._backward = backward


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """Inverted-dropout keep-mask: False with probability `rate`."""
    return rng.random(shape) >= rate


def apply_dropout(x: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """Scale x in place by keep / (1 - rate) and return it.

    Bit for bit the product with the float multipliers, signs of zeros
    included: x * 1 is x, x * 0 is a zero of x's sign, and the scale is
    the same float of x's dtype.
    """
    x *= keep
    x *= np.asarray(1, x.dtype) / (1 - rate)
    return x


def backward(loss: Tensor) -> dict[str, np.ndarray]:
    """Run a scalar loss's closure; returns the parameters' gradients by name."""
    if loss.data.size != 1:
        raise NumericalError("loss must be scalar, got shape %s" % (loss.data.shape,))
    loss.grad = np.ones_like(loss.data)
    return loss._backward(loss.grad)


def share_buffers(params: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """Move the parameters into one flat array, in the dict's order, and give them
    zero gradients in a second flat array of the same layout.

    Each parameter's data and grad become views of the two arrays, which
    are returned. Whatever writes a parameter later must write into its
    view (`p.data[...] = a`), or the link is lost.
    """
    size = sum(p.data.size for p in params.values())
    dtype = np.result_type(*(p.data for p in params.values()))
    flat, flat_grad = np.empty(size, dtype=dtype), np.zeros(size, dtype=dtype)
    start = 0
    for p in params.values():
        stop = start + p.data.size
        flat[start:stop] = p.data.reshape(-1)
        p.data = flat[start:stop].reshape(p.data.shape)
        p.grad = flat_grad[start:stop].reshape(p.data.shape)
        start = stop
    return flat, flat_grad


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
    cell or state raises NumericalError: an overflow saturates the gates
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

INIT_SCALE = 0.1  # uniform weights are drawn from [-INIT_SCALE, INIT_SCALE]
FORGET_BIAS = 1.0  # an LSTM's forget-gate bias at initialization
ADAM_BETAS = (0.9, 0.999)  # Adam's decay rates of the first and second moments
ADAM_EPS = 1e-8  # added to Adam's root second moment


def uniform_init(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)


def orthogonal_init(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Orthogonal (rows or columns) init for square-ish recurrent matrices."""
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return q[: shape[0], : shape[1]].astype(dtype)


def lstm_init(rng: np.random.Generator, in_dim: int, n: int, dtype=np.float32) -> LSTMParams:
    """Uniform input weights, orthogonal recurrent blocks, forget bias 1."""
    U = np.concatenate([orthogonal_init(rng, (n, n), dtype) for _ in range(4)], axis=1)
    b = np.zeros(4 * n, dtype=dtype)
    b[n: 2 * n] = FORGET_BIAS
    return LSTMParams(W=Tensor(uniform_init(rng, (in_dim, 4 * n), dtype=dtype)),
                      U=Tensor(U), b=Tensor(b))


def clip_global_norm(grads: dict[str, np.ndarray], flat_grad: np.ndarray,
                     max_norm: float) -> float:
    """Scale the flat gradient buffer so its global L2 norm is at most max_norm.

    `grads` are the views of `flat_grad` by name. The norm adds up one
    squared sum per view, in the order of `grads`, so it is the norm that
    a separate array per parameter gives, to the bit.
    """
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        flat_grad *= max_norm / total
    return total


@dataclass
class AdamState:
    """The moments m and v, the step count t, and two scratch buffers of the
    parameters' size that each update overwrites."""

    m: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    t: int = 0
    step: Optional[np.ndarray] = None
    vhat: Optional[np.ndarray] = None


def adam_update(params: np.ndarray, grad: np.ndarray, state: AdamState,
                lr: float = 0.001) -> AdamState:
    """In-place Adam step with bias correction, on flat parameter and gradient buffers."""
    if not np.all(np.isfinite(grad)):
        raise NumericalError("NaN/Inf gradient")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.step, state.vhat = np.empty_like(params), np.empty_like(params)
    b1, b2 = ADAM_BETAS
    state.t += 1
    m, v, t, step, vhat = state.m, state.v, state.t, state.step, state.vhat
    # p -= lr * mhat / (sqrt(vhat) + eps) with mhat = m / (1 - b1^t) and
    # vhat = v / (1 - b2^t), in the textbook order but in two buffers
    m *= b1
    m += np.multiply(grad, 1 - b1, out=step)
    v *= b2
    np.multiply(grad, 1 - b2, out=vhat)
    vhat *= grad
    v += vhat
    np.divide(m, 1 - b1 ** t, out=step)
    step *= lr
    np.divide(v, 1 - b2 ** t, out=vhat)
    np.sqrt(vhat, out=vhat)
    vhat += ADAM_EPS
    step /= vhat
    params -= step
    return state


# ---------------------------------------------------------------------------
# Archives

# what np.load and reading its arrays raise on a file that is not the archive expected
ARCHIVE_ERRORS = (ValueError, TypeError, KeyError, IndexError, EOFError, zipfile.BadZipFile)


def save_archive(path: str, arrays: dict[str, np.ndarray]) -> None:
    """An uncompressed .npz of `arrays` by name: the package's one .npz writer."""
    with open(path, "wb") as f:  # at `path` exactly: np.savez appends .npz to a name
        np.savez(f, **arrays)


def load_archive(path: str, kind: str, build: Callable[[dict[str, np.ndarray]], T]) -> T:
    """`build` of the arrays of a `save_archive` file by name: the package's one .npz
    reader. DataError, naming the path as not `kind`, if the file is not an archive
    or `build` rejects its arrays: a name missing, or a DataError of its own."""
    try:
        with np.load(path, allow_pickle=False) as z:
            return build({name: z[name] for name in z.files})
    except ARCHIVE_ERRORS as e:
        raise DataError("%s: not %s (%s: %s)" % (path, kind, type(e).__name__, e)) from None
