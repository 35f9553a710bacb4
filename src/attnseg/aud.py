"""Acoustic unit discovery: MFCC features and a phone-loop HMM.

The phone loop chooses among unit sub-HMMs (left-to-right, diagonal
Gaussian mixture emissions) at every unit transition; unit weights
carry a symmetric Dirichlet prior whose MAP update drives unused units
to zero weight, so the model explains the data with a small unit set.
Training's E-step runs forward-backward on scaled probabilities over
whole groups of utterances at once, and falls back to the log domain for
an utterance that would underflow; everything else runs in the log domain.
"""

from __future__ import annotations

import functools
import io
import math
import time
import wave
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError
from .numerics import load_archive, save_archive


# ---------------------------------------------------------------------------
# MFCC front-end

FRAME_LEN_S = 0.025
FRAME_STEP_S = 0.010
NUM_FILTERS = 26
NUM_CEPS = 13
PREEMPHASIS = 0.97
DELTA_WINDOW = 2


@dataclass
class FeatureSequence:
    utt_id: str
    features: np.ndarray  # (F, D), one frame every FRAME_STEP_S

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError("%s: feature matrix has shape %s, expected (F >= 1, D)"
                            % (self.utt_id, self.features.shape))
        if not np.all(np.isfinite(self.features)):
            raise DataError("%s: non-finite feature values" % self.utt_id)


def read_wav(path: str, digest=None) -> tuple[np.ndarray, int]:
    """Load 16-bit mono PCM; returns (float samples in [-1, 1], sample rate).
    `digest`, a hashlib object, is updated with the bytes of the file as read."""
    with open(path, "rb") as f:
        data = f.read()
    if digest is not None:
        digest.update(data)
    try:
        with wave.open(io.BytesIO(data), "rb") as w:
            if w.getnchannels() != 1:
                raise DataError("%s: expected mono audio" % path)
            if w.getsampwidth() != 2:
                raise DataError("%s: expected 16-bit PCM" % path)
            rate, frames = w.getframerate(), w.getnframes()
            data = w.readframes(frames)
    except (wave.Error, EOFError) as e:  # EOFError: the header ends early
        raise DataError("%s: not a wav file (%s)" % (path, str(e) or "file ends early")) from None
    if len(data) != 2 * frames:
        raise DataError("%s: truncated wav file, %d of %d frames"
                        % (path, len(data) // 2, frames))
    data = np.frombuffer(data, dtype="<i2")
    return data.astype(np.float64) / 32768.0, rate


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(num_filters: int, nfft: int, rate: int) -> np.ndarray:
    """Triangular filters on the mel scale covering [0, rate/2]. Built once per
    (num_filters, nfft, rate) and returned read-only, because it is shared."""
    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), num_filters + 2))
    bins = np.floor((nfft + 1) * pts / rate).astype(int)
    fb = np.zeros((num_filters, nfft // 2 + 1))
    for i in range(num_filters):
        lo, mid, hi = bins[i], bins[i + 1], bins[i + 2]
        for k in range(lo, mid):
            if mid > lo:
                fb[i, k] = (k - lo) / (mid - lo)
        for k in range(mid, hi):
            if hi > mid:
                fb[i, k] = (hi - k) / (hi - mid)
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=None)
def dct_basis(num_ceps: int, n: int) -> np.ndarray:
    """The first `num_ceps` orthonormal DCT-II basis vectors as the columns of an
    (n, num_ceps) matrix, so `x @ dct_basis(k, n)` keeps k coefficients of each row
    of x. Built once per (num_ceps, n) and returned read-only, because it is shared."""
    i = np.arange(n)[:, None]
    k = np.arange(num_ceps)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
    basis[:, 0] = np.sqrt(1.0 / n)
    basis.flags.writeable = False
    return basis


def delta(feat: np.ndarray, window: int = 2) -> np.ndarray:
    """Regression deltas over +/-window frames with edge replication."""
    padded = np.pad(feat, ((window, window), (0, 0)), mode="edge")
    denom = 2 * sum(k * k for k in range(1, window + 1))
    F = feat.shape[0]
    out = np.zeros_like(feat)
    for k in range(1, window + 1):
        out += k * (padded[window + k: window + k + F] - padded[window - k: window - k + F])
    return out / denom


def extract_mfcc(signal: np.ndarray, rate: int, utt_id: str = "utt") -> FeatureSequence:
    """MFCC + deltas + delta-deltas (13 + 13 + 13 dims).

    Pre-emphasis, Hamming window, power spectrum, mel filterbank, log,
    DCT-II, per-utterance cepstral mean normalization, +/-2 frame
    regression deltas. Frame count = 1 + floor((samples - window)/step).
    """
    if rate < 8000:
        raise DataError("sample rate %d below 8 kHz" % rate)
    win = int(round(FRAME_LEN_S * rate))
    step = int(round(FRAME_STEP_S * rate))
    if len(signal) < win:
        raise DataError("audio shorter than one analysis window")
    n_frames = 1 + (len(signal) - win) // step
    emph = np.append(signal[0], signal[1:] - PREEMPHASIS * signal[:-1])
    nfft = 1
    while nfft < win:
        nfft *= 2
    window_fn = np.hamming(win)
    fb = mel_filterbank(NUM_FILTERS, nfft, rate)
    frames = np.lib.stride_tricks.sliding_window_view(emph, win)[::step][:n_frames] * window_fn
    spec = np.abs(np.fft.rfft(frames, nfft)) ** 2 / nfft
    energies = np.maximum(spec @ fb.T, 1e-30)
    ceps = np.log(energies) @ dct_basis(NUM_CEPS, NUM_FILTERS)
    ceps = ceps - ceps.mean(axis=0, keepdims=True)
    d1 = delta(ceps, DELTA_WINDOW)
    d2 = delta(d1, DELTA_WINDOW)
    feats = np.concatenate([ceps, d1, d2], axis=1)
    return FeatureSequence(utt_id, feats)


# ---------------------------------------------------------------------------
# Phone-loop HMM

VAR_FLOOR_FRAC = 1e-3  # EM keeps each variance above this share of the data's


@dataclass
class AudConfig:
    num_units: int = 100
    states_per_unit: int = 3
    mix_components: int = 2
    gamma: float = 0.5  # symmetric Dirichlet concentration over unit weights
    iterations: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.num_units < 2:
            raise ConfigError("need at least 2 units")
        if self.states_per_unit < 1 or self.mix_components < 1:
            raise ConfigError("states and mixture components must be >= 1")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.iterations < 1:
            raise ConfigError("need at least 1 iteration")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class AudModel:
    config: AudConfig
    log_pi: np.ndarray       # (U,) unit weights, may contain -inf for pruned units
    stay: np.ndarray         # (U, S) self-loop probabilities
    mix_weights: np.ndarray  # (U, S, M)
    means: np.ndarray        # (U, S, M, D)
    variances: np.ndarray    # (U, S, M, D) diagonal

    def __post_init__(self):
        if self.means.ndim != 4:
            raise DataError("means have shape %s, expected (U, S, M, D)" % (self.means.shape,))
        U, S, M, _ = self.means.shape
        for name, shape in (("log_pi", (U,)), ("stay", (U, S)), ("mix_weights", (U, S, M)),
                            ("variances", self.means.shape)):
            if getattr(self, name).shape != shape:
                raise DataError("%s has shape %s, expected %s"
                                % (name, getattr(self, name).shape, shape))
        if not np.all(np.isfinite(self.variances) & (self.variances > 0)):
            raise DataError("variances must be finite and positive")
        if not np.all(np.isfinite(self.means)):
            raise DataError("means must be finite")
        if not np.all((self.stay >= 0) & (self.stay <= 1)):
            raise DataError("stay probabilities must lie in [0, 1]")
        if not (np.all(self.mix_weights >= 0)
                and np.all(np.abs(self.mix_weights.sum(axis=-1) - 1.0) <= 1e-6)):
            raise DataError("mix_weights must be non-negative and sum to 1 in each state")
        if np.any(np.isnan(self.log_pi) | (self.log_pi == np.inf)):
            raise DataError("log_pi must not hold NaN or +inf")

    @property
    def num_units(self) -> int:
        return self.log_pi.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[-1]

    def active_units(self) -> np.ndarray:
        return np.where(np.isfinite(self.log_pi))[0]

    # -- composite-graph pieces -------------------------------------------

    def emission_loglik(self, feats: np.ndarray) -> np.ndarray:
        """(F, U*S) log p(x_t | state) under diagonal GMMs."""
        return _logsumexp_last(_weighted_component_loglik(self, feats)).reshape(
            feats.shape[0], -1)

    def component_log_post(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log responsibilities (F, U, S, M) of the mixture components within a
        state, and the state log densities (F, U, S) they normalise by."""
        ll = _weighted_component_loglik(self, feats)
        log_b = _logsumexp_last(ll)
        return ll - log_b[..., None], log_b

    def log_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dense (N, N) log transition matrix, initial and final log vectors.

        State (u, s) has index u*S + s. The last state of a unit exits
        with probability 1 - stay and then re-enters the loop through
        the unit weights; an utterance must end on such an exit. With
        one state per unit, a unit's self-loop and its exit-and-re-entry
        into itself share one arc. This is the reference definition of
        the model; the recursions below run on its structure instead.
        """
        U, S = self.stay.shape
        N = U * S
        A = np.full((N, N), -np.inf)
        with np.errstate(divide="ignore"):
            log_stay = np.log(self.stay)
            log_move = np.log1p(-self.stay)
        for u in range(U):
            if not np.isfinite(self.log_pi[u]):
                continue
            for s in range(S):
                i = u * S + s
                A[i, i] = log_stay[u, s]
                if s < S - 1:
                    A[i, i + 1] = log_move[u, s]
                else:
                    for u2 in range(U):
                        if np.isfinite(self.log_pi[u2]):
                            A[i, u2 * S] = np.logaddexp(
                                A[i, u2 * S], log_move[u, s] + self.log_pi[u2])
        init = np.full(N, -np.inf)
        final = np.full(N, -np.inf)
        for u in range(U):
            if np.isfinite(self.log_pi[u]):
                init[u * S] = self.log_pi[u]
                final[u * S + S - 1] = log_move[u, S - 1]
        return A, init, final


def init_model(feats_list: list[FeatureSequence], config: AudConfig) -> AudModel:
    """Seeded global k-means over frames; one centroid per unit."""
    rng = np.random.default_rng(config.seed)
    X = np.concatenate([f.features for f in feats_list], axis=0)
    D = X.shape[1]
    U, S, M = config.num_units, config.states_per_unit, config.mix_components
    k = min(U, X.shape[0])
    # a few Lloyd iterations are enough for initialization
    centroids, _ = _lloyd(X, X[rng.choice(X.shape[0], size=k, replace=False)], 5)
    if k < U:
        centroids = np.concatenate(
            [centroids, centroids[rng.integers(0, k, U - k)]], axis=0
        )
    gvar = np.maximum(X.var(axis=0), 1e-6)
    noise = rng.standard_normal((U, S, M, D))
    means = centroids[:, None, None, :] + 0.1 * np.sqrt(gvar) * noise
    variances = np.tile(gvar, (U, S, M, 1))
    return AudModel(
        config=config,
        log_pi=np.full(U, -math.log(U)),
        stay=np.full((U, S), 0.5),
        mix_weights=np.full((U, S, M), 1.0 / M),
        means=means,
        variances=variances,
    )


def _lloyd(X: np.ndarray, centroids: np.ndarray,
           iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """k-means from `centroids`, which it updates in place; returns them and
    the last assignment of the rows of X. A centroid that no row chooses stays.
    The squared distances leave out |x|^2, which is the same for every centroid."""
    D = X.shape[1]
    for _ in range(iterations):
        d2 = (centroids * centroids).sum(axis=1) - 2.0 * (X @ centroids.T)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=len(centroids))
        # one bincount over (centroid, dimension) cells: each centroid's rows are
        # added in row order, so the sums are those of a loop over the rows
        sums = np.bincount((assign[:, None] * D + np.arange(D)).ravel(), weights=X.ravel(),
                           minlength=centroids.size).reshape(centroids.shape)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
    return centroids, assign


def _gmm_consts(means: np.ndarray, variances: np.ndarray,
                mix_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal-GMM expansion of Kaldi's DiagGmm for K components, given
    as (..., D) means and variances and (...) weights: a (2D, K) matrix W that
    stacks mean/var over -1/(2 var), and (K,) per-component constants g, so
    that log weight + log N(x; mean, diag var) = [x, x*x] W + g. They cost
    O(K*D) and are rebuilt on every call, because the M-step rewrites the
    means and variances in place."""
    D = means.shape[-1]
    means = means.reshape(-1, D)
    variances = variances.reshape(-1, D)
    inv_vars = 1.0 / variances
    means_invvars = means * inv_vars
    with np.errstate(divide="ignore"):
        g = np.log(mix_weights).reshape(-1) - 0.5 * (
            (means * means_invvars).sum(axis=1) + np.log(variances).sum(axis=1)
            + D * math.log(2 * math.pi))
    return np.concatenate([means_invvars, -0.5 * inv_vars], axis=1).T, g


def _component_loglik(feats: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """(F, K) weighted component log densities, one matrix product over the frames."""
    W, g = consts
    ll = np.concatenate([feats, feats * feats], axis=1) @ W
    ll += g
    return ll


def _weighted_component_loglik(model: AudModel, feats: np.ndarray) -> np.ndarray:
    """(F, U, S, M) log mix_weight + log N(x_t; mean, diag variance)."""
    consts = _gmm_consts(model.means, model.variances, model.mix_weights)
    return _component_loglik(feats, consts).reshape(feats.shape[0], *model.means.shape[:3])


_LOG_RATIO_FLOOR = -700.0   # exp(-700) = 1e-304


def _exp_ratios(r: np.ndarray) -> np.ndarray:
    """exp(r) in place for log ratios r <= 0 to a largest value. Ratios at or
    below _LOG_RATIO_FLOOR are set to 0 without calling exp on them, because
    an exp that underflows is about 20 times slower."""
    keep = r > _LOG_RATIO_FLOOR
    np.maximum(r, _LOG_RATIO_FLOOR, out=r)
    np.exp(r, out=r)
    r *= keep
    return r


def _logsumexp_last(a: np.ndarray) -> np.ndarray:
    """logsumexp over the short last axis (the mixture components) in
    whole-array passes, one per component, because numpy's reductions along a
    short last axis are slow and scipy adds its own per-call overhead. A slice
    that is all -inf gives -inf. The terms that `_exp_ratios` drops cannot move
    the sum, which holds the largest term, exp(0) = 1."""
    m = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j], out=m)
    m[m == -np.inf] = 0.0
    s = np.zeros_like(m)
    r = np.empty_like(m)
    for j in range(a.shape[-1]):
        s += _exp_ratios(np.subtract(a[..., j], m, out=r))
    with np.errstate(divide="ignore"):
        return np.log(s) + m


# The phone loop's arcs, which `log_transitions` spells out as a dense matrix:
# state (u, s) stays with log_stay[u, s] or advances to (u, s + 1) with
# log_move[u, s]; a unit's last state exits with log_move[u, S - 1] into one
# shared node, which enters unit u's first state with log_pi[u]. So each
# frame of a recursion costs O(U * S).

def _arcs(model: AudModel) -> tuple[np.ndarray, np.ndarray]:
    """(U, S) log stay and log move probabilities. A pruned unit keeps its
    arcs, but log_pi = -inf keeps every path out of it."""
    with np.errstate(divide="ignore"):
        return np.log(model.stay), np.log1p(-model.stay)


def _self_arc(model: AudModel, log_stay: np.ndarray, log_move: np.ndarray) -> np.ndarray:
    """(U, S) log weight of the arc (u, s) -> (u, s); with one state per
    unit it also carries the unit's exit and re-entry into itself."""
    if log_stay.shape[1] > 1:
        return log_stay
    return np.logaddexp(log_stay, (log_move[:, 0] + model.log_pi)[:, None])


def _lse(v: np.ndarray) -> float:
    """logsumexp of a 1-D array, without scipy's per-call overhead."""
    m = v.max()
    if m == -np.inf:
        return m
    return m + math.log(np.exp(v - m).sum())


def _forward(log_b: np.ndarray, log_pi: np.ndarray, log_stay: np.ndarray,
             log_move: np.ndarray) -> np.ndarray:
    """(F, U, S) forward log probabilities given (F, U, S) state log densities."""
    alpha = np.empty_like(log_b)
    alpha[0] = -np.inf
    alpha[0, :, 0] = log_pi + log_b[0, :, 0]
    into = np.empty(log_b.shape[1:])
    for t in range(1, log_b.shape[0]):
        prev = alpha[t - 1]
        into[:, 0] = _lse(prev[:, -1] + log_move[:, -1]) + log_pi
        into[:, 1:] = prev[:, :-1] + log_move[:, :-1]
        np.logaddexp(prev + log_stay, into, out=alpha[t])
        alpha[t] += log_b[t]
    return alpha


def _backward(log_b: np.ndarray, log_pi: np.ndarray, log_stay: np.ndarray,
              log_move: np.ndarray) -> np.ndarray:
    """(F, U, S) backward log probabilities; an utterance ends on an exit."""
    beta = np.empty_like(log_b)
    beta[-1] = -np.inf
    beta[-1, :, -1] = log_move[:, -1]
    out = np.empty(log_b.shape[1:])
    for t in range(log_b.shape[0] - 2, -1, -1):
        nxt = log_b[t + 1] + beta[t + 1]
        out[:, -1] = log_move[:, -1] + _lse(nxt[:, 0] + log_pi)
        out[:, :-1] = nxt[:, 1:] + log_move[:, :-1]
        np.logaddexp(nxt + log_stay, out, out=beta[t])
    return beta


def _final_loglik(alpha: np.ndarray, log_move: np.ndarray) -> float:
    return _lse(alpha[-1, :, -1] + log_move[:, -1])


def forward_loglik(model: AudModel, feats: np.ndarray) -> float:
    """Log likelihood of a feature matrix under the phone loop (forward pass)."""
    U, S = model.stay.shape
    log_b = model.emission_loglik(feats).reshape(-1, U, S)
    log_stay, log_move = _arcs(model)
    return float(_final_loglik(_forward(log_b, model.log_pi, log_stay, log_move), log_move))


@dataclass
class _Stats:
    unit_entries: np.ndarray
    stay_num: np.ndarray
    stay_den: np.ndarray
    comp_occ: np.ndarray
    comp_sum: np.ndarray
    comp_sqsum: np.ndarray
    loglik: float = 0.0

    @classmethod
    def zeros(cls, U: int, S: int, M: int, D: int) -> "_Stats":
        return cls(np.zeros(U), np.zeros((U, S)), np.zeros((U, S)), np.zeros((U, S, M)),
                   np.zeros((U, S, M, D)), np.zeros((U, S, M, D)))


def _estep_utterance(model: AudModel, feats: np.ndarray, stats: _Stats) -> None:
    log_resp, log_b = model.component_log_post(feats)  # (F,U,S,M), (F,U,S)
    log_stay, log_move = _arcs(model)
    alpha = _forward(log_b, model.log_pi, log_stay, log_move)
    beta = _backward(log_b, model.log_pi, log_stay, log_move)
    ll = float(_final_loglik(alpha, log_move))
    if not math.isfinite(ll):
        raise DataError("non-finite likelihood during E-step")
    stats.loglik += ll
    gamma = np.exp(alpha + beta - ll)  # (F, U, S)
    # unit entries: the occupancy of each unit's first state summed over
    # frames, i.e. the initial occupancy, the re-entries after exits and
    # also the first state's own self-loops
    stats.unit_entries += gamma[:, :, 0].sum(axis=0)
    # expected self-loops over expected occupancy: every occupied frame
    # leaves its state by a stay, an advance, an exit or the final exit
    stats.stay_num += np.exp(
        alpha[:-1] + _self_arc(model, log_stay, log_move) + log_b[1:] + beta[1:] - ll
    ).sum(axis=0)
    stats.stay_den += gamma.sum(axis=0)
    # mixture-component stats, one (U*S*M, F) x (F, D) product each
    resp = gamma[..., None] * np.exp(log_resp)
    stats.comp_occ += resp.sum(axis=0)
    resp = resp.reshape(feats.shape[0], -1).T
    stats.comp_sum += (resp @ feats).reshape(stats.comp_sum.shape)
    stats.comp_sqsum += (resp @ (feats * feats)).reshape(stats.comp_sqsum.shape)


# The whole-corpus E-step runs forward-backward in the scaled probability
# domain (Rabiner 1989): each frame's forward vector is normalised by its sum
# c_t, and the backward pass reuses the same c_t, so a multiply and an add
# replace every log-add. Utterances are sorted by length and left-aligned in
# (frame, utterance, state, unit) arrays, so one numpy call per frame covers a
# group of them (`_length_groups`); a group's two such arrays hold at most
# _STATE_FRAME_BUDGET values each, unless one utterance alone is longer. Each
# utterance's scaled component densities are computed once and kept for its
# counts. An utterance whose normalisers underflow (a c_t or its final exit
# mass at or below _SCALE_FLOOR) or whose counts come out non-finite takes its
# counts from the log-domain `_estep_utterance` instead.
_STATE_FRAME_BUDGET = 1 << 17
_SCALE_FLOOR = 1e-250


def _length_groups(lengths: list[int], states: int) -> list[list[int]]:
    """The indices of `lengths` by non-increasing length, cut into groups whose
    (longest length, group size, states) arrays hold at most _STATE_FRAME_BUDGET
    values, unless one item alone is longer. The longest item left sets how
    many fit, and the groups it sets come out even."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    groups = []
    while order:
        fit = max(1, _STATE_FRAME_BUDGET // (lengths[order[0]] * states))
        G = -(-len(order) // -(-len(order) // fit))
        groups.append(order[:G])
        order = order[G:]
    return groups


def _estep_corpus(model: AudModel, feats_list: list[np.ndarray], stats: _Stats) -> None:
    """Add the E-step counts and log likelihood of every feature matrix to `stats`."""
    U, S, M, _ = model.means.shape
    # density constants with columns in (m, s, u) order: a density matrix then
    # reshapes to (F, M, S, U), and every state slice keeps its units contiguous
    consts = _gmm_consts(model.means.transpose(2, 1, 0, 3), model.variances.transpose(2, 1, 0, 3),
                         model.mix_weights.T)
    with np.errstate(divide="ignore"):
        pi = np.exp(model.log_pi)
    stay = model.stay.T.copy()
    fallback = []
    for group in _length_groups([len(x) for x in feats_list], S * U):
        fallback += _estep_group([feats_list[i] for i in group], consts,
                                 pi, stay, 1.0 - stay, stats)
    for feats in fallback:
        _estep_utterance(model, feats, stats)


def _scaled_densities(feats: np.ndarray, consts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(F, K) component densities divided by each frame's largest one, exp(ll - m_t),
    and the (F,) log maxima m_t. The ratios that `_exp_ratios` sets to 0 are too
    small to move any count of an utterance that passes the _SCALE_FLOOR test."""
    e = _component_loglik(feats, consts)
    m = e.max(axis=1)
    e -= m[:, None]
    return _exp_ratios(e), m


def _estep_group(group: list[np.ndarray], consts: tuple, pi: np.ndarray, stay: np.ndarray,
                 move: np.ndarray, stats: _Stats) -> list[np.ndarray]:
    """Scaled forward-backward over feature matrices of non-increasing length,
    given the (U,) unit weights and (S, U) stay and move probabilities. Adds
    the counts of those that did not underflow to `stats` and returns the others."""
    lengths = np.array([x.shape[0] for x in group])
    b, dens, log_scale = _state_densities(group, consts, *stay.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha, c, exits = _scaled_forward(b, pi, stay, move)
        c_end = exits[lengths - 1, np.arange(len(group))]
        norms = np.vstack([np.where(np.arange(len(c))[:, None] < lengths, c, 1.0), c_end])
        bad = ~np.all((norms > _SCALE_FLOOR) & np.isfinite(norms), axis=0)
        stay_num = _scaled_backward(alpha, b, c, lengths, c_end, pi, stay, move)
        bad |= ~np.all(np.isfinite(stay_num), axis=(1, 2))
        fallback = []
        for g, x in enumerate(group):
            F = len(x)
            if bad[g] or not _add_counts(
                    stats, x, dens[g], alpha[:F, g], b[:F, g], stay_num[g],
                    np.log(c[:F, g]).sum() + log_scale[g] + math.log(c_end[g])):
                fallback.append(x)
    return fallback


def _scaled_forward(b: np.ndarray, pi: np.ndarray, stay: np.ndarray,
                    move: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward pass over (T, G, S, U) scaled state densities. Returns the forward
    vectors normalised to sum 1, their (T, G) normalisers c_t, and the (T, G)
    mass of each normalised vector that leaves through the final states."""
    T, G, S, U = b.shape
    alpha = np.empty_like(b)
    c = np.empty((T, G))
    exits = np.empty((T, G))
    pre = np.zeros((G, S, U))
    pre[:, 0] = pi
    advance = np.empty((G, S - 1, U))
    entry = np.empty((G, U))
    ones = np.ones(S * U)
    for t in range(T):
        a = alpha[t]
        if t:
            prev = alpha[t - 1]
            np.multiply(prev, stay, out=pre)
            pre[:, 1:] += np.multiply(prev[:, :-1], move[:-1], out=advance)
            pre[:, 0] += np.multiply(exits[t - 1][:, None], pi, out=entry)
        np.multiply(pre, b[t], out=a)
        np.matmul(a.reshape(G, -1), ones, out=c[t])
        a /= c[t][:, None, None]
        np.matmul(a[:, -1], move[-1], out=exits[t])
    return alpha, c, exits


def _scaled_backward(alpha: np.ndarray, b: np.ndarray, c: np.ndarray, lengths: np.ndarray,
                     c_end: np.ndarray, pi: np.ndarray, stay: np.ndarray,
                     move: np.ndarray) -> np.ndarray:
    """Backward pass with the forward pass's normalisers; each utterance starts
    at its own last frame from the final exit weights over c_end. Turns `alpha`
    into the state occupancies gamma in place and returns the (G, S, U)
    expected self-loop counts."""
    T, G, S, U = b.shape
    ends = {t: lengths == t + 1 for t in set(lengths - 1)}
    inv_c = (1.0 / c)[:, :, None, None]
    beta = np.zeros((G, S, U))
    stay_num = np.zeros((G, S, U))
    nxt = np.empty((G, S, U))
    loops = np.empty((G, S, U))
    advance = np.empty((G, S - 1, U))
    entry = np.empty(G)
    exit_ = np.empty((G, U))
    for t in range(T - 1, -1, -1):
        if t < T - 1:
            np.multiply(b[t + 1], beta, out=nxt)
            nxt *= inv_c[t + 1]
            stay_num += np.multiply(alpha[t], nxt, out=loops)
            np.multiply(nxt, stay, out=beta)
            beta[:, :-1] += np.multiply(nxt[:, 1:], move[:-1], out=advance)
            np.matmul(nxt[:, 0], pi, out=entry)
            beta[:, -1] += np.multiply(entry[:, None], move[-1], out=exit_)
        if t in ends:
            beta[ends[t]] = 0.0
            beta[ends[t], -1] = move[-1] / c_end[ends[t], None]
        alpha[t] *= beta
    # the self arc's weight; with one state per unit it also carries the
    # unit's exit and re-entry into itself
    stay_num *= stay + move * pi if S == 1 else stay
    return stay_num


def _state_densities(group: list[np.ndarray], consts: tuple, S: int,
                     U: int) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """(T, G, S, U) state densities of the left-aligned feature matrices, each
    frame's scaled by its largest component density; each matrix's (F, M, S, U)
    scaled component densities they sum; and the (G,) sums of the log scales.
    Past an utterance's end b = 1, which keeps its forward pass finite."""
    b = np.ones((group[0].shape[0], len(group), S, U))
    dens = []
    log_scale = np.empty(len(group))
    for g, x in enumerate(group):
        e, m = _scaled_densities(x, consts)
        e = e.reshape(len(x), -1, S, U)
        bg = b[: len(x), g]
        np.copyto(bg, e[:, 0])
        for j in range(1, e.shape[1]):   # summed in slices, not along the short axis
            bg += e[:, j]
        dens.append(e)
        log_scale[g] = m.sum()
    return b, dens, log_scale


def _add_counts(stats: _Stats, feats: np.ndarray, resp: np.ndarray, gamma: np.ndarray,
                b: np.ndarray, stay_num: np.ndarray, loglik: float) -> bool:
    """Add one utterance's counts to `stats`, given its (F, M, S, U) scaled
    component densities, which it overwrites, its (F, S, U) state occupancies
    and the scaled state densities, and its (S, U) self-loop counts; if they are
    not finite, add nothing and return False."""
    F, S, U = gamma.shape
    occupancy = gamma.sum(axis=0)
    # each component's share of its state's occupancy; where a state's scaled
    # density underflowed to 0, so did its occupancy
    share = np.zeros_like(gamma)
    np.divide(gamma, b, out=share, where=b > 0)
    resp *= share[:, None]
    occ = resp.sum(axis=0)
    if not (np.all(np.isfinite(occ)) and np.all(np.isfinite(occupancy))):
        return False
    resp = resp.reshape(F, -1).T
    # the counts in (M, S, U) layout, added through transposed views of `stats`
    comp_occ = stats.comp_occ.transpose(2, 1, 0)
    comp_occ += occ
    comp_sum = stats.comp_sum.transpose(2, 1, 0, 3)
    comp_sum += (resp @ feats).reshape(comp_sum.shape)
    comp_sqsum = stats.comp_sqsum.transpose(2, 1, 0, 3)
    comp_sqsum += (resp @ (feats * feats)).reshape(comp_sum.shape)
    stats.unit_entries += occupancy[0]
    stats.stay_den += occupancy.T
    stats.stay_num += stay_num.T
    stats.loglik += float(loglik)
    return True


def map_objective(model: AudModel, loglik: float) -> float:
    """Data log likelihood plus symmetric-Dirichlet log prior on unit weights.

    Weights at exactly zero are floored at 1e-100 in the prior term so
    the objective stays finite; with gamma < 1 the prior rewards mass
    collapsing onto few units.
    """
    g = model.config.gamma
    with np.errstate(divide="ignore"):
        pi = np.exp(model.log_pi)
    prior = (g - 1.0) * np.sum(np.log(np.maximum(pi, 1e-100)))
    return loglik + float(prior)


def train_phone_loop(feats_list: list[FeatureSequence],
                     config: AudConfig) -> tuple[AudModel, list[dict]]:
    """MAP-EM (Baum-Welch with Dirichlet MAP update for the unit weights),
    from the k-means start of `init_model`.

    Returns the trained model with zero-weight units pruned, plus one log
    entry per iteration: the MAP objective of the model it started from
    (non-decreasing), the units active after its M-step and its seconds.
    """
    if not feats_list:
        raise DataError("empty feature corpus")
    model = init_model(feats_list, config)
    U, S, M, D = model.means.shape
    X = np.concatenate([f.features for f in feats_list], axis=0)
    var_floor = np.maximum(X.var(axis=0) * VAR_FLOOR_FRAC, 1e-10)
    log = []
    for iteration in range(1, config.iterations + 1):
        t0 = time.perf_counter()
        stats = _Stats.zeros(U, S, M, D)
        _estep_corpus(model, [f.features for f in feats_list], stats)
        objective = map_objective(model, stats.loglik)
        # M-step: MAP unit weights
        raw = np.maximum(0.0, stats.unit_entries + config.gamma - 1.0)
        raw[~np.isfinite(model.log_pi)] = 0.0
        total = raw.sum()
        if total <= 0:
            raise DataError("all unit weights collapsed to zero")
        with np.errstate(divide="ignore"):
            model.log_pi = np.log(raw / total)
        # self-loop probabilities (keep previous value for unused states)
        with np.errstate(invalid="ignore", divide="ignore"):
            stay = stats.stay_num / stats.stay_den
        mask = stats.stay_den > 1e-8
        model.stay[mask] = np.clip(stay[mask], 1e-4, 1.0 - 1e-4)
        # Gaussian mixtures
        occ = stats.comp_occ
        used = occ > 1e-8
        state_occ = occ.sum(axis=-1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            w = occ / state_occ
            mu = stats.comp_sum / occ[..., None]
            var = stats.comp_sqsum / occ[..., None] - mu * mu
        model.mix_weights = np.where(state_occ > 1e-8, w, model.mix_weights)
        model.means[used] = mu[used]
        model.variances[used] = np.maximum(var[used], var_floor)
        log.append({"iteration": iteration, "objective": objective,
                    "active_units": len(model.active_units()),
                    "seconds": time.perf_counter() - t0})
    return prune_model(model), log


def prune_model(model: AudModel) -> AudModel:
    """Drop zero-weight units; survivors keep their relative weights."""
    keep = model.active_units()
    if len(keep) == 0:
        raise DataError("no active units to keep")
    log_pi = model.log_pi[keep]
    log_pi = log_pi - _lse(log_pi)
    return AudModel(
        config=model.config,
        log_pi=log_pi,
        stay=model.stay[keep].copy(),
        mix_weights=model.mix_weights[keep].copy(),
        means=model.means[keep].copy(),
        variances=model.variances[keep].copy(),
    )


@dataclass(frozen=True)
class TimedUnitSequence:
    utt_id: str
    intervals: tuple[tuple[str, float, float], ...]  # (label, start_s, end_s)


def decode_units(model: AudModel, feats: FeatureSequence) -> TimedUnitSequence:
    """`decode_corpus` of one feature sequence."""
    return decode_corpus(model, [feats])[0]


def decode_corpus(model: AudModel, feats_list: list[FeatureSequence]) -> list[TimedUnitSequence]:
    """Viterbi decoding of each feature sequence to a time-marked pseudo-phone
    sequence, over the length-sorted groups of `_length_groups`.

    Maximal runs of the same unit merge into one interval; intervals
    tile [0, F * step] with no gaps.
    """
    for f in feats_list:
        if f.features.shape[1] != model.dim:
            raise DataError("%s: feature dim %d does not match model dim %d"
                            % (f.utt_id, f.features.shape[1], model.dim))
    U, S = model.stay.shape
    out = [None] * len(feats_list)
    for group in _length_groups([len(f.features) for f in feats_list], U * S):
        paths = _viterbi_group(model, [feats_list[i] for i in group])
        for i, units in zip(group, paths):
            out[i] = _timed_units(feats_list[i].utt_id, units)
    return out


def _viterbi_group(model: AudModel, group: list[FeatureSequence]) -> list[list[int]]:
    """Per-frame units of the best path of each feature sequence, given in
    non-increasing length order. Every row keeps its own emission product;
    frame t updates the rows still running, a prefix."""
    U, S = model.stay.shape
    lengths = [len(f.features) for f in group]
    T, G = lengths[0], len(group)
    log_b = np.empty((T, G, U, S))
    for g, f in enumerate(group):
        log_b[: lengths[g], g] = model.emission_loglik(f.features).reshape(-1, U, S)
    log_stay, log_move = _arcs(model)
    self_arc = _self_arc(model, log_stay, log_move)
    # Ties go to the lowest predecessor index u * S + s, as an argmax over
    # the dense transition matrix would: the advance from (u, s - 1) beats
    # the self-loop of (u, s), and the exit of unit v beats the self-loop
    # of (u, 0) only when v < u.
    delta_ = np.full((G, U, S), -np.inf)
    delta_[:, :, 0] = model.log_pi + log_b[0, :, :, 0]
    moved = np.zeros((T, G, U, S), dtype=bool)  # best predecessor is not (u, s)
    exit_from = np.zeros((T, G), dtype=np.int64)  # best exiting unit at frame t - 1
    stay, move = np.empty((G, U, S)), np.empty((G, U, S))
    tie = np.empty((G, U, S), dtype=bool)
    later = np.arange(U)[None, :]
    live = G
    for t in range(1, T):
        while lengths[live - 1] <= t:
            live -= 1
        d, st, mv, eq = delta_[:live], stay[:live], move[:live], tie[:live]
        np.add(d, self_arc, out=st)
        exits = d[:, :, -1] + log_move[:, -1]
        v = exits.argmax(axis=1)
        exit_from[t, :live] = v
        np.add(exits[np.arange(live), v][:, None], model.log_pi, out=mv[:, :, 0])
        np.add(d[:, :, :-1], log_move[:, :-1], out=mv[:, :, 1:])
        np.equal(mv, st, out=eq)
        eq[:, :, 0] &= later > v[:, None]
        np.logical_or(mv > st, eq, out=moved[t, :live])
        np.maximum(st, mv, out=d)
        d += log_b[t, :live]
    final = delta_[:, :, -1] + log_move[:, -1]
    paths = []
    for g, F in enumerate(lengths):
        u, s = int(final[g].argmax()), S - 1
        if not math.isfinite(final[g, u]):
            raise DataError("%s: no valid Viterbi path" % group[g].utt_id)
        units = [u] * F
        for t in range(F - 1, 0, -1):
            if moved[t, g, u, s]:
                u, s = (u, s - 1) if s > 0 else (int(exit_from[t, g]), S - 1)
            units[t - 1] = u
        paths.append(units)
    return paths


def _timed_units(utt_id: str, units: list[int]) -> TimedUnitSequence:
    """Merge maximal runs of per-frame units into intervals of FRAME_STEP_S frames."""
    intervals = []
    run_start = 0
    for t in range(1, len(units) + 1):
        if t == len(units) or units[t] != units[run_start]:
            intervals.append(
                ("a%d" % units[run_start], run_start * FRAME_STEP_S, t * FRAME_STEP_S)
            )
            run_start = t
    return TimedUnitSequence(utt_id, tuple(intervals))


def viterbi_score(model: AudModel, feats: np.ndarray, state_path: list[int]) -> float:
    """Log score of an explicit composite-state path (for exhaustive checks)."""
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    score = init[state_path[0]] + b[0, state_path[0]]
    for t in range(1, len(state_path)):
        score += A[state_path[t - 1], state_path[t]] + b[t, state_path[t]]
    return float(score + final[state_path[-1]])


# ---------------------------------------------------------------------------
# Timed-unit file I/O

def write_timed_units(path: str, sequences: list[TimedUnitSequence]) -> None:
    """One `<utt-id> <start> <end> <label>` line per interval, 6-decimal seconds."""
    with open(path, "w", encoding="utf-8") as f:
        for seq in sequences:
            for lab, s, e in seq.intervals:
                f.write("%s %.6f %.6f %s\n" % (seq.utt_id, s, e, lab))


def save_aud_model(path: str, model: AudModel) -> None:
    """The model's arrays by field name, plus one `config/<field>` entry per AudConfig field."""
    arrays = {f.name: getattr(model, f.name) for f in fields(AudModel) if f.name != "config"}
    for f in fields(AudConfig):
        arrays["config/" + f.name] = np.asarray(getattr(model.config, f.name))
    save_archive(path, arrays)


def load_aud_model(path: str) -> AudModel:
    """Read a `save_aud_model` file; DataError, naming the path, if it is not one."""
    def build(arrays):
        config = AudConfig(**{f.name: type(f.default)(arrays["config/" + f.name])
                              for f in fields(AudConfig)})
        return AudModel(config, **{f.name: arrays[f.name] for f in fields(AudModel)
                                   if f.name != "config"})
    return load_archive(path, "an AUD model", build)


def save_features(path: str, feats_list: list) -> None:
    """One `feat/<id>` matrix per utterance, each at the frame step FRAME_STEP_S."""
    save_archive(path, {"feat/" + f.utt_id: f.features for f in feats_list})


def load_features(path: str) -> list:
    """Read a `save_features` file; DataError, naming the path, if it is not one or is empty."""
    feats = load_archive(path, "a feature archive", lambda arrays: [
        FeatureSequence(name[len("feat/"):], arrays[name])
        for name in sorted(arrays) if name.startswith("feat/")])
    if not feats:
        raise DataError("%s: no feature matrices" % path)
    return feats
