"""Acoustic unit discovery: MFCC features and a phone-loop HMM.

The phone loop chooses among unit sub-HMMs (left-to-right, diagonal
Gaussian mixture emissions) at every unit transition; unit weights
carry a symmetric Dirichlet prior whose MAP update drives unused units
to zero weight, so the model explains the data with a small unit set.
All likelihood computations run in the log domain.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fftpack import dct
from scipy.special import logsumexp


class AudError(ValueError):
    pass


# ---------------------------------------------------------------------------
# MFCC front-end

@dataclass
class MfccConfig:
    frame_len_s: float = 0.025
    frame_step_s: float = 0.010
    num_filters: int = 26
    num_ceps: int = 13
    preemphasis: float = 0.97
    delta_window: int = 2
    cmn: bool = True


@dataclass
class FeatureSequence:
    utt_id: str
    frame_step_s: float
    frame_len_s: float
    features: np.ndarray  # (F, D)

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise AudError("feature matrix must be (F >= 1, D)")
        if not np.all(np.isfinite(self.features)):
            raise AudError("%s: non-finite feature values" % self.utt_id)


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Load 16-bit mono PCM; returns (float samples in [-1, 1], sample rate)."""
    with wave.open(path, "rb") as w:
        if w.getnchannels() != 1:
            raise AudError("%s: expected mono audio" % path)
        if w.getsampwidth() != 2:
            raise AudError("%s: expected 16-bit PCM" % path)
        rate = w.getframerate()
        data = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    return data.astype(np.float64) / 32768.0, rate


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, nfft: int, rate: int) -> np.ndarray:
    """Triangular filters on the mel scale covering [0, rate/2]."""
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
    return fb


def delta(feat: np.ndarray, window: int = 2) -> np.ndarray:
    """Regression deltas over +/-window frames with edge replication."""
    padded = np.pad(feat, ((window, window), (0, 0)), mode="edge")
    denom = 2 * sum(k * k for k in range(1, window + 1))
    F = feat.shape[0]
    out = np.zeros_like(feat)
    for k in range(1, window + 1):
        out += k * (padded[window + k: window + k + F] - padded[window - k: window - k + F])
    return out / denom


def extract_mfcc(signal: np.ndarray, rate: int, config: MfccConfig = MfccConfig(),
                 utt_id: str = "utt") -> FeatureSequence:
    """MFCC + deltas + delta-deltas (13 + 13 + 13 dims).

    Pre-emphasis, Hamming window, power spectrum, mel filterbank, log,
    DCT-II, per-utterance cepstral mean normalization, +/-2 frame
    regression deltas. Frame count = 1 + floor((samples - window)/step).
    """
    if rate < 8000:
        raise AudError("sample rate %d below 8 kHz" % rate)
    win = int(round(config.frame_len_s * rate))
    step = int(round(config.frame_step_s * rate))
    if len(signal) < win:
        raise AudError("audio shorter than one analysis window")
    n_frames = 1 + (len(signal) - win) // step
    emph = np.append(signal[0], signal[1:] - config.preemphasis * signal[:-1])
    nfft = 1
    while nfft < win:
        nfft *= 2
    window_fn = np.hamming(win)
    fb = mel_filterbank(config.num_filters, nfft, rate)
    frames = np.stack([emph[i * step: i * step + win] * window_fn for i in range(n_frames)])
    spec = np.abs(np.fft.rfft(frames, nfft)) ** 2 / nfft
    energies = np.maximum(spec @ fb.T, 1e-30)
    ceps = dct(np.log(energies), type=2, axis=1, norm="ortho")[:, : config.num_ceps]
    if config.cmn:
        ceps = ceps - ceps.mean(axis=0, keepdims=True)
    d1 = delta(ceps, config.delta_window)
    d2 = delta(d1, config.delta_window)
    feats = np.concatenate([ceps, d1, d2], axis=1)
    return FeatureSequence(utt_id, config.frame_step_s, config.frame_len_s, feats)


# ---------------------------------------------------------------------------
# Phone-loop HMM

@dataclass
class AudConfig:
    num_units: int = 100
    states_per_unit: int = 3
    mix_components: int = 2
    gamma: float = 0.5  # symmetric Dirichlet concentration over unit weights
    iterations: int = 10
    var_floor_frac: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.num_units < 2:
            raise AudError("need at least 2 units")
        if self.states_per_unit < 1 or self.mix_components < 1:
            raise AudError("states and mixture components must be >= 1")
        if self.gamma <= 0:
            raise AudError("gamma must be positive")


@dataclass
class AudModel:
    config: AudConfig
    log_pi: np.ndarray       # (U,) unit weights, may contain -inf for pruned units
    stay: np.ndarray         # (U, S) self-loop probabilities
    mix_weights: np.ndarray  # (U, S, M)
    means: np.ndarray        # (U, S, M, D)
    variances: np.ndarray    # (U, S, M, D) diagonal

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
        return logsumexp(_weighted_component_loglik(self, feats), axis=-1).reshape(
            feats.shape[0], -1)

    def component_log_post(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log responsibilities (F, U, S, M) of the mixture components within a
        state, and the state log densities (F, U, S) they normalise by."""
        ll = _weighted_component_loglik(self, feats)
        log_b = logsumexp(ll, axis=-1)
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
    centroids = X[rng.choice(X.shape[0], size=k, replace=False)]
    # a few Lloyd iterations are enough for initialization
    for _ in range(5):
        d2 = ((X[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
        assign = d2.argmin(axis=1)
        for j in range(k):
            sel = X[assign == j]
            if len(sel):
                centroids[j] = sel.mean(axis=0)
    if k < U:
        centroids = np.concatenate(
            [centroids, centroids[rng.integers(0, k, U - k)]], axis=0
        )
    gvar = np.maximum(X.var(axis=0), 1e-6)
    means = np.zeros((U, S, M, D))
    for u in range(U):
        for s in range(S):
            for m in range(M):
                means[u, s, m] = centroids[u] + 0.1 * np.sqrt(gvar) * rng.standard_normal(D)
    variances = np.tile(gvar, (U, S, M, 1))
    return AudModel(
        config=config,
        log_pi=np.full(U, -math.log(U)),
        stay=np.full((U, S), 0.5),
        mix_weights=np.full((U, S, M), 1.0 / M),
        means=means,
        variances=variances,
    )


def _weighted_component_loglik(model: AudModel, feats: np.ndarray) -> np.ndarray:
    """(F, U, S, M) log mix_weight + log N(x_t; mean, diag variance)."""
    D = model.means.shape[-1]
    diff = feats[:, None, None, None, :] - model.means[None]
    ll = -0.5 * (
        np.sum(diff * diff / model.variances[None], axis=-1)
        + np.sum(np.log(model.variances), axis=-1)[None]
        + D * math.log(2 * math.pi)
    )
    with np.errstate(divide="ignore"):
        return ll + np.log(model.mix_weights)[None]


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
        raise AudError("non-finite likelihood during E-step")
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
    # mixture-component stats
    resp = gamma[..., None] * np.exp(log_resp)
    stats.comp_occ += resp.sum(axis=0)
    stats.comp_sum += np.einsum("fusm,fd->usmd", resp, feats)
    stats.comp_sqsum += np.einsum("fusm,fd->usmd", resp, feats * feats)


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


def train_phone_loop(
    feats_list: list[FeatureSequence], config: AudConfig,
    model: Optional[AudModel] = None, quiet: bool = True,
) -> tuple[AudModel, list[float]]:
    """MAP-EM (Baum-Welch with Dirichlet MAP update for the unit weights).

    Returns the trained model with zero-weight units pruned, plus the
    per-iteration MAP objective values (non-decreasing).
    """
    if not feats_list:
        raise AudError("empty feature corpus")
    if model is None:
        model = init_model(feats_list, config)
    U, S, M, D = model.means.shape
    X = np.concatenate([f.features for f in feats_list], axis=0)
    var_floor = np.maximum(X.var(axis=0) * config.var_floor_frac, 1e-10)
    objectives = []
    for it in range(config.iterations):
        stats = _Stats.zeros(U, S, M, D)
        for f in feats_list:
            _estep_utterance(model, f.features, stats)
        objectives.append(map_objective(model, stats.loglik))
        if not quiet:
            print("iter %d  objective %.4f  active units %d"
                  % (it + 1, objectives[-1], len(model.active_units())))
        # M-step: MAP unit weights
        raw = np.maximum(0.0, stats.unit_entries + config.gamma - 1.0)
        raw[~np.isfinite(model.log_pi)] = 0.0
        total = raw.sum()
        if total <= 0:
            raise AudError("all unit weights collapsed to zero")
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
    return prune_model(model), objectives


def prune_model(model: AudModel) -> AudModel:
    """Drop zero-weight units; survivors keep their relative weights."""
    keep = model.active_units()
    if len(keep) == 0:
        raise AudError("no active units to keep")
    log_pi = model.log_pi[keep]
    log_pi = log_pi - logsumexp(log_pi)
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

    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _, _ in self.intervals)


def decode_units(model: AudModel, feats: FeatureSequence) -> TimedUnitSequence:
    """Viterbi decoding to a time-marked pseudo-phone sequence.

    Maximal runs of the same unit merge into one interval; intervals
    tile [0, F * step] with no gaps.
    """
    x = feats.features
    if x.shape[1] != model.dim:
        raise AudError(
            "feature dim %d does not match model dim %d" % (x.shape[1], model.dim)
        )
    U, S = model.stay.shape
    F = x.shape[0]
    log_b = model.emission_loglik(x).reshape(F, U, S)
    log_stay, log_move = _arcs(model)
    self_arc = _self_arc(model, log_stay, log_move)
    # Ties go to the lowest predecessor index u * S + s, as an argmax over
    # the dense transition matrix would: the advance from (u, s - 1) beats
    # the self-loop of (u, s), and the exit of unit v beats the self-loop
    # of (u, 0) only when v < u.
    delta_ = np.full((U, S), -np.inf)
    delta_[:, 0] = model.log_pi + log_b[0, :, 0]
    moved = np.zeros((F, U, S), dtype=bool)  # best predecessor is not (u, s)
    exit_from = np.zeros(F, dtype=np.int64)  # best exiting unit at frame t - 1
    move = np.empty((U, S))
    for t in range(1, F):
        stay = delta_ + self_arc
        exits = delta_[:, -1] + log_move[:, -1]
        v = int(exits.argmax())
        exit_from[t] = v
        move[:, 0] = exits[v] + model.log_pi
        move[:, 1:] = delta_[:, :-1] + log_move[:, :-1]
        tie = move == stay
        tie[: v + 1, 0] = False
        np.logical_or(move > stay, tie, out=moved[t])
        delta_ = np.maximum(stay, move) + log_b[t]
    delta_[:, :-1] = -np.inf
    delta_[:, -1] += log_move[:, -1]
    u, s = divmod(int(delta_.argmax()), S)
    if not math.isfinite(delta_[u, s]):
        raise AudError("no valid Viterbi path")
    units = [u] * F
    for t in range(F - 1, 0, -1):
        if moved[t, u, s]:
            u, s = (u, s - 1) if s > 0 else (int(exit_from[t]), S - 1)
        units[t - 1] = u
    step = feats.frame_step_s
    intervals = []
    run_start = 0
    for t in range(1, F + 1):
        if t == F or units[t] != units[run_start]:
            intervals.append(
                ("a%d" % units[run_start], run_start * step, t * step)
            )
            run_start = t
    return TimedUnitSequence(feats.utt_id, tuple(intervals))


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
    np.savez(
        path,
        log_pi=model.log_pi,
        stay=model.stay,
        mix_weights=model.mix_weights,
        means=model.means,
        variances=model.variances,
        config=np.array([
            model.config.num_units, model.config.states_per_unit,
            model.config.mix_components, model.config.gamma,
            model.config.iterations, model.config.var_floor_frac,
            model.config.seed,
        ]),
    )


def load_aud_model(path: str) -> AudModel:
    with np.load(path) as z:
        c = z["config"]
        config = AudConfig(
            num_units=int(c[0]), states_per_unit=int(c[1]), mix_components=int(c[2]),
            gamma=float(c[3]), iterations=int(c[4]), var_floor_frac=float(c[5]),
            seed=int(c[6]),
        )
        return AudModel(
            config=config,
            log_pi=z["log_pi"],
            stay=z["stay"],
            mix_weights=z["mix_weights"],
            means=z["means"],
            variances=z["variances"],
        )


def save_features(path: str, feats_list: list) -> None:
    arrays = {}
    for f in feats_list:
        arrays["feat/" + f.utt_id] = f.features
        arrays["time/" + f.utt_id] = np.array([f.frame_step_s, f.frame_len_s])
    np.savez(path, **arrays)


def load_features(path: str) -> list:
    out = []
    with np.load(path) as z:
        ids = sorted(k[len("feat/"):] for k in z.files if k.startswith("feat/"))
        for utt_id in ids:
            step, length = z["time/" + utt_id]
            out.append(FeatureSequence(utt_id, float(step), float(length), z["feat/" + utt_id]))
    return out
