import itertools
import math
import wave

import numpy as np
import pytest
from scipy.fftpack import dct
from scipy.special import logsumexp

from attnseg import aud as aud_mod
from attnseg.aud import (
    AudConfig,
    AudModel,
    FeatureSequence,
    dct_basis,
    decode_corpus,
    decode_units,
    delta,
    extract_mfcc,
    forward_loglik,
    init_model,
    load_aud_model,
    load_features,
    map_objective,
    mel_filterbank,
    prune_model,
    read_wav,
    save_aud_model,
    save_features,
    train_phone_loop,
    viterbi_score,
    write_timed_units,
    _estep_corpus,
    _estep_utterance,
    _lloyd,
    _logsumexp_last,
    _Stats,
    _weighted_component_loglik,
)
from attnseg.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# MFCC

def reference_mfcc(signal, rate):
    """`extract_mfcc` with frames cut as a list of slices and the filterbank and
    DCT basis built afresh, as before the sliding window and the cached matrices.
    The DCT is the basis product, not scipy's transform, so that the two agree
    byte for byte and any difference is in the framing; `TestDctBasis` checks
    the basis against scipy."""
    win = int(round(aud_mod.FRAME_LEN_S * rate))
    step = int(round(aud_mod.FRAME_STEP_S * rate))
    n_frames = 1 + (len(signal) - win) // step
    emph = np.append(signal[0], signal[1:] - aud_mod.PREEMPHASIS * signal[:-1])
    nfft = 1
    while nfft < win:
        nfft *= 2
    window_fn = np.hamming(win)
    fb = mel_filterbank.__wrapped__(aud_mod.NUM_FILTERS, nfft, rate)
    frames = np.stack([emph[i * step: i * step + win] * window_fn for i in range(n_frames)])
    spec = np.abs(np.fft.rfft(frames, nfft)) ** 2 / nfft
    energies = np.maximum(spec @ fb.T, 1e-30)
    ceps = np.log(energies) @ dct_basis.__wrapped__(aud_mod.NUM_CEPS, aud_mod.NUM_FILTERS)
    ceps = ceps - ceps.mean(axis=0, keepdims=True)
    d1 = delta(ceps, aud_mod.DELTA_WINDOW)
    d2 = delta(d1, aud_mod.DELTA_WINDOW)
    return np.concatenate([ceps, d1, d2], axis=1)


class TestDctBasis:
    @pytest.mark.parametrize("n,k", [(13, 1), (13, 13), (26, 2), (26, 13), (26, 26),
                                     (40, 7), (40, 13), (40, 40)])
    def test_matches_scipy(self, n, k):
        basis = dct_basis(k, n)
        assert basis.shape == (n, k)
        # the transform of the unit impulse at sample i is row i of the basis
        np.testing.assert_allclose(basis, dct(np.eye(n), type=2, norm="ortho")[:, :k],
                                   rtol=1e-12, atol=1e-12)
        x = np.random.default_rng(n + k).standard_normal((5, n))
        np.testing.assert_allclose(x @ basis, dct(x, type=2, axis=1, norm="ortho")[:, :k],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [13, 26, 40])
    def test_full_basis_is_orthonormal(self, n):
        basis = dct_basis(n, n)
        np.testing.assert_allclose(basis.T @ basis, np.eye(n), rtol=1e-12, atol=1e-12)

    def test_basis_is_shared_and_read_only(self):
        basis = dct_basis(13, 26)
        assert dct_basis(13, 26) is basis
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


class TestMfcc:
    def test_frame_count_one_second(self):
        rng = np.random.default_rng(0)
        f = extract_mfcc(rng.standard_normal(16000) * 0.1, 16000)
        # 1 + floor((16000 - 400) / 160) = 98
        assert f.features.shape == (98, 39)

    def test_dimensions(self):
        rng = np.random.default_rng(1)
        f = extract_mfcc(rng.standard_normal(8000) * 0.1, 16000)
        assert f.features.shape[1] == 39

    def test_cmn_zeroes_static_mean(self):
        rng = np.random.default_rng(2)
        f = extract_mfcc(rng.standard_normal(16000), 16000)
        np.testing.assert_allclose(f.features[:, :13].mean(axis=0), 0.0, atol=1e-9)

    def test_silence_finite(self):
        f = extract_mfcc(np.zeros(8000), 16000)
        assert np.all(np.isfinite(f.features))
        # constant input: deltas identically zero
        np.testing.assert_allclose(f.features[:, 13:], 0.0, atol=1e-9)

    def test_too_short_audio(self):
        with pytest.raises(DataError):
            extract_mfcc(np.zeros(100), 16000)

    def test_low_rate_rejected(self):
        with pytest.raises(DataError):
            extract_mfcc(np.zeros(16000), 4000)

    def test_delta_of_linear_ramp(self):
        # a linear ramp has constant slope; regression deltas recover it
        # away from the replicated edges
        feat = np.arange(10.0)[:, None]
        d = delta(feat, window=2)
        np.testing.assert_allclose(d[2:-2], 1.0)

    def test_filterbank_covers_spectrum(self):
        fb = mel_filterbank(26, 512, 16000)
        assert fb.shape == (26, 257)
        assert np.all(fb >= 0)
        # every filter has support
        assert np.all(fb.sum(axis=1) > 0)

    def test_filterbank_is_shared_and_read_only(self):
        fb = mel_filterbank(26, 512, 16000)
        assert mel_filterbank(26, 512, 16000) is fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    # exactly one window (400 samples at 16 kHz, 200 at 8 kHz), one sample
    # more, one sample short of a second frame, two frames, and longer signals
    @pytest.mark.parametrize("samples,rate", [(400, 16000), (401, 16000), (559, 16000),
                                              (560, 16000), (16000, 16000), (200, 8000),
                                              (8000, 8000)])
    def test_matches_reference_framing(self, samples, rate):
        signal = np.random.default_rng(samples + rate).standard_normal(samples) * 0.2
        got = extract_mfcc(signal, rate).features
        want = reference_mfcc(signal, rate)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_wav_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = (rng.uniform(-0.5, 0.5, 16000) * 32767).astype("<i2")
        p = tmp_path / "x.wav"
        with wave.open(str(p), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(samples.tobytes())
        sig, rate = read_wav(str(p))
        assert rate == 16000
        np.testing.assert_allclose(sig, samples / 32768.0)

    def test_feature_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = [
            FeatureSequence("u1", rng.standard_normal((5, 3))),
            FeatureSequence("u2", rng.standard_normal((7, 3))),
        ]
        p = str(tmp_path / "f.npz")
        save_features(p, feats)
        back = load_features(p)
        assert [f.utt_id for f in back] == ["u1", "u2"]
        np.testing.assert_array_equal(back[0].features, feats[0].features)
        np.testing.assert_array_equal(back[1].features, feats[1].features)


# ---------------------------------------------------------------------------
# Phone-loop HMM

def tiny_model(units=2, states=2, mix=1, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    cfg = AudConfig(num_units=units, states_per_unit=states,
                    mix_components=mix, seed=seed, iterations=3)
    means = rng.standard_normal((units, states, mix, dim)) * 2.0
    return AudModel(
        config=cfg,
        log_pi=np.full(units, -math.log(units)),
        stay=np.full((units, states), 0.6),
        mix_weights=np.full((units, states, mix), 1.0 / mix),
        means=means,
        variances=np.full((units, states, mix, dim), 1.0),
    )


def synth_unit_corpus(n_utts=20, seed=0):
    """Utterances drawn from 3 well-separated 2-dim unit prototypes."""
    rng = np.random.default_rng(seed)
    protos = np.array([[0.0, 8.0], [8.0, 0.0], [-8.0, -8.0]])
    feats, truth = [], []
    for i in range(n_utts):
        labels = rng.integers(0, 3, size=rng.integers(3, 6))
        frames, frame_labels = [], []
        for lab in labels:
            n = int(rng.integers(4, 8))
            frames.append(protos[lab] + 0.3 * rng.standard_normal((n, 2)))
            frame_labels.extend([int(lab)] * n)
        feats.append(FeatureSequence("u%03d" % i, np.concatenate(frames)))
        truth.append(frame_labels)
    return feats, truth


def brute_force_loglik(model, feats):
    """Total likelihood by explicit enumeration of every composite-state path."""
    U, S = model.stay.shape
    N = U * S
    F = feats.shape[0]
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    scores = []
    for path in itertools.product(range(N), repeat=F):
        s = init[path[0]] + b[0, path[0]]
        for t in range(1, F):
            s += A[path[t - 1], path[t]] + b[t, path[t]]
        s += final[path[-1]]
        if math.isfinite(s):
            scores.append(s)
    return float(logsumexp(scores))


# Dense O(N^2)-per-frame recursions on `log_transitions`, kept here as the
# oracles of the structured ones in `attnseg.aud`.

def dense_forward_loglik(model, feats):
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    alpha = init + b[0]
    for t in range(1, feats.shape[0]):
        alpha = logsumexp(alpha[:, None] + A, axis=0) + b[t]
    return float(logsumexp(alpha + final))


def dense_estep(model, feats):
    U, S, M, D = model.means.shape
    N = U * S
    F = feats.shape[0]
    stats = _Stats.zeros(U, S, M, D)
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    alpha = np.full((F, N), -np.inf)
    beta = np.full((F, N), -np.inf)
    alpha[0] = init + b[0]
    for t in range(1, F):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + A, axis=0) + b[t]
    beta[F - 1] = final
    for t in range(F - 2, -1, -1):
        beta[t] = logsumexp(A + (b[t + 1] + beta[t + 1])[None, :], axis=1)
    ll = float(logsumexp(alpha[F - 1] + final))
    stats.loglik += ll
    with np.errstate(invalid="ignore"):
        gamma = np.exp(alpha + beta - ll)
    gamma[~np.isfinite(gamma)] = 0.0
    xi_sum = np.zeros((N, N))
    for t in range(F - 1):
        lx = alpha[t][:, None] + A + (b[t + 1] + beta[t + 1])[None, :] - ll
        xi_sum += np.exp(np.clip(lx, -700, 50))
    first_idx = np.arange(U) * S
    stats.unit_entries += gamma[0].reshape(U, S)[:, 0] + xi_sum[:, first_idx].sum(axis=0)
    stats.stay_num += np.diag(xi_sum).reshape(U, S)
    stats.stay_den += xi_sum.sum(axis=1).reshape(U, S)
    stats.stay_den += np.exp(alpha[F - 1] + final - ll).reshape(U, S)
    resp = gamma.reshape(F, U, S, 1) * np.exp(model.component_log_post(feats)[0])
    stats.comp_occ += resp.sum(axis=0)
    stats.comp_sum += np.einsum("fusm,fd->usmd", resp, feats)
    stats.comp_sqsum += np.einsum("fusm,fd->usmd", resp, feats * feats)
    return stats


def dense_viterbi_units(model, feats):
    """Per-frame units of the best path; ties go to the lowest predecessor."""
    S = model.stay.shape[1]
    b = model.emission_loglik(feats)
    A, init, final = model.log_transitions()
    F = feats.shape[0]
    delta_ = init + b[0]
    back = np.zeros((F, A.shape[0]), dtype=np.int64)
    for t in range(1, F):
        scores = delta_[:, None] + A
        back[t] = scores.argmax(axis=0)
        delta_ = scores.max(axis=0) + b[t]
    state = int((delta_ + final).argmax())
    path = [state]
    for t in range(F - 1, 0, -1):
        state = int(back[t, state])
        path.append(state)
    return [p // S for p in reversed(path)]


def frame_units(seq, step=0.01):
    return [int(lab[1:]) for lab, s, e in seq.intervals for _ in range(round((e - s) / step))]


def random_model(units, states, mix, dim=2, seed=0, dead_unit=None):
    """Random stay, unit and mixture weights; `dead_unit` gets log_pi = -inf,
    as mid-EM before `prune_model`."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(units))
    if dead_unit is not None:
        pi[dead_unit] = 0.0
        pi /= pi.sum()
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
    return AudModel(
        config=AudConfig(num_units=units, states_per_unit=states,
                         mix_components=mix, seed=seed),
        log_pi=log_pi,
        stay=rng.uniform(0.1, 0.9, (units, states)),
        mix_weights=rng.dirichlet(np.ones(mix), (units, states)),
        means=rng.standard_normal((units, states, mix, dim)) * 2.0,
        variances=rng.uniform(0.5, 2.0, (units, states, mix, dim)),
    )


# The broadcast density and the Lloyd loop that `attnseg.aud` replaced with
# matrix products, kept here as their oracles.

def reference_component_loglik(model, feats):
    """(F, U, S, M) log mix_weight + log N(x_t; mean, diag variance), through an
    (F, U, S, M, D) difference array."""
    D = model.means.shape[-1]
    diff = feats[:, None, None, None, :] - model.means[None]
    ll = -0.5 * (
        np.sum(diff * diff / model.variances[None], axis=-1)
        + np.sum(np.log(model.variances), axis=-1)[None]
        + D * math.log(2 * math.pi)
    )
    with np.errstate(divide="ignore"):
        return ll + np.log(model.mix_weights)[None]


def reference_kmeans(X, centroids, iterations):
    """Lloyd iterations on exact squared distances, one centroid at a time."""
    centroids = centroids.copy()
    for _ in range(iterations):
        d2 = ((X[:, None, :] - centroids[None]) ** 2).sum(axis=-1)
        assign = d2.argmin(axis=1)
        for j in range(len(centroids)):
            sel = X[assign == j]
            if len(sel):
                centroids[j] = sel.mean(axis=0)
    return centroids, assign


def reference_lloyd(X, centroids, iterations):
    """`_lloyd` as it summed each centroid's rows with np.add.at."""
    for _ in range(iterations):
        d2 = (centroids * centroids).sum(axis=1) - 2.0 * (X @ centroids.T)
        assign = d2.argmin(axis=1)
        counts = np.bincount(assign, minlength=len(centroids))
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, X)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
    return centroids, assign


def reference_logsumexp_last(a):
    """`_logsumexp_last` before its exp skipped the ratios below e^-700."""
    m = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j], out=m)
    m[m == -np.inf] = 0.0
    s = np.zeros_like(m)
    for j in range(a.shape[-1]):
        s += np.exp(a[..., j] - m)
    with np.errstate(divide="ignore"):
        return np.log(s) + m


def floor_scale_model(seed, units=6, states=3, mix=2, dim=39):
    """Random means around per-dimension offsets, with variances at the scale of
    the EM variance floor (VAR_FLOOR_FRAC times the data variance) and one
    mixture component of zero weight."""
    rng = np.random.default_rng(seed)
    data_var = rng.uniform(0.5, 30.0, dim)
    offset = rng.uniform(-20.0, 20.0, dim)
    means = offset + 2.0 * np.sqrt(data_var) * rng.standard_normal((units, states, mix, dim))
    variances = (aud_mod.VAR_FLOOR_FRAC * data_var
                 * rng.uniform(1.0, 3.0, (units, states, mix, dim)))
    weights = rng.dirichlet(np.ones(mix), (units, states))
    weights[0, 0] = np.eye(mix)[-1]
    m = random_model(units, states, mix, dim, seed)
    m.means, m.variances, m.mix_weights = means, variances, weights
    return m


class TestDensityOracle:
    """The matrix-product density and k-means against the references above."""

    @pytest.mark.parametrize("seed", range(8))
    def test_density_matches_reference_at_floor_variances(self, seed):
        m = floor_scale_model(seed)
        rng = np.random.default_rng(100 + seed)
        K, D = m.means[..., 0].size, m.dim
        pick = rng.integers(0, K, 30)
        sd = np.sqrt(m.variances.reshape(K, D)[pick])
        x = np.concatenate([
            m.means.reshape(K, D)[pick],                                   # at a mean
            m.means.reshape(K, D)[pick] + 1e-3 * sd * rng.standard_normal((30, D)),
            m.means.reshape(K, D)[pick] + sd * rng.standard_normal((30, D)),
            50.0 * rng.standard_normal((30, D)),                           # far away
        ])
        got = _weighted_component_loglik(m, x)
        want = reference_component_loglik(m, x)
        assert np.all(want[:, 0, 0, 0] == -np.inf)  # the zero-weight component
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("states,mix", [(S, M) for S in (1, 2, 3) for M in (1, 2)])
    def test_density_matches_reference_on_random_models(self, states, mix):
        m = random_model(5, states, mix, dim=4, seed=states * mix, dead_unit=3)
        x = np.random.default_rng(states + mix).standard_normal((20, 4)) * 3.0
        np.testing.assert_allclose(_weighted_component_loglik(m, x),
                                   reference_component_loglik(m, x), rtol=1e-9, atol=0)

    def test_mixture_logsumexp_matches_scipy(self):
        rng = np.random.default_rng(0)
        a = rng.normal(-50.0, 20.0, (40, 6, 3))
        a[rng.random(a.shape) < 0.3] = -np.inf
        a[0, 0] = -np.inf  # a state whose components are all -inf
        want = logsumexp(a, axis=-1)
        got = _logsumexp_last(a)
        assert got[0, 0] == -np.inf
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        # one component: the log-sum-exp is the component itself
        np.testing.assert_array_equal(_logsumexp_last(a[..., :1]), a[..., 0])

    @pytest.mark.parametrize("mix", [1, 2, 3])
    def test_mixture_logsumexp_is_bit_identical_to_unfloored(self, mix):
        # each state's largest component has log ratio 0; the others' ratios give
        # normal exps, floored but normal exps, subnormal exps, exps that
        # underflow to 0, or -inf
        rng = np.random.default_rng(mix)
        shape = (60, 7, 3, mix)
        kinds = np.stack([rng.uniform(-700.0, 0.0, shape), rng.uniform(-708.0, -700.0, shape),
                          rng.uniform(-745.0, -708.0, shape), rng.uniform(-900.0, -745.0, shape),
                          np.full(shape, -np.inf)])
        r = np.take_along_axis(kinds, rng.integers(0, len(kinds), (1,) + shape), axis=0)[0]
        np.put_along_axis(r, rng.integers(0, mix, shape[:3] + (1,)), 0.0, axis=-1)
        if mix > 1:
            assert np.any((r > -745.0) & (r < -708.0)) and np.any(r < -745.0)
        a = r + rng.choice([-3e4, -50.0, 0.0, 400.0], shape[:3])[..., None]
        a[5, :, 1] = -np.inf  # states whose components are all -inf
        got = _logsumexp_last(a)
        assert np.all(got[5, :, 1] == -np.inf)
        assert got.tobytes() == reference_logsumexp_last(a).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        centres = rng.uniform(-10.0, 10.0, (8, 6))
        X = centres[rng.integers(0, 8, 400)] + rng.standard_normal((400, 6))
        X[350:] = X[0]  # duplicate frames
        start = X[rng.choice(400, 12, replace=False)]
        start[1] = 1e3  # a centroid that no frame chooses, which must stay
        want, want_assign = reference_kmeans(X, start, 5)
        got, got_assign = _lloyd(X, start.copy(), 5)
        np.testing.assert_array_equal(got_assign, want_assign)
        assert 1 not in got_assign and np.all(got[1] == 1e3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [37, 100])
    def test_kmeans_sums_rows_as_add_at_did(self, k):
        rng = np.random.default_rng(k)
        X = rng.standard_normal((496, 39)) * rng.uniform(0.1, 30.0, 39)
        start = X[rng.choice(496, k, replace=False)]
        got, got_assign = _lloyd(X, start.copy(), 5)
        want, want_assign = reference_lloyd(X, start.copy(), 5)
        np.testing.assert_array_equal(got_assign, want_assign)
        assert got.tobytes() == want.tobytes()


class TestPhoneLoopStructure:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AudConfig(num_units=1)
        with pytest.raises(ConfigError):
            AudConfig(gamma=0.0)

    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_transition_rows_normalize(self, states):
        m = tiny_model(units=3, states=states)
        A, init, final = m.log_transitions()
        assert logsumexp(init) == pytest.approx(0.0, abs=1e-12)
        # every within-loop row sums to 1; the final vector holds the
        # exit probability of each unit's last state
        U, S = m.stay.shape
        for i in range(A.shape[0]):
            assert logsumexp(A[i]) == pytest.approx(0.0, abs=1e-10)
        for u in range(U):
            assert final[u * S + S - 1] == pytest.approx(
                math.log(1.0 - m.stay[u, S - 1]), abs=1e-12)
            for s in range(S - 1):
                assert np.isinf(final[u * S + s])

    def test_pruned_unit_unreachable(self):
        m = tiny_model(units=3, states=2)
        m.log_pi = np.array([math.log(0.5), -np.inf, math.log(0.5)])
        A, init, final = m.log_transitions()
        dead = slice(2, 4)  # unit 1 states
        assert np.all(np.isinf(A[:, dead]))
        assert np.all(np.isinf(init[dead]))


class TestForwardAlgorithm:
    @pytest.mark.parametrize("frames", [1, 3, 5])
    def test_matches_path_enumeration(self, frames):
        rng = np.random.default_rng(frames)
        m = tiny_model(units=2, states=2, seed=frames)
        x = rng.standard_normal((frames, 2))
        assert forward_loglik(m, x) == pytest.approx(
            brute_force_loglik(m, x), abs=1e-10)

    def test_mixture_emissions(self):
        rng = np.random.default_rng(9)
        m = tiny_model(units=2, states=1, mix=2, seed=9)
        x = rng.standard_normal((4, 2))
        assert forward_loglik(m, x) == pytest.approx(
            brute_force_loglik(m, x), abs=1e-10)


STAT_FIELDS = ("unit_entries", "stay_num", "stay_den", "comp_occ", "comp_sum", "comp_sqsum")


def assert_stats_close(got, want, rtol=1e-9, atol=1e-290):
    """Counts and log likelihood to rtol; the default atol only absorbs the
    dense oracle's exp(-700) floor on counts that are 0."""
    assert got.loglik == pytest.approx(want.loglik, rel=rtol)
    for name in STAT_FIELDS:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                   rtol=rtol, atol=atol, err_msg=name)


class TestStructuredRecursions:
    """The O(U*S)-per-frame recursions against the dense oracles above."""

    CASES = [(S, M) for S in (1, 2, 3) for M in (1, 2)]

    @pytest.mark.parametrize("states,mix", CASES)
    def test_forward_matches_dense(self, states, mix):
        m = random_model(4, states, mix, seed=10 * states + mix, dead_unit=1)
        x = np.random.default_rng(states + mix).standard_normal((9, 2)) * 2.0
        assert forward_loglik(m, x) == pytest.approx(dense_forward_loglik(m, x), rel=1e-9)

    @pytest.mark.parametrize("states,mix", CASES)
    def test_estep_matches_dense(self, states, mix):
        m = random_model(4, states, mix, seed=20 * states + mix, dead_unit=2)
        x = np.random.default_rng(states * mix).standard_normal((9, 2)) * 2.0
        U, S, M, D = m.means.shape
        got = _Stats.zeros(U, S, M, D)
        _estep_utterance(m, x, got)
        assert_stats_close(got, dense_estep(m, x))

    @pytest.mark.parametrize("states,mix", CASES)
    def test_viterbi_matches_dense(self, states, mix):
        for seed in range(10):
            m = random_model(4, states, mix, seed=100 * seed + 10 * states + mix,
                             dead_unit=seed % 4)
            x = np.random.default_rng(seed).standard_normal((12, 2)) * 2.0
            f = FeatureSequence("u", x)
            assert frame_units(decode_units(m, f)) == dense_viterbi_units(m, x)

    @staticmethod
    def tie_model(states, rng):
        """Features and means on a 2**30 grid with unit variances make every
        emission an exact multiple of 2**59, which absorbs every arc weight
        in rounding; paths with the same emission sum then tie exactly and
        only the tie-breaking picks the path. Units 0 and 2 are identical."""
        means = rng.integers(1, 3, (3, states, 1, 1)) * 2.0 ** 30
        means[2] = means[0]
        return AudModel(
            config=AudConfig(num_units=3, states_per_unit=states, mix_components=1),
            log_pi=np.log(np.array([0.3, 0.3, 0.4])),
            stay=rng.uniform(0.2, 0.8, (3, states)),
            mix_weights=np.ones((3, states, 1)),
            means=means,
            variances=np.ones((3, states, 1, 1)),
        )

    @staticmethod
    def tie_features(frames, rng):
        return rng.integers(0, 2, (frames, 1)) * 3 * 2.0 ** 30

    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_viterbi_ties_take_lowest_predecessor(self, states):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            m = self.tie_model(states, rng)
            x = self.tie_features(10, rng)
            assert np.all(m.emission_loglik(x) % 2.0 ** 59 == 0)
            units = frame_units(decode_units(m, FeatureSequence("u", x)))
            assert units == dense_viterbi_units(m, x), seed
            assert 2 not in units


class TestGroupedDecoding:
    """`decode_corpus` over several length-sorted groups against the dense
    Viterbi oracle, one utterance at a time."""

    @staticmethod
    def decode_in_groups(monkeypatch, model, feats, frames_per_group):
        """`decode_corpus` under a budget of `frames_per_group` frames of all
        states; returns its output and the size of each group it decoded."""
        sizes = []
        group = aud_mod._viterbi_group
        monkeypatch.setattr(aud_mod, "_viterbi_group",
                            lambda m, g: sizes.append(len(g)) or group(m, g))
        monkeypatch.setattr(aud_mod, "_STATE_FRAME_BUDGET", frames_per_group * model.stay.size)
        return decode_corpus(model, feats), sizes

    @pytest.mark.parametrize("states,mix", TestStructuredRecursions.CASES)
    def test_matches_dense_over_unequal_lengths(self, monkeypatch, states, mix):
        m = random_model(4, states, mix, seed=40 * states + mix, dead_unit=2)
        rng = np.random.default_rng(states + 20 * mix)
        # a path needs at least one frame per state to reach the exit
        lengths = [F for F in (1, 2, 3, 5, 5, 8, 12, 12, 17, 30) if F >= states]
        rng.shuffle(lengths)
        feats = [FeatureSequence("u%d" % i, rng.standard_normal((F, 2)) * 2.0)
                 for i, F in enumerate(lengths)]
        got, sizes = self.decode_in_groups(monkeypatch, m, feats, 40)
        assert len(sizes) >= 3 and sum(sizes) == len(feats)
        assert [seq.utt_id for seq in got] == [f.utt_id for f in feats]
        for f, seq in zip(feats, got):
            assert frame_units(seq) == dense_viterbi_units(m, f.features), f.utt_id

    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_ties_take_lowest_predecessor_in_groups(self, monkeypatch, states):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m = TestStructuredRecursions.tie_model(states, rng)
            # the 1-frame utterance has a path only with one state per unit
            lengths = [F for F in (10, 10, 7, 4, 3, 1) if F >= states]
            feats = [FeatureSequence("u%d" % F, TestStructuredRecursions.tie_features(F, rng))
                     for F in lengths]
            got, sizes = self.decode_in_groups(monkeypatch, m, feats, 20)
            assert len(sizes) >= 3
            for f, seq in zip(feats, got):
                assert frame_units(seq) == dense_viterbi_units(m, f.features), (seed, f.utt_id)
                assert frame_units(seq) == frame_units(decode_units(m, f))

    def test_utterance_with_no_path_is_named(self):
        m = random_model(4, 3, 1, seed=6)
        rng = np.random.default_rng(6)
        feats = [FeatureSequence("long", rng.standard_normal((9, 2))),
                 FeatureSequence("short", rng.standard_normal((2, 2)))]
        with pytest.raises(DataError, match="short: no valid Viterbi path"):
            decode_corpus(m, feats)


class TestScaledEstep:
    """The whole-corpus scaled-probability E-step against the dense oracle and
    its own log-domain fallback."""

    @pytest.mark.parametrize("states,mix", TestStructuredRecursions.CASES)
    def test_matches_dense_over_unequal_lengths(self, states, mix):
        m = random_model(4, states, mix, seed=30 * states + mix, dead_unit=1)
        rng = np.random.default_rng(states + 10 * mix)
        # an utterance needs at least one frame per state to reach the exit
        xs = [rng.standard_normal((F, 2)) * 2.0 for F in (1, 2, 9, 17) if F >= states]
        U, S, M, D = m.means.shape
        got = _Stats.zeros(U, S, M, D)
        _estep_corpus(m, xs, got)
        want = _Stats.zeros(U, S, M, D)
        for x in xs:
            one = dense_estep(m, x)
            want.loglik += one.loglik
            for name in STAT_FIELDS:
                getattr(want, name)[...] += getattr(one, name)
        assert_stats_close(got, want)

    @staticmethod
    def underflow_model():
        """Unit 0 has log weight -700 and the only density near the data, so
        every path starts at a probability of about 1e-304."""
        means = np.array([[[[0.0, 0.0]]], [[[100.0, 0.0]]], [[[0.0, 100.0]]]]).repeat(2, axis=1)
        return AudModel(
            config=AudConfig(num_units=3, states_per_unit=2, mix_components=1),
            log_pi=np.array([-700.0, math.log(0.5), math.log(0.5)]),
            stay=np.full((3, 2), 0.5),
            mix_weights=np.ones((3, 2, 1)),
            means=means,
            variances=np.ones((3, 2, 1, 2)),
        )

    def test_underflow_takes_the_log_domain_fallback(self, monkeypatch):
        m = self.underflow_model()
        x = np.random.default_rng(0).standard_normal((6, 2)) * 0.5
        calls = []
        monkeypatch.setattr(aud_mod, "_estep_utterance",
                            lambda *a: calls.append(a[1]) or _estep_utterance(*a))
        got, want = _Stats.zeros(3, 2, 1, 2), _Stats.zeros(3, 2, 1, 2)
        _estep_corpus(m, [x], got)
        _estep_utterance(m, x, want)
        assert len(calls) == 1 and calls[0] is x
        assert got.loglik == want.loglik and -800 < got.loglik < -700
        for name in STAT_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_only_the_underflowing_utterance_falls_back(self, monkeypatch):
        m = self.underflow_model()
        rng = np.random.default_rng(1)
        near = rng.standard_normal((6, 2)) * 0.5
        # frames at unit 1's density: likely paths avoid unit 0 altogether
        far = rng.standard_normal((7, 2)) * 0.5 + [100.0, 0.0]
        calls = []
        monkeypatch.setattr(aud_mod, "_estep_utterance",
                            lambda *a: calls.append(a[1]) or _estep_utterance(*a))
        got = _Stats.zeros(3, 2, 1, 2)
        _estep_corpus(m, [far, near, far[:4]], got)
        assert len(calls) == 1 and calls[0] is near
        want = _Stats.zeros(3, 2, 1, 2)
        for x in (far, near, far[:4]):
            _estep_utterance(m, x, want)
        assert_stats_close(got, want)

    def test_utterance_shorter_than_a_unit_is_an_error(self):
        m = random_model(4, 3, 1, seed=5)
        U, S, M, D = m.means.shape
        with pytest.raises(DataError):
            _estep_corpus(m, [np.zeros((9, 2)), np.zeros((2, 2))], _Stats.zeros(U, S, M, D))

    @pytest.mark.parametrize("states,mix", [(1, 2), (3, 2)])
    def test_groups_under_a_small_budget_match_one_group(self, monkeypatch, states, mix):
        m = random_model(5, states, mix, seed=states, dead_unit=3)
        rng = np.random.default_rng(states)
        xs = [rng.standard_normal((int(F), 2)) * 2.0 for F in rng.integers(3, 30, 11)]
        U, S, M, D = m.means.shape
        one = _Stats.zeros(U, S, M, D)
        _estep_corpus(m, xs, one)
        groups = []
        group = aud_mod._estep_group
        monkeypatch.setattr(aud_mod, "_estep_group",
                            lambda g, *a: groups.append(len(g)) or group(g, *a))
        monkeypatch.setattr(aud_mod, "_STATE_FRAME_BUDGET", 3 * 30 * S * U)
        split = _Stats.zeros(U, S, M, D)
        _estep_corpus(m, xs, split)
        assert sum(groups) == len(xs) and len(groups) >= 3
        assert_stats_close(split, one, rtol=1e-12, atol=0)


class TestTraining:
    def test_objective_monotone(self):
        feats, _ = synth_unit_corpus(8, seed=1)
        cfg = AudConfig(num_units=6, states_per_unit=2, mix_components=1,
                        iterations=5, seed=1)
        _, log = train_phone_loop(feats, cfg)
        objectives = [entry["objective"] for entry in log]
        assert len(objectives) == 5
        diffs = np.diff(objectives)
        assert np.all(diffs > -1e-6 * np.abs(np.array(objectives[:-1])))

    def test_weights_stay_normalized(self):
        feats, _ = synth_unit_corpus(6, seed=2)
        cfg = AudConfig(num_units=5, states_per_unit=2, mix_components=1,
                        iterations=3, seed=2)
        model, _ = train_phone_loop(feats, cfg)
        assert logsumexp(model.log_pi) == pytest.approx(0.0, abs=1e-10)
        assert np.all(model.stay > 0) and np.all(model.stay < 1)
        np.testing.assert_allclose(model.mix_weights.sum(axis=-1), 1.0, atol=1e-10)

    def test_sparsity_prior_prunes(self):
        feats, _ = synth_unit_corpus(10, seed=3)
        cfg = AudConfig(num_units=20, states_per_unit=2, mix_components=1,
                        iterations=8, gamma=0.5, seed=3)
        model, _ = train_phone_loop(feats, cfg)
        assert model.num_units < 20

    def test_pruning_preserves_likelihood(self):
        m = tiny_model(units=3, states=2, seed=4)
        m.log_pi = np.array([math.log(0.5), -np.inf, math.log(0.5)])
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 2))
        before = forward_loglik(m, x)
        pruned = prune_model(m)
        assert pruned.num_units == 2
        # weights were already normalized over active units
        assert forward_loglik(pruned, x) == pytest.approx(before, abs=1e-6)

    def test_map_objective_prior_sign(self):
        m = tiny_model(units=4)
        base = map_objective(m, 0.0)
        # gamma=0.5 < 1: uniform weights are penalized relative to peaked ones
        m2 = tiny_model(units=4)
        m2.log_pi = np.log(np.array([0.97, 0.01, 0.01, 0.01]))
        assert map_objective(m2, 0.0) > base

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            train_phone_loop([], AudConfig())


class TestDecoding:
    def test_viterbi_matches_exhaustive(self):
        rng = np.random.default_rng(5)
        m = tiny_model(units=2, states=2, seed=5)
        x = rng.standard_normal((4, 2))
        f = FeatureSequence("u", x)
        seq = decode_units(m, f)
        # best over all paths by brute force
        U, S = m.stay.shape
        best = -np.inf
        for path in itertools.product(range(U * S), repeat=4):
            best = max(best, viterbi_score(m, x, list(path)))
        # rebuild per-frame units from intervals and verify the decoded
        # path achieves the exhaustive optimum for some state refinement
        labels = []
        for lab, s, e in seq.intervals:
            labels.extend([int(lab[1:])] * round((e - s) / 0.01))
        cand = -np.inf
        states_per_unit = [range(u * S, (u + 1) * S) for u in labels]
        for path in itertools.product(*states_per_unit):
            cand = max(cand, viterbi_score(m, x, list(path)))
        assert cand == pytest.approx(best, abs=1e-10)

    def test_intervals_tile_duration(self):
        feats, _ = synth_unit_corpus(1, seed=6)
        f = feats[0]
        cfg = AudConfig(num_units=4, states_per_unit=2, mix_components=1,
                        iterations=3, seed=6)
        model, _ = train_phone_loop([f], cfg)
        seq = decode_units(model, f)
        assert seq.intervals[0][1] == 0.0
        assert seq.intervals[-1][2] == pytest.approx(f.features.shape[0] * 0.01)
        for (_, _, e1), (_, s2, _) in zip(seq.intervals, seq.intervals[1:]):
            assert e1 == pytest.approx(s2)

    def test_decode_deterministic(self):
        feats, _ = synth_unit_corpus(3, seed=7)
        cfg = AudConfig(num_units=5, states_per_unit=2, mix_components=1,
                        iterations=3, seed=7)
        model, _ = train_phone_loop(feats, cfg)
        assert decode_units(model, feats[0]) == decode_units(model, feats[0])

    def test_recovers_synthetic_units(self):
        feats, truth = synth_unit_corpus(15, seed=8)
        cfg = AudConfig(num_units=8, states_per_unit=2, mix_components=1,
                        iterations=8, seed=8)
        model, _ = train_phone_loop(feats, cfg)
        # frame-level purity: each true unit should map to a dominant label
        correct = total = 0
        for f, t in zip(feats, truth):
            seq = decode_units(model, f)
            frame_labels = []
            for lab, s, e in seq.intervals:
                frame_labels.extend([lab] * round((e - s) / 0.01))
            for true_u in set(t):
                idx = [i for i, u in enumerate(t) if u == true_u]
                labs = [frame_labels[i] for i in idx]
                correct += max(labs.count(l) for l in set(labs))
                total += len(labs)
        assert correct / total > 0.9

    def test_dim_mismatch(self):
        m = tiny_model(dim=2)
        f = FeatureSequence("u", np.zeros((3, 5)))
        with pytest.raises(DataError):
            decode_units(m, f)


class TestIo:
    def test_timed_units_roundtrip(self, tmp_path):
        feats, _ = synth_unit_corpus(2, seed=9)
        cfg = AudConfig(num_units=4, states_per_unit=2, mix_components=1,
                        iterations=2, seed=9)
        model, _ = train_phone_loop(feats, cfg)
        seqs = [decode_units(model, f) for f in feats]
        p = str(tmp_path / "units.txt")
        write_timed_units(p, seqs)
        with open(p, encoding="utf-8") as f:
            back = [line.split() for line in f]
        want = [(seq.utt_id, lab, s, e) for seq in seqs for lab, s, e in seq.intervals]
        assert len(back) == len(want)
        for fields, (utt_id, lab, s, e) in zip(back, want):
            assert fields == [utt_id, "%.6f" % s, "%.6f" % e, lab]

    def test_model_roundtrip(self, tmp_path):
        feats, _ = synth_unit_corpus(2, seed=10)
        cfg = AudConfig(num_units=4, states_per_unit=2, mix_components=1,
                        iterations=2, seed=10)
        model, _ = train_phone_loop(feats, cfg)
        p = str(tmp_path / "aud.npz")
        save_aud_model(p, model)
        back = load_aud_model(p)
        assert back.config == model.config
        x = feats[0].features
        assert forward_loglik(back, x) == pytest.approx(
            forward_loglik(model, x), abs=1e-9)
        assert decode_units(back, feats[0]) == decode_units(model, feats[0])
