import itertools
import math
import wave

import numpy as np
import pytest
from scipy.special import logsumexp

from attnseg.aud import (
    AudConfig,
    AudError,
    AudModel,
    FeatureSequence,
    MfccConfig,
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
    _estep_utterance,
    _Stats,
)
from attnseg.corpus import load_timed_units


# ---------------------------------------------------------------------------
# MFCC

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
        with pytest.raises(AudError):
            extract_mfcc(np.zeros(100), 16000)

    def test_low_rate_rejected(self):
        with pytest.raises(AudError):
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
            FeatureSequence("u1", 0.01, 0.025, rng.standard_normal((5, 3))),
            FeatureSequence("u2", 0.01, 0.025, rng.standard_normal((7, 3))),
        ]
        p = str(tmp_path / "f.npz")
        save_features(p, feats)
        back = load_features(p)
        assert [f.utt_id for f in back] == ["u1", "u2"]
        np.testing.assert_array_equal(back[0].features, feats[0].features)
        assert back[1].frame_step_s == 0.01


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
        feats.append(FeatureSequence("u%03d" % i, 0.01, 0.025, np.concatenate(frames)))
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


class TestPhoneLoopStructure:
    def test_config_validation(self):
        with pytest.raises(AudError):
            AudConfig(num_units=1)
        with pytest.raises(AudError):
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
        want = dense_estep(m, x)
        assert got.loglik == pytest.approx(want.loglik, rel=1e-9)
        for name in ("unit_entries", "stay_num", "stay_den", "comp_occ", "comp_sum",
                     "comp_sqsum"):
            # atol only absorbs the oracle's exp(-700) floor on counts that are 0
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-9, atol=1e-290, err_msg=name)

    @pytest.mark.parametrize("states,mix", CASES)
    def test_viterbi_matches_dense(self, states, mix):
        for seed in range(10):
            m = random_model(4, states, mix, seed=100 * seed + 10 * states + mix,
                             dead_unit=seed % 4)
            x = np.random.default_rng(seed).standard_normal((12, 2)) * 2.0
            f = FeatureSequence("u", 0.01, 0.025, x)
            assert frame_units(decode_units(m, f)) == dense_viterbi_units(m, x)

    @pytest.mark.parametrize("states", [1, 2, 3])
    def test_viterbi_ties_take_lowest_predecessor(self, states):
        # Features and means on a 2**30 grid with unit variances make every
        # emission an exact multiple of 2**59, which absorbs every arc weight
        # in rounding; paths with the same emission sum then tie exactly and
        # only the tie-breaking picks the path. Units 0 and 2 are identical.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            means = rng.integers(1, 3, (3, states, 1, 1)) * 2.0 ** 30
            means[2] = means[0]
            m = AudModel(
                config=AudConfig(num_units=3, states_per_unit=states, mix_components=1),
                log_pi=np.log(np.array([0.3, 0.3, 0.4])),
                stay=rng.uniform(0.2, 0.8, (3, states)),
                mix_weights=np.ones((3, states, 1)),
                means=means,
                variances=np.ones((3, states, 1, 1)),
            )
            x = rng.integers(0, 2, (10, 1)) * 3 * 2.0 ** 30
            assert np.all(m.emission_loglik(x) % 2.0 ** 59 == 0)
            units = frame_units(decode_units(m, FeatureSequence("u", 0.01, 0.025, x)))
            assert units == dense_viterbi_units(m, x), seed
            assert 2 not in units


class TestTraining:
    def test_objective_monotone(self):
        feats, _ = synth_unit_corpus(8, seed=1)
        cfg = AudConfig(num_units=6, states_per_unit=2, mix_components=1,
                        iterations=5, seed=1)
        _, objectives = train_phone_loop(feats, cfg)
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
        with pytest.raises(AudError):
            train_phone_loop([], AudConfig())


class TestDecoding:
    def test_viterbi_matches_exhaustive(self):
        rng = np.random.default_rng(5)
        m = tiny_model(units=2, states=2, seed=5)
        x = rng.standard_normal((4, 2))
        f = FeatureSequence("u", 0.01, 0.025, x)
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
        f = FeatureSequence("u", 0.01, 0.025, np.zeros((3, 5)))
        with pytest.raises(AudError):
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
        back = load_timed_units(p)
        for seq in seqs:
            got = back[seq.utt_id]
            assert [lab for lab, _, _ in got] == list(seq.labels())

    def test_model_roundtrip(self, tmp_path):
        feats, _ = synth_unit_corpus(2, seed=10)
        cfg = AudConfig(num_units=4, states_per_unit=2, mix_components=1,
                        iterations=2, seed=10)
        model, _ = train_phone_loop(feats, cfg)
        p = str(tmp_path / "aud.npz")
        save_aud_model(p, model)
        back = load_aud_model(p)
        x = feats[0].features
        assert forward_loglik(back, x) == pytest.approx(
            forward_loglik(model, x), abs=1e-9)
        assert decode_units(back, feats[0]) == decode_units(model, feats[0])
