import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from ampvbic.errors import DimensionMismatch, NumericalBreakdown
from ampvbic.model import ExtendedAlphabet, ScenarioConfig, build_alphabet, \
    generate_frame
from ampvbic.vbic import (posterior_moments, posterior_variance_full,
                          update_channel, update_dirichlet, update_gamma,
                          update_responsibilities, vbic_init, vbic_step,
                          warm_start_channel)
from oracles import (expected_log_pi, expected_log_tau, expected_sq_err,
                     flat_channel_sums, flat_gamma_rate, flat_rows,
                     flat_symbol_moments, k_major)

EULER_GAMMA = 0.5772156649015328606


def digamma_oracle(x: float) -> float:
    """Independent digamma: upward recurrence below 10, then the standard
    asymptotic series.  Good to ~1e-12 relative on (0.01, 1e6)."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = (math.log(x) - 0.5 / x
              - r * (1.0 / 12 - r * (1.0 / 120 - r * (1.0 / 252
                     - r * (1.0 / 240 - r * (1.0 / 132))))))
    return acc + series


def unit_alphabet() -> ExtendedAlphabet:
    """Two-symbol alphabet {0, 1}: the smallest case for hand evaluations."""
    return ExtendedAlphabet(symbols=np.array([0.0 + 0.0j, 1.0 + 0.0j]))


# Random states for the oracle comparisons.  The ranges keep every term
# small enough that the references' own rounding stays far below 1e-12.
STATE_RANGES = dict(seed=st.integers(min_value=0, max_value=2**31 - 1),
                    m=st.integers(min_value=2, max_value=4),
                    j=st.integers(min_value=2, max_value=5),
                    modulation=st.sampled_from(["qpsk", "qam16"]),
                    a=st.floats(min_value=1.01, max_value=1e3),
                    b=st.floats(min_value=1.0, max_value=1e3),
                    scale=st.floats(min_value=0.01, max_value=3.0))


def random_state(seed, m, j, modulation, a, b, scale):
    """A symbol-major state with random channel, precision and
    responsibilities, its observations and its alphabet."""
    rng = np.random.default_rng(seed)
    alph = build_alphabet(modulation)
    state = vbic_init(alph.K, m, j)
    state.mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    state.lam = rng.uniform(0.3, 50.0, m)
    state.a, state.b = a, b
    state.resp = k_major(rng.dirichlet(np.ones(alph.K), size=m * j), m)
    r = scale * (rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j)))
    return state, r, alph


class TestInit:

    def test_uniform_responsibilities(self):
        state = vbic_init(5, 2, 5)
        assert state.resp.shape == state.alpha.shape == (5, 2, 5)
        assert state.resp.flags.c_contiguous and state.alpha.flags.c_contiguous
        assert np.allclose(state.resp, 0.2)
        assert np.allclose(state.resp.sum(axis=0), 1.0)

    def test_prior_values(self):
        state = vbic_init(3, 2, 3)
        assert state.a == 1e-4
        assert state.b == 1.0
        assert np.all(state.alpha == 0.1)
        assert np.all(state.lam == 1.0)
        assert not state.mu.any()
        assert state.alpha.shape == state.resp.shape == (3, 2, 3)
        assert state.lam.shape == state.mu.shape == (2,)

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            vbic_init(1, 2, 3)  # fewer than two symbols
        with pytest.raises(DimensionMismatch):
            vbic_init(2, 2, 0)  # no slots

    @pytest.mark.parametrize("dims", [(5, 2, 2.5), (5.0, 2, 2), (5, True, 2),
                                      (5, 2, np.float64(3.0))],
                             ids=["float-j", "float-k", "bool-m", "float64-j"])
    def test_non_int_dims(self, dims):
        with pytest.raises(DimensionMismatch, match="bad dimensions"):
            vbic_init(*dims)

    def test_numpy_int_dims(self):
        state = vbic_init(np.int64(3), np.int32(2), np.uint8(4))
        assert state.resp.shape == (3, 2, 4)


class TestDirichlet:

    def test_single_increment(self):
        state = vbic_init(2, 1, 2)
        state.resp = k_major([[0.1, 0.9], [1.0, 0.0]], 1)
        update_dirichlet(state)
        assert state.alpha[1, 0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_zero_increment(self):
        state = vbic_init(2, 1, 2)
        state.resp = k_major(np.zeros((2, 2)), 1)
        update_dirichlet(state)
        assert np.all(state.alpha == 0.1)

    def test_accumulation_two_rounds(self):
        state = vbic_init(2, 1, 2)
        state.resp = k_major(np.full((2, 2), 0.5), 1)
        update_dirichlet(state)
        update_dirichlet(state)
        assert np.allclose(state.alpha, 1.1)


class TestChannel:

    def test_hand_example(self):
        # lam=1, mu=0, single observation, responsibility one-hot on d=1,
        # r=0.5: lam_bar = 1 + 1 = 2, mu_bar = (0 + 0.5)/2 = 0.25.
        state = vbic_init(2, 1, 1)
        state.resp = k_major([[0.0, 1.0]], 1)
        update_channel(state, np.array([[0.5 + 0.0j]]), unit_alphabet())
        assert state.lam[0] == pytest.approx(2.0, rel=1e-9)
        assert state.mu[0] == pytest.approx(0.25, rel=1e-9)

    def test_null_mass_carries_nothing(self):
        state = vbic_init(2, 1, 3)
        state.mu = np.array([0.7 - 0.2j])
        rows = np.zeros((3, 2))
        rows[:, 0] = 1.0  # all mass on the null symbol
        state.resp = k_major(rows, 1)
        r = np.array([[1.0, 2.0, 3.0]], dtype=complex)
        update_channel(state, r, unit_alphabet())
        assert state.lam[0] == pytest.approx(1.0, rel=1e-12)
        assert state.mu[0] == pytest.approx(0.7 - 0.2j, rel=1e-12)

    def test_least_squares_fixed_point(self):
        # One noiseless user with correct one-hot responsibilities and a
        # vanishing prior weight recovers the least-squares channel estimate.
        alph = build_alphabet("qpsk")
        rng = np.random.default_rng(21)
        j = 8
        mu_true = 0.9 * np.exp(1j * 0.6)
        sym_idx = rng.integers(1, alph.K, j)
        d_row = alph.symbols[sym_idx]
        r = mu_true * d_row[None, :]
        state = vbic_init(alph.K, 1, j)
        state.lam = np.array([1e-8])
        rows = np.zeros((j, alph.K))
        rows[np.arange(j), sym_idx] = 1.0
        state.resp = k_major(rows, 1)
        update_channel(state, r, alph)
        ls = np.sum(np.conj(d_row) * r) / np.sum(np.abs(d_row) ** 2)
        assert state.mu[0] == pytest.approx(ls, rel=1e-6)
        assert state.mu[0] == pytest.approx(mu_true, rel=1e-6)

    def test_wrong_obs_count(self):
        state = vbic_init(2, 2, 2)
        with pytest.raises(DimensionMismatch):
            update_channel(state, np.zeros(3, dtype=complex), unit_alphabet())

    def test_transposed_observations_rejected(self):
        # (J, M) has the right size but the wrong layout: rejected, not
        # reshaped into (M, J).
        state = vbic_init(2, 2, 3)
        with pytest.raises(DimensionMismatch):
            update_channel(state, np.zeros((3, 2), dtype=complex),
                           unit_alphabet())

    @settings(max_examples=100, deadline=None)
    @given(**STATE_RANGES)
    def test_matches_flat_oracle(self, seed, m, j, modulation, a, b, scale):
        state, r, alph = random_state(seed, m, j, modulation, a, b, scale)
        lam, mu = state.lam, state.mu
        weight, cross = flat_channel_sums(flat_rows(state.resp), r, alph)
        update_channel(state, r, alph)
        np.testing.assert_allclose(state.lam, lam + weight, rtol=0, atol=1e-12)
        np.testing.assert_allclose(state.mu, (lam * mu + cross) / (lam + weight),
                                   rtol=0, atol=1e-12)


class TestGamma:

    def test_shape_increment(self):
        state = vbic_init(2, 10, 200)
        lam, mu = state.lam, state.mu
        update_channel(state, np.zeros((10, 200), dtype=complex), unit_alphabet())
        update_gamma(state, np.zeros((10, 200), dtype=complex), lam, mu)
        assert state.a == pytest.approx(2000.0001, rel=1e-12)

    def test_all_zero_observations(self):
        state = vbic_init(2, 2, 2)
        r = np.zeros((2, 2), dtype=complex)
        lam, mu = state.lam, state.mu
        update_channel(state, r, unit_alphabet())
        update_gamma(state, r, lam, mu)
        assert state.b == pytest.approx(1.0, rel=1e-12)

    def test_hand_example(self):
        # Single observation r=1 with all mass on the null symbol: the
        # rate grows by exactly |r|^2.
        state = vbic_init(2, 1, 1)
        state.resp = k_major([[1.0, 0.0]], 1)
        r = np.array([[1.0 + 0.0j]])
        lam, mu = state.lam, state.mu
        update_channel(state, r, unit_alphabet())
        update_gamma(state, r, lam, mu)
        assert state.b == pytest.approx(2.0, rel=1e-9)

    def test_non_positive_scale(self):
        state = vbic_init(2, 1, 2)
        state.resp = k_major(np.zeros((2, 2)), 1)
        state.mu = np.array([3.0 + 0.0j])  # fabricated inconsistent refresh
        with pytest.raises(NumericalBreakdown, match="Gamma rate went"):
            update_gamma(state, np.zeros((1, 2), dtype=complex),
                         np.array([1.0]), np.array([0.0 + 0.0j]))

    def test_transposed_observations_rejected(self):
        state = vbic_init(2, 2, 3)
        lam, mu = state.lam, state.mu
        update_channel(state, np.zeros((2, 3), dtype=complex), unit_alphabet())
        with pytest.raises(DimensionMismatch):
            update_gamma(state, np.zeros((3, 2), dtype=complex), lam, mu)

    @settings(max_examples=100, deadline=None)
    @given(**STATE_RANGES)
    def test_matches_flat_oracle(self, seed, m, j, modulation, a, b, scale):
        state, r, alph = random_state(seed, m, j, modulation, a, b, scale)
        lam, mu = state.lam, state.mu
        update_channel(state, r, alph)
        want = flat_gamma_rate(state.b, lam, mu, state.lam, state.mu,
                               flat_rows(state.resp), r)
        update_gamma(state, r, lam, mu)
        assert state.b == pytest.approx(want, rel=0, abs=1e-12)

    def test_nan_observation(self):
        # A NaN pseudo observation makes the rate NaN, which `b <= 0` alone
        # would let through.
        state = vbic_init(2, 1, 2)
        r = np.array([[np.nan + 0.0j, 1.0 + 0.0j]])
        lam, mu = state.lam, state.mu
        update_channel(state, r, unit_alphabet())
        with pytest.raises(NumericalBreakdown, match="Gamma rate went"):
            update_gamma(state, r, lam, mu)


class TestExpectations:

    def test_log_pi_uniform(self):
        state = vbic_init(4, 1, 2)
        vals = expected_log_pi(state, 0)
        assert np.allclose(vals, vals[0])

    def test_log_pi_known_values(self):
        state = vbic_init(2, 1, 2)
        state.alpha = k_major([[1.0, 1.0], [2.0, 1.0]], 1)
        # psi(1) - psi(2) = -1 by the recurrence psi(x+1) = psi(x) + 1/x
        assert expected_log_pi(state, 0) == pytest.approx([-1.0, -1.0], rel=1e-9)
        # psi(2) - psi(3) = -1/2
        assert expected_log_pi(state, 1)[0] == pytest.approx(-0.5, rel=1e-9)

    def test_log_pi_matches_oracle(self):
        state = vbic_init(5, 1, 3)
        rng = np.random.default_rng(22)
        state.alpha = k_major(rng.uniform(0.05, 30.0, (3, 5)), 1)
        for s in range(3):
            row = flat_rows(state.alpha)[s]
            want = np.array([digamma_oracle(a) for a in row])
            want -= digamma_oracle(row.sum())
            assert np.allclose(expected_log_pi(state, s), want, atol=1e-10)

    def test_log_tau_values(self):
        state = vbic_init(2, 1, 2)
        state.a, state.b = 1.0, 1.0
        assert expected_log_tau(state) == pytest.approx(-EULER_GAMMA, rel=1e-9)
        state.a = 2.0
        assert expected_log_tau(state) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-9)
        state.a, state.b = 1.0, math.e
        assert expected_log_tau(state) == pytest.approx(-EULER_GAMMA - 1.0, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1e6))
    def test_digamma_agreement(self, x):
        assert digamma(x) == pytest.approx(digamma_oracle(x), rel=1e-10, abs=1e-10)

    def test_gamma_inverse_moment_sampling(self):
        # E[1/tau] for tau ~ Gamma(shape=a, rate=b) equals b/(a-1): the
        # identity behind the posterior variance scaling.
        a, b = 3.0, 2.0
        rng = np.random.default_rng(99)
        draws = rng.gamma(shape=a, scale=1.0 / b, size=2_000_000)
        assert np.mean(1.0 / draws) == pytest.approx(b / (a - 1.0), abs=5e-3)


class TestSquaredError:

    def test_null_symbol(self):
        state = vbic_init(2, 1, 2)
        state.a, state.b = 2.0, 4.0
        r = 1.5 - 0.5j
        want = (2.0 / 4.0) * abs(r) ** 2
        assert expected_sq_err(state, 0, 0, r, unit_alphabet()) == pytest.approx(
            want, rel=1e-9)

    def test_perfect_match_no_uncertainty(self):
        state = vbic_init(2, 1, 2)
        state.a, state.b = 1.0, 1.0
        state.mu = np.array([0.8 + 0.3j])
        state.lam = np.array([1e15])
        r = state.mu[0] * 1.0
        assert expected_sq_err(state, 0, 1, r, unit_alphabet()) == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_example(self):
        state = vbic_init(2, 1, 2)
        state.a = state.b = 1.0
        state.lam = np.array([1.0])
        state.mu = np.array([1.0 + 0.0j])
        # (1/1)*(1 + 1 - 2) + 1/1 = 1
        assert expected_sq_err(state, 0, 1, 1.0 + 0.0j, unit_alphabet()) == \
            pytest.approx(1.0, rel=1e-9)


class TestResponsibilities:

    def test_transposed_observations_rejected(self):
        # A (J, M) r on an (M, J) state with M != J: a typed error, not
        # numpy's broadcast ValueError.
        state = vbic_init(2, 2, 3)
        with pytest.raises(DimensionMismatch):
            update_responsibilities(state, np.zeros((3, 2), dtype=complex),
                                    unit_alphabet())

    def test_symmetric_clusters(self):
        state = vbic_init(2, 1, 2)
        state.a, state.b = 1.0, 1.0
        state.lam = np.array([1e18])  # suppress the |d|^2/lam asymmetry
        state.mu = np.array([0.0 + 0.0j])
        update_responsibilities(state, np.array([[0.3 + 0.1j, 0.0j]]),
                                unit_alphabet())
        assert np.allclose(state.resp, 0.5, atol=1e-9)

    def test_softmax_saturation(self):
        # Squared-error gap of 50 puts all but ~2e-22 of the mass on one side.
        state = vbic_init(2, 1, 1)
        state.a = state.b = 1.0
        state.lam = np.array([1e18])
        state.mu = np.array([math.sqrt(50.0) + 0.0j])
        r = np.array([[math.sqrt(50.0) + 0.0j]])  # exact fit for d=1, 50 off for d=0
        update_responsibilities(state, r, unit_alphabet())
        assert state.resp[1, 0, 0] >= 1.0 - 2e-22

    def test_hand_softmax(self):
        # ln rho = [0, ln 3] (up to a common shift) -> e = [0.25, 0.75].
        # With unit precision and no channel uncertainty the gap in the
        # squared errors is |r|^2 - |r - mu|^2 = 2r - 1 for real r, mu=1;
        # choosing r = (1 + ln3)/2 makes it ln 3 exactly.
        state = vbic_init(2, 1, 1)
        state.a = state.b = 1.0
        state.lam = np.array([1e18])
        state.mu = np.array([1.0 + 0.0j])
        r = np.array([[(1.0 + math.log(3.0)) / 2.0 + 0.0j]])
        update_responsibilities(state, r, unit_alphabet())
        assert flat_rows(state.resp)[0] == pytest.approx([0.25, 0.75], rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(**STATE_RANGES)
    def test_matches_scalar_oracle_softmax(self, seed, m, j, modulation,
                                           a, b, scale):
        # The production update drops every term that is constant for an
        # observation; the oracle keeps them all, one scalar call per
        # (s, k).  The ranges keep ln rho small enough that the oracle's
        # own rounding stays far below the tolerance.
        rng = np.random.default_rng(seed)
        alph = build_alphabet(modulation)
        state = vbic_init(alph.K, m, j)
        state.mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        state.lam = rng.uniform(0.3, 50.0, m)
        state.a, state.b = a, b
        state.alpha = k_major(rng.uniform(0.05, 20.0, (m * j, alph.K)), m)
        r = scale * (rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j)))
        ln_rho = np.array([
            [expected_log_tau(state) - math.log(math.pi)
             + expected_log_pi(state, s)[k]
             - expected_sq_err(state, s, k, r.flat[s], alph)
             for k in range(alph.K)]
            for s in range(m * j)])
        want = np.exp(ln_rho - ln_rho.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        update_responsibilities(state, r, alph)
        np.testing.assert_allclose(flat_rows(state.resp), want, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_rows_normalized_and_variance_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        alph = build_alphabet("qpsk" if seed % 2 else "qam16")
        m, j = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        state = vbic_init(alph.K, m, j)
        state.mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        state.lam = rng.uniform(0.3, 50.0, m)
        state.a = rng.uniform(1.01, 1e4)
        state.b = rng.uniform(0.1, 1e4)
        state.alpha = k_major(rng.uniform(0.05, 20.0, (m * j, alph.K)), m)
        scale = rng.uniform(0.01, 30.0)
        r = scale * (rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j)))
        update_responsibilities(state, r, alph)
        assert np.allclose(state.resp.sum(axis=0), 1.0, atol=1e-9)
        post = posterior_moments(state, alph)
        assert np.all(post.That >= 0.0)


class TestMoments:

    def test_one_hot_mass(self):
        alph = build_alphabet("qpsk")
        state = vbic_init(alph.K, 1, 4)
        state.a, state.b = 2.0, 1.0
        state.mu = np.array([0.5 - 0.5j])
        rows = np.zeros((4, alph.K))
        rows[:, 3] = 1.0
        state.resp = k_major(rows, 1)
        post = posterior_moments(state, alph)
        assert np.allclose(post.Xhat, state.mu[0] * alph.symbols[3])
        assert np.allclose(post.That, 1e-12)  # zero spread floors out

    def test_symmetric_mean_cancels(self):
        alph = build_alphabet("qpsk")
        state = vbic_init(alph.K, 1, 2)
        state.a = 2.0
        state.mu = np.array([1.0 + 0.0j])
        rows = np.zeros((2, alph.K))
        rows[:, 1:] = 0.25
        state.resp = k_major(rows, 1)
        post = posterior_moments(state, alph)
        assert np.allclose(post.Xhat, 0.0, atol=1e-12)

    def test_hand_example(self):
        # e = [0.5, 0.5] over {0, 1}, mu=1, b=lam=1, a=2:
        # xhat = 0.5, that = 1 * (0.5 - 0.25) = 0.25.
        state = vbic_init(2, 1, 1)
        state.a = 2.0
        state.mu = np.array([1.0 + 0.0j])
        state.resp = k_major([[0.5, 0.5]], 1)
        post = posterior_moments(state, unit_alphabet())
        assert post.Xhat[0, 0] == pytest.approx(0.5, rel=1e-9)
        assert post.That[0, 0] == pytest.approx(0.25, rel=1e-9)

    def test_precision_degenerate(self):
        state = vbic_init(2, 1, 2)
        state.a = 1.0
        with pytest.raises(NumericalBreakdown, match="Gamma shape must exceed 1"):
            posterior_moments(state, unit_alphabet())

    def test_non_finite_responsibilities(self):
        # A typed error, not an assert that `python -O` strips.
        state = vbic_init(2, 1, 2)
        state.a = 2.0
        state.resp = k_major([[0.5, 0.5], [np.nan, np.nan]], 1)
        with pytest.raises(NumericalBreakdown):
            posterior_moments(state, unit_alphabet())

    def test_full_variance_adds_mean_terms(self):
        # Same hand case: exact Var[mu d] = v E|d|^2 + |mu|^2 spread
        #                = 1*0.5 + 1*0.25 = 0.75.
        state = vbic_init(2, 1, 1)
        state.a = 2.0
        state.mu = np.array([1.0 + 0.0j])
        state.resp = k_major([[0.5, 0.5]], 1)
        var = posterior_variance_full(state, unit_alphabet())
        assert var[0, 0] == pytest.approx(0.75, rel=1e-9)

    def test_full_variance_keeps_channel_term_for_point_mass(self):
        # One-hot responsibilities: factored variance floors at ~0 but the
        # exact one retains the channel-estimate uncertainty v*|d|^2.
        state = vbic_init(2, 1, 1)
        state.a, state.b = 3.0, 4.0
        state.lam = np.array([2.0])
        state.mu = np.array([5.0 + 0.0j])
        state.resp = k_major([[0.0, 1.0]], 1)
        v = 4.0 / (2.0 * (3.0 - 1.0))
        assert posterior_variance_full(state, unit_alphabet())[0, 0] == \
            pytest.approx(v, rel=1e-9)


    @settings(max_examples=100, deadline=None)
    @given(**STATE_RANGES)
    def test_matches_flat_oracle(self, seed, m, j, modulation, a, b, scale):
        state, r, alph = random_state(seed, m, j, modulation, a, b, scale)
        mean_d, e_abs_d2 = flat_symbol_moments(flat_rows(state.resp), alph, m)
        post = posterior_moments(state, alph)
        np.testing.assert_allclose(post.Xhat, state.mu[:, None] * mean_d,
                                   rtol=0, atol=1e-12)
        # v E|d|^2 + |mu|^2 spread, with the 1e-12 tolerance on E|d|^2 and
        # on the spread carried through their factors v and |mu|^2.
        spread = np.maximum(e_abs_d2 - np.abs(mean_d) ** 2, 0.0)
        v = (state.b / (state.lam * (state.a - 1.0)))[:, None]
        mu2 = (np.abs(state.mu) ** 2)[:, None]
        want = np.maximum(v * e_abs_d2 + mu2 * spread, 1e-12)
        assert np.all(np.abs(posterior_variance_full(state, alph) - want)
                      <= 1e-12 * (v + mu2))

    def test_full_variance_needs_no_moments_call(self):
        # posterior_variance_full reads only the state: the same array
        # with or without a preceding posterior_moments call.
        state, _, alph = random_state(26, 3, 4, "qam16", 5.0, 2.0, 1.0)
        alone = posterior_variance_full(state, alph)
        posterior_moments(state, alph)
        assert np.array_equal(posterior_variance_full(state, alph), alone)
        state.a = 1.0
        with pytest.raises(NumericalBreakdown, match="Gamma shape must exceed 1"):
            posterior_variance_full(state, alph)

    def test_per_user_broadcast_matches_flat_index(self):
        # Both moment functions broadcast mu and lam over the (M, J) view;
        # the reference indexes them per flat observation with
        # m = s // J (np.repeat), as the formulas are written.
        alph = build_alphabet("qam16")
        rng = np.random.default_rng(25)
        m, j = 3, 4
        state = vbic_init(alph.K, m, j)
        state.a, state.b = 7.0, 3.0
        state.mu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        state.lam = rng.uniform(0.5, 20.0, m)
        state.resp = k_major(rng.dirichlet(np.ones(alph.K), size=m * j), m)
        post = posterior_moments(state, alph)
        full = posterior_variance_full(state, alph)

        idx = np.repeat(np.arange(m), j)
        # The symbol moments as the detector forms them, one real product
        # against [Re d; Im d; |d|^2], flat over s; the complex flat forms
        # agree to 1e-12 (test_matches_flat_oracle).
        d = alph.symbols
        re_d, im_d, e_abs_d2 = (np.stack((d.real, d.imag, np.abs(d) ** 2))
                                @ state.resp.reshape(alph.K, m * j))
        mean_d = re_d + 1j * im_d
        spread = np.maximum(e_abs_d2 - (re_d ** 2 + im_d ** 2), 0.0)
        v = state.b / (state.lam[idx] * (state.a - 1.0))
        assert np.array_equal(post.Xhat.ravel(), state.mu[idx] * mean_d)
        assert np.array_equal(post.That.ravel(), np.maximum(v * spread, 1e-12))
        assert np.array_equal(full.ravel(), np.maximum(
            v * e_abs_d2 + np.abs(state.mu[idx]) ** 2 * spread, 1e-12))


class TestStep:

    def test_warm_start_transposed_observations_rejected(self):
        # A (J, M) r would otherwise set a length-J channel mean silently.
        state = vbic_init(2, 2, 3)
        with pytest.raises(DimensionMismatch):
            warm_start_channel(state, np.ones((3, 2), dtype=complex),
                               unit_alphabet())
        assert state.mu.shape == (2,)

    def test_shapes(self):
        alph = build_alphabet("qam16")
        state = vbic_init(alph.K, 3, 4)
        state.mu = np.ones(3, dtype=complex)
        post = vbic_step(state, np.zeros((3, 4), dtype=complex), alph)
        assert post.Xhat.shape == (3, 4)
        assert post.That.shape == (3, 4)

    def test_nan_pseudo_observation_is_typed_breakdown(self):
        alph = build_alphabet("qpsk")
        state = vbic_init(alph.K, 2, 4)
        r = np.ones((2, 4), dtype=complex)
        warm_start_channel(state, r, alph)
        r[1, 1] = complex(np.nan, 0.0)
        with pytest.raises(NumericalBreakdown):
            vbic_step(state, r, alph)

    def test_all_zero_observations_zero_channel(self):
        alph = build_alphabet("qpsk")
        state = vbic_init(alph.K, 2, 4)
        for _ in range(3):
            vbic_step(state, np.zeros((2, 4), dtype=complex), alph)
        assert np.allclose(np.abs(state.mu), 0.0, atol=1e-12)

    def test_noiseless_single_user_recovers_symbols(self):
        # End-to-end clustering oracle: exact observations r = mu * d, a
        # reference-symbol warm start, five passes; the responsibility
        # argmax must match the true symbol index at every slot.
        alph = build_alphabet("qpsk")
        rng = np.random.default_rng(23)
        j = 10
        mu_true = 0.8 * np.exp(1j * 0.7)
        sym_idx = np.concatenate(([1], rng.integers(1, alph.K, j - 1)))
        r = mu_true * alph.symbols[sym_idx][None, :]
        state = vbic_init(alph.K, 1, j)
        warm_start_channel(state, r, alph)
        assert state.mu[0] == pytest.approx(mu_true, rel=1e-12)
        for _ in range(5):
            vbic_step(state, r, alph)
            assert np.allclose(state.resp.sum(axis=0), 1.0, atol=1e-9)
        assert np.array_equal(flat_rows(state.resp).argmax(axis=1), sym_idx)

    def test_qam16_single_user(self):
        alph = build_alphabet("qam16")
        rng = np.random.default_rng(24)
        j = 12
        mu_true = 1.1 * np.exp(-1j * 0.4)
        sym_idx = np.concatenate(([1], rng.integers(1, alph.K, j - 1)))
        r = mu_true * alph.symbols[sym_idx][None, :]
        state = vbic_init(alph.K, 1, j)
        warm_start_channel(state, r, alph)
        for _ in range(5):
            vbic_step(state, r, alph)
        assert np.array_equal(flat_rows(state.resp).argmax(axis=1), sym_idx)
