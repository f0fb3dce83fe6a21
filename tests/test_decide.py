import math

import numpy as np
import pytest

from ampvbic.amp import VARIANCE_FLOOR, Posterior
from ampvbic.detector import _offset_llr_matrix, correct_phase, detect
from ampvbic.errors import ConfigError, DimensionMismatch, NumericalBreakdown
from ampvbic.model import build_alphabet
from oracles import detect_users, k_major, unit_posterior

LN_ONE_NINTH = -2.1972245773362196   # ln(1/9)
LN_HALF = -0.6931471805599453        # ln(1/2)

# At unit posterior and prior variance, |x|^2 = 2 ln 2 makes the offset
# ln(1/2) + 2 ln 2 (1 - 1/2) = 0, so the decision LLR shows the other terms.
ZERO_OFFSET_X = math.sqrt(2.0 * math.log(2.0))


def evidence_llr(resp, xhat):
    """The clustering-evidence term of each user's decision LLR."""
    return detect_users(resp, xhat, include_offset=False).llr_dec


def offset_llr(xhat, e_sym=1.0):
    """The summed offset term of each user's decision LLR, as detect()
    forms it."""
    return _offset_llr_matrix(unit_posterior(xhat), e_sym).sum(axis=1)


class TestVbiActivityLlr:

    def test_balanced_is_zero(self):
        resp = np.tile([0.5, 0.5], (10, 1))
        llr = evidence_llr(resp, np.zeros((1, 10)))
        assert llr[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        llr = evidence_llr([[0.9, 0.1]], [[0.0]])
        assert llr[0] == pytest.approx(LN_ONE_NINTH, rel=1e-9)

    def test_floor_keeps_llr_finite(self):
        llr = evidence_llr([[0.0, 1.0], [0.0, 1.0]], np.zeros((1, 2)))
        assert np.isfinite(llr[0])
        assert llr[0] > 100.0

    def test_sums_over_user_block(self):
        resp = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        llr = evidence_llr(resp, np.zeros((2, 2)))
        assert llr[0] == pytest.approx(2 * LN_ONE_NINTH, rel=1e-9)
        assert llr[1] == pytest.approx(-2 * LN_ONE_NINTH, rel=1e-9)


class TestOffsetLlr:

    def test_zero_mean(self):
        assert offset_llr([[0.0]])[0] == pytest.approx(LN_HALF, rel=1e-9)

    def test_unit_mean(self):
        # ln(1/2) + 1 - 1/2
        assert offset_llr([[1.0]])[0] == pytest.approx(LN_HALF + 0.5, rel=1e-9)

    def test_degenerate_prior_energy(self):
        # As the active prior variance shrinks to the inactive one, the
        # hypotheses coincide and the ratio vanishes.
        llr = offset_llr([[1.0 + 2.0j]], e_sym=1e-12)
        assert llr[0] == pytest.approx(0.0, abs=1e-9)


class TestDecisionLlr:

    def test_symmetric_prior(self):
        res = detect_users(np.full((4, 2), 0.5), np.full((1, 4), ZERO_OFFSET_X),
                           p_a=0.5)
        assert res.llr_dec[0] == pytest.approx(0.0, abs=1e-12)

    def test_prior_only(self):
        res = detect_users(np.full((2, 2), 0.5), np.full((1, 2), ZERO_OFFSET_X))
        assert res.llr_dec[0] == pytest.approx(LN_ONE_NINTH, rel=1e-9)

    def test_additivity(self):
        # ln 9 of evidence, offsets ln(1/2) and ln(1/2) + 1/2, no prior.
        res = detect_users([[0.1, 0.9], [0.5, 0.5]], [[0.0, 1.0]], p_a=0.5)
        assert res.llr_dec[0] == pytest.approx(
            -LN_ONE_NINTH + 2 * LN_HALF + 0.5, rel=1e-9)
        alph = build_alphabet("qpsk")
        resp, posterior, channel = _uniformish_setup(alph)
        res = detect(resp, posterior, channel, alph, 0.3)
        evidence = detect(resp, posterior, channel, alph, 0.3,
                          include_offset=False).llr_dec
        offset = _offset_llr_matrix(posterior, alph.E_sym).sum(axis=1)
        np.testing.assert_allclose(
            res.llr_dec, evidence + offset + math.log(0.3 / 0.7), rtol=1e-9)

    @pytest.mark.parametrize("p_a", [0.0, 1.0, -0.2, 1.3])
    def test_prior_bounds(self, p_a):
        with pytest.raises(ConfigError):
            detect_users([[0.5, 0.5]], [[0.0]], p_a=p_a)


def _uniformish_setup(alph, m=6, j=4, seed=31):
    """Random responsibilities/posterior for decision-level tests."""
    rng = np.random.default_rng(seed)
    resp = k_major(rng.dirichlet(np.ones(alph.K), size=m * j), m)
    posterior = Posterior(
        Xhat=0.3 * (rng.standard_normal((m, j)) + 1j * rng.standard_normal((m, j))),
        That=rng.uniform(0.05, 0.5, (m, j)))
    channel = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return resp, posterior, channel


class TestDetect:

    def setup_method(self):
        self.alph = build_alphabet("qpsk")

    def test_zero_decision_variance_is_floored(self):
        # The exact decision variance is handed over unfloored, and a
        # zero would take log(0) and 0/0 in the offset term: it is floored
        # where it is divided by, so the LLR is finite and equals, bit for
        # bit, the one at the floor.
        resp, posterior, channel = _uniformish_setup(self.alph, m=3)
        posterior.That[0] = 0.0
        posterior.That[2, 1] = 0.0
        floored = Posterior(posterior.Xhat,
                            np.maximum(posterior.That, VARIANCE_FLOOR))
        got = detect(resp, posterior, channel, self.alph, 0.1).llr_dec
        want = detect(resp, floored, channel, self.alph, 0.1).llr_dec
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_result_invariants(self):
        resp, posterior, channel = _uniformish_setup(self.alph)
        res = detect(resp, posterior, channel, self.alph, 0.1)
        active = res.activity_hat.astype(bool)
        assert np.array_equal(active, res.llr_dec > 0)
        assert not res.D_hat[~active].any()
        if active.any():
            vals = res.D_hat[active].ravel()
            assert np.all(np.isin(vals, self.alph.active_symbols))

    def test_forced_inactive_row_zeroed(self):
        # Heavy null responsibilities and tiny posterior means push the
        # decision LLR negative; the whole row must be zero.
        m, j = 2, 3
        resp = k_major(np.tile(
            np.concatenate(([0.99], np.full(self.alph.K - 1, 0.0025))),
            (m * j, 1)), m)
        posterior = Posterior(Xhat=np.zeros((m, j), dtype=complex),
                              That=np.full((m, j), 0.1))
        res = detect(resp, posterior, np.zeros(m, dtype=complex), self.alph, 0.1)
        assert not res.activity_hat.any()
        assert not res.D_hat.any()
        assert np.all(res.llr_dec < 0)

    def test_one_hot_symbols_recovered(self):
        m, j = 1, 4
        rng = np.random.default_rng(32)
        sym_idx = rng.integers(1, self.alph.K, m * j)
        rows = np.zeros((m * j, self.alph.K))
        rows[np.arange(m * j), sym_idx] = 1.0
        resp = k_major(rows, m)
        posterior = Posterior(Xhat=np.full((m, j), 2.0 + 0.0j),
                              That=np.full((m, j), 0.01))
        res = detect(resp, posterior, np.ones(m, dtype=complex), self.alph, 0.1)
        assert res.activity_hat[0] == 1
        assert np.array_equal(res.D_hat[0], self.alph.symbols[sym_idx])

    def test_tie_breaks_to_lowest_index(self):
        rows = np.zeros((2, self.alph.K))
        rows[:, 2] = 0.4
        rows[:, 4] = 0.4
        rows[:, 0] = 0.2
        posterior = Posterior(Xhat=np.full((1, 2), 3.0 + 0.0j),
                              That=np.full((1, 2), 0.01))
        res = detect(k_major(rows, 1), posterior, np.ones(1, dtype=complex), self.alph, 0.5)
        assert np.all(res.D_hat[0] == self.alph.symbols[2])

    def test_scaling_invariance_of_argmax(self):
        resp, posterior, channel = _uniformish_setup(self.alph, seed=33)
        res1 = detect(resp, posterior, channel, self.alph, 0.3)
        res2 = detect(resp * 7.5, posterior, channel, self.alph, 0.3)
        assert np.array_equal(res1.D_hat[res1.activity_hat.astype(bool)],
                              res2.D_hat[res2.activity_hat.astype(bool)])

    def test_monotone_in_activation_prior(self):
        resp, posterior, channel = _uniformish_setup(self.alph, seed=34)
        res_lo = detect(resp, posterior, channel, self.alph, 0.05)
        res_hi = detect(resp, posterior, channel, self.alph, 0.4)
        assert np.all(res_hi.llr_dec > res_lo.llr_dec)

    def test_rejects_observation_major_responsibilities(self):
        # (S, K) rows, the layout the clustering state no longer uses, and
        # a (K, M, J) array of another frame are both refused.
        resp, posterior, channel = _uniformish_setup(self.alph)
        with pytest.raises(DimensionMismatch):
            detect(resp.reshape(self.alph.K, -1).T, posterior, channel,
                   self.alph, 0.1)
        with pytest.raises(DimensionMismatch):
            detect(resp[:, :, :2], posterior, channel, self.alph, 0.1)

    def test_ablation_uses_clustering_evidence_only(self):
        resp, posterior, channel = _uniformish_setup(self.alph, seed=35)
        res = detect(resp, posterior, channel, self.alph, 0.1, include_offset=False)
        full = detect(resp, posterior, channel, self.alph, 0.1)
        offset = _offset_llr_matrix(posterior, self.alph.E_sym).sum(axis=1)
        assert np.allclose(res.llr_dec,
                           full.llr_dec - offset - math.log(0.1 / 0.9))
        assert np.array_equal(res.activity_hat, (res.llr_dec > 0).astype(np.int8))


class TestCorrectPhase:

    def setup_method(self):
        # One QPSK row whose slot 1 carries the reference symbol.
        self.alph = build_alphabet("qpsk")
        rng = np.random.default_rng(36)
        self.row = self.alph.active_symbols[rng.integers(0, 4, 6)]
        self.row[0] = self.alph.reference_symbol

    def test_identity(self):
        assert np.array_equal(correct_phase(self.row[None], self.alph),
                              self.row[None])

    def test_quarter_turn(self):
        corrected = correct_phase(1j * self.row[None], self.alph)
        assert np.allclose(corrected, self.row[None])

    def test_pi_rotation_round_trip(self):
        rotated = self.row * np.exp(1j * np.pi)
        corrected = correct_phase(rotated[None], self.alph)
        assert np.allclose(corrected, self.row[None], atol=1e-12)

    def test_zero_reference(self):
        block = self.row[None].copy()
        block[0, 0] = 0.0
        with pytest.raises(NumericalBreakdown,
                           match="detected reference symbol is zero"):
            correct_phase(block, self.alph)

    def test_snap_for_mixed_magnitudes(self):
        # A 16-point grid has three magnitude rings: correcting a row whose
        # detected reference is an inner-ring point (the true one is a
        # corner) rescales the row, and the snap puts every symbol back on
        # the grid.
        alph = build_alphabet("qam16")
        row = alph.symbols[[6, 5, 9, 16]]
        corrected = correct_phase(row[None], alph)
        assert np.all(np.isin(corrected, alph.active_symbols))
        raw = row * (alph.reference_symbol / row[0])
        assert not np.all(np.isin(raw, alph.active_symbols))

    def test_rs_slot_maps_exactly(self):
        alph = build_alphabet("qam16")
        row = alph.symbols[[4, 2, 8]]
        corrected = correct_phase(row[None], alph)
        assert corrected[0, 0] == alph.reference_symbol

    @pytest.mark.parametrize("modulation", ["qam16", "qpsk"])
    def test_block_matches_per_row_calls(self, modulation):
        # One call over a block of rows, as _finalize makes it, equals the
        # calls on one-row blocks: each row reads only its own slot 1.
        alph = build_alphabet(modulation)
        rng = np.random.default_rng(37)
        block = alph.active_symbols[rng.integers(0, alph.K - 1, (7, 5))]
        block *= 1j ** rng.integers(0, 4, (7, 1))
        want = np.concatenate([correct_phase(row[None], alph) for row in block])
        assert np.array_equal(correct_phase(block, alph), want)
        block[3, 0] = 0.0
        with pytest.raises(NumericalBreakdown,
                           match="detected reference symbol is zero"):
            correct_phase(block, alph)
