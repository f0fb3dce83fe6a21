import dataclasses

import numpy as np
import pytest

from ampvbic.amp import Posterior, PseudoObservations, amp_decouple, \
    amp_init
from ampvbic.errors import ConfigError, DimensionMismatch, \
    NumericalBreakdown
from ampvbic.model import build_alphabet
from ampvbic.vbic import vbic_init, warm_start_channel

from oracles import plain_amp_pass


class TestInit:

    def test_flat_prior(self):
        a = np.array([[1.0, 2.0j], [-3.0, 1.0 - 1.0j]])
        state, post = amp_init(a, 1, 1.0, 1.0)
        assert np.array_equal(post.That, [[1.0], [1.0]])
        assert not post.Xhat.any()
        assert not state.S_mat.any()
        assert state.S_mat.shape == (2, 1)
        # Column energies: |1|^2 + |-3|^2 and |2j|^2 + |1-1j|^2.
        assert np.allclose(state.col2, [10.0, 6.0], rtol=1e-12)

    def test_zero_energy(self):
        _, post = amp_init(np.ones((2, 3), dtype=complex), 4, 0.0, 1.0)
        assert not post.That.any()

    def test_bad_dims(self):
        with pytest.raises(DimensionMismatch):
            amp_init(np.zeros((2, 0), dtype=complex), 1, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            amp_init(np.ones((2, 2), dtype=complex), 0, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            amp_init(np.ones(2, dtype=complex), 1, 1.0, 1.0)

    @pytest.mark.parametrize("j", [2.5, True, 2.0], ids=["float", "bool",
                                                         "integral-float"])
    def test_non_int_slot_count(self, j):
        with pytest.raises(DimensionMismatch, match="positive integers"):
            amp_init(np.ones((2, 2), dtype=complex), j, 1.0, 1.0)

    def test_numpy_int_slot_count(self):
        _, post = amp_init(np.ones((2, 3), dtype=complex), np.int64(4), 1.0,
                           1.0)
        assert post.Xhat.shape == (3, 4)

    def test_zero_noise_var_is_config_error(self):
        with pytest.raises(ConfigError, match="noise_var must be > 0"):
            amp_init(np.ones((2, 3), dtype=complex), 2, 1.0, 0.0)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_noise_var_is_config_error(self, noise_var):
        # NaN fails every comparison and inf passes "> 0"; both are
        # rejected up front, not left to end as a NumericalBreakdown.
        with pytest.raises(ConfigError, match="noise_var must be > 0"):
            amp_init(np.ones((2, 3), dtype=complex), 2, 1.0, noise_var)


class TestDecouple:

    def test_scalar_hand_example(self):
        # One user, one chip, one slot: A=1, xhat=0, that=1, s=0, y=2,
        # noise 1.  Hand evaluation of the six update lines gives
        # tp=1, p=0, ts=0.5, s=1, tau=2, r=2.
        a = np.array([[1.0 + 0.0j]])
        y = np.array([[2.0 + 0.0j]])
        state, post = amp_init(a, 1, 1.0, 1.0)
        pseudo = amp_decouple(a, y, post, state)
        assert state.S_mat[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert pseudo.Tau[0, 0] == pytest.approx(2.0, rel=1e-9)
        assert pseudo.R[0, 0] == pytest.approx(2.0, rel=1e-9)

    def test_variance_sum(self):
        # |A|^2 of a row of ones sums the incoming variances: tp = 2, so
        # ts = 1/(tp + 1) and each user's tau = 1/ts = 3.
        a = np.array([[1.0, 1.0]], dtype=complex)
        y = np.zeros((1, 1), dtype=complex)
        state, post = amp_init(a, 1, 1.0, 1.0)
        pseudo = amp_decouple(a, y, post, state)
        assert pseudo.Tau == pytest.approx(np.full((2, 1), 3.0), rel=1e-9)

    def test_noiseless_identity_fixed_point(self):
        # Square identity mixing, vanishing noise, correct posterior means:
        # the pseudo observations equal the truth and stay there (zero
        # residual, so the scaled-residual memory never builds up).
        rng = np.random.default_rng(11)
        alph = build_alphabet("qpsk")
        n = 8
        j = 4
        x = (alph.active_symbols[rng.integers(0, 4, (n, j))]
             * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))))
        a = np.eye(n, dtype=complex)
        state, post = amp_init(a, j, alph.E_sym, 1e-12)
        post = Posterior(Xhat=x.copy(), That=post.That)
        for _ in range(10):
            pseudo = amp_decouple(a, x.copy(), post, state)
            assert np.max(np.abs(pseudo.R - x)) < 1e-6

    def test_positive_tau(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        a[rng.random((6, 9)) < 0.3] = 0.0  # sparse but no all-zero column
        assert np.all(np.abs(a).sum(axis=0) > 0)
        y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        state, post = amp_init(a, 3, 1.0, 0.5)
        pseudo = amp_decouple(a, y, post, state)
        assert np.all(pseudo.Tau > 0)
        assert np.all(np.isfinite(pseudo.Tau))

    def test_determinism(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        out = []
        for _ in range(2):
            state, post = amp_init(a, 2, 1.0, 0.3)
            amp_decouple(a, y, post, state)
            out.append(amp_decouple(a, y, post, state))
        assert np.array_equal(out[0].R, out[1].R)
        assert np.array_equal(out[0].Tau, out[1].Tau)

    def test_shape_errors(self):
        a = np.zeros((2, 3), dtype=complex)
        state, post = amp_init(a, 2, 1.0, 1.0)
        with pytest.raises(DimensionMismatch):
            amp_decouple(a, np.zeros((4, 2), dtype=complex), post, state)
        with pytest.raises(DimensionMismatch):
            amp_decouple(a, np.zeros((2, 5), dtype=complex), post, state)
        for a_in, y in ((a[0], np.zeros((2, 2), dtype=complex)),
                        (a, np.zeros(2, dtype=complex))):
            with pytest.raises(DimensionMismatch, match="2-d"):
                amp_decouple(a_in, y, post, state)
        # A state built for another frame shape is refused, not reused:
        # another N (the residual's rows), M (the column energies) or J
        # (the residual's columns) alone is enough.
        for shape, j in (((3, 3), 2), ((2, 4), 2), ((2, 3), 3)):
            other, _ = amp_init(np.zeros(shape, dtype=complex), j, 1.0, 1.0)
            with pytest.raises(DimensionMismatch):
                amp_decouple(a, np.zeros((2, 2), dtype=complex), post, other)

    @pytest.mark.parametrize("where", ["nan_in_y", "inf_in_posterior_mean",
                                       "zero_column_of_a"])
    def test_non_finite_pass_is_typed_breakdown(self, where):
        # The pass that meets the bad value fails, not the clustering step
        # that would read its pseudo observations next.  A zero column of A
        # has zero energy, so its Tau row is infinite and its row sum zero:
        # R = Xhat + inf * 0 is NaN, and the check on R alone catches it.
        rng = np.random.default_rng(17)
        m, n, j = 6, 4, 3
        a = (rng.standard_normal((n, m))
             + 1j * rng.standard_normal((n, m))) / np.sqrt(2 * n)
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        state, post = amp_init(a, j, 1.0, 0.5)
        amp_decouple(a, y, post, state)
        if where == "nan_in_y":
            y[1, 2] = np.nan
        elif where == "inf_in_posterior_mean":
            post.Xhat[3, 0] = np.inf
        else:
            a[:, 3] = 0.0
            state.col2[3] = 0.0
        s_prev = state.S_mat
        with np.errstate(invalid="ignore", divide="ignore"), \
                pytest.raises(NumericalBreakdown):
            amp_decouple(a, y, post, state)
        assert state.S_mat is s_prev

    def test_matches_plain_update(self):
        # The production pass (column energies kept on the state, the row
        # sum formed with the small J-row factor on the left) against the
        # row-averaged update lines written out with the full |A|^2,
        # carried over several passes at the reference size.
        _check_against_plain_update(m=200, n=100, j=10, seed=16)

    def test_matches_plain_update_at_large_frame(self):
        # Past the size where OpenBLAS's kernel choice for the two forms
        # differs, so a layout slip there cannot hide behind small sizes.
        _check_against_plain_update(m=800, n=400, j=10, seed=18)

    @pytest.mark.parametrize("m, n", [(200, 100), (800, 400)])
    def test_equals_exact_variance_pass_for_constant_modulus(self, m, n):
        # With |A[n, m]|^2 = 1 every row of the exact Tp is the same, so
        # averaging over the rows is no approximation and the production
        # pass equals the exact-variance pass.
        rng = np.random.default_rng(19)
        a = np.exp(2j * np.pi * rng.random((n, m)))
        _check_against_plain_update(m=m, n=n, j=10, seed=20, a=a,
                                    row_averaged=False)

    def test_tau_is_outer_product_of_column_energies_and_slot_precisions(self):
        rng = np.random.default_rng(21)
        m, n, j, noise_var = 30, 12, 4, 0.4
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        state, _ = amp_init(a, j, 1.0, noise_var)
        post = Posterior(Xhat=np.zeros((m, j), dtype=complex),
                         That=rng.uniform(0.1, 1.0, (m, j)))
        pseudo = amp_decouple(a, y, post, state)
        assert np.array_equal(state.col2, (np.abs(a) ** 2).sum(axis=0))
        # The slot precisions, written out: one per slot, a local of the pass.
        ts = 1.0 / ((state.col2 @ post.That) / n + noise_var)
        assert ts.shape == (j,)
        assert np.array_equal(pseudo.Tau, 1.0 / np.outer(state.col2, ts))

    def test_refreshes_the_state_it_is_given(self):
        # The pass advances the state object it is handed (the loop keeps
        # one AmpState per frame, test_detector checks it by identity): the
        # residual is rebound to this pass's S, the old array left as it
        # was, and the column energies and noise variance stay as they were.
        rng = np.random.default_rng(23)
        m, n, j, noise_var = 30, 12, 4, 0.4
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        state, post = amp_init(a, j, 1.0, noise_var)
        col2, s_prev = state.col2, state.S_mat
        _, _, s_ref = plain_amp_pass(a, y, post, s_prev, noise_var,
                                     row_averaged=True)
        amp_decouple(a, y, post, state)
        assert state.col2 is col2
        assert state.noise_var == noise_var
        assert not s_prev.any()
        np.testing.assert_allclose(state.S_mat, s_ref, rtol=1e-12)

    def test_state_holds_no_n_by_m_array(self):
        rng = np.random.default_rng(22)
        m, n, j = 30, 12, 4
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        state, post = amp_init(a, j, 1.0, 0.5)
        for passes in range(2):
            shapes = {f.name: np.shape(getattr(state, f.name))
                      for f in dataclasses.fields(state)}
            assert shapes == {"col2": (m,), "noise_var": (), "S_mat": (n, j)}, \
                passes
            amp_decouple(a, y, post, state)


def _check_against_plain_update(m, n, j, seed, noise_var=0.3, passes=5,
                                a=None, row_averaged=True):
    rng = np.random.default_rng(seed)
    if a is None:
        a = (rng.standard_normal((n, m))
             + 1j * rng.standard_normal((n, m))) / np.sqrt(2 * n)
    y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
    state, post = amp_init(a, j, 1.0, noise_var)
    s_ref = np.zeros((n, j), dtype=complex)
    for it in range(passes):
        pseudo = amp_decouple(a, y, post, state)
        r, tau, s_ref = plain_amp_pass(a, y, post, s_ref, noise_var,
                                       row_averaged=row_averaged)

        np.testing.assert_allclose(pseudo.R, r, rtol=1e-12)
        np.testing.assert_allclose(pseudo.Tau, tau, rtol=1e-12)
        np.testing.assert_allclose(state.S_mat, s_ref, rtol=1e-12)
        # The clustering step combines R elementwise with the C-ordered
        # (M, J) planes of its own state, so R stays row-major too.
        assert pseudo.R.flags.c_contiguous
        post = Posterior(Xhat=0.5 * pseudo.R,
                         That=rng.uniform(0.1, 0.3 + 0.1 * it, (m, j)))


class TestPseudoObservations:

    def test_warm_start_reads_reference_slot(self):
        # The channel warm start reads slot 1 of each user's row of R.
        alph = build_alphabet("qpsk")
        m, j = 4, 3
        r = np.arange(1, m * j + 1).reshape(m, j) * (1.0 + 0.5j)
        pseudo = PseudoObservations(R=r, Tau=np.ones((m, j)))
        state = vbic_init(alph, m, j)
        warm_start_channel(state, pseudo.R)
        assert np.array_equal(state.mu, r[:, 0] / alph.reference_symbol)
