import dataclasses

import numpy as np
import pytest

from ampvbic.amp import VARIANCE_FLOOR, Posterior, PseudoObservations, \
    amp_decouple, amp_init
from ampvbic.errors import ConfigError, DimensionMismatch, \
    NumericalBreakdown
from ampvbic.model import build_alphabet
from ampvbic.vbic import vbic_init, warm_start_channel

from oracles import flat_prior, plain_amp_pass


class TestInit:

    def test_flat_prior(self):
        a = np.array([[1.0, 2.0j], [-3.0, 1.0 - 1.0j]])
        # The starting posterior is the detector's (test_detector checks
        # it); the state starts from a zero residual.
        state = amp_init(a, np.zeros((2, 1), dtype=complex), 1.0)
        assert not state.S_mat.any()
        assert state.S_mat.shape == (2, 1)
        # Column energies: |1|^2 + |-3|^2 and |2j|^2 + |1-1j|^2.
        assert np.allclose(state.col2, [10.0, 6.0], rtol=1e-12)

    def test_bad_dims(self):
        # No users, no chips, a 1-d A; a 1-d Y, Y rows other than A's, no
        # slots.
        for a_shape, y_shape in (((2, 0), (2, 1)), ((0, 2), (0, 1)),
                                 ((2,), (2, 1)), ((2, 2), (2,)),
                                 ((2, 2), (3, 1)), ((2, 2), (2, 0))):
            with pytest.raises(DimensionMismatch, match="non-empty 2-d"):
                amp_init(np.ones(a_shape, dtype=complex),
                         np.ones(y_shape, dtype=complex), 1.0)

    def test_zero_noise_var_is_config_error(self):
        with pytest.raises(ConfigError, match="noise_var must be > 0"):
            amp_init(np.ones((2, 3), dtype=complex),
                     np.ones((2, 2), dtype=complex), 0.0)

    @pytest.mark.parametrize("noise_var", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_noise_var_is_config_error(self, noise_var):
        # NaN fails every comparison and inf passes "> 0"; both are
        # rejected up front, not left to end as a NumericalBreakdown.
        with pytest.raises(ConfigError, match="noise_var must be > 0"):
            amp_init(np.ones((2, 3), dtype=complex),
                     np.ones((2, 2), dtype=complex), noise_var)


class TestDecouple:

    def test_scalar_hand_example(self):
        # One user, one chip, one slot: A=1, xhat=0, that=1, s=0, y=2,
        # noise 1.  Hand evaluation of the six update lines gives
        # tp=1, p=0, ts=0.5, s=1, tau=2, r=2.
        a = np.array([[1.0 + 0.0j]])
        y = np.array([[2.0 + 0.0j]])
        state = amp_init(a, y, 1.0)
        pseudo = amp_decouple(flat_prior(1, 1, 1.0), state)
        assert state.S_mat[0, 0] == pytest.approx(1.0, rel=1e-9)
        assert pseudo.Tau[0, 0] == pytest.approx(2.0, rel=1e-9)
        assert pseudo.R[0, 0] == pytest.approx(2.0, rel=1e-9)

    def test_variance_sum(self):
        # |A|^2 of a row of ones sums the incoming variances: tp = 2, so
        # ts = 1/(tp + 1) and each user's tau = 1/ts = 3.
        a = np.array([[1.0, 1.0]], dtype=complex)
        y = np.zeros((1, 1), dtype=complex)
        state = amp_init(a, y, 1.0)
        pseudo = amp_decouple(flat_prior(2, 1, 1.0), state)
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
        state = amp_init(a, x.copy(), 1e-12)
        post = Posterior(Xhat=x.copy(), That=flat_prior(n, j, alph.E_sym).That)
        for _ in range(10):
            pseudo = amp_decouple(post, state)
            assert np.max(np.abs(pseudo.R - x)) < 1e-6

    def test_positive_tau(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        a[rng.random((6, 9)) < 0.3] = 0.0  # sparse but no all-zero column
        assert np.all(np.abs(a).sum(axis=0) > 0)
        y = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        state = amp_init(a, y, 0.5)
        pseudo = amp_decouple(flat_prior(9, 3, 1.0), state)
        assert np.all(pseudo.Tau > 0)
        assert np.all(np.isfinite(pseudo.Tau))

    def test_determinism(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        y = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        out = []
        for _ in range(2):
            state, post = amp_init(a, y, 0.3), flat_prior(8, 2, 1.0)
            amp_decouple(post, state)
            out.append(amp_decouple(post, state))
        assert np.array_equal(out[0].R, out[1].R)
        assert np.array_equal(out[0].Tau, out[1].Tau)

    def test_shape_errors(self):
        # A and Y are the state's, checked once by amp_init; a pass checks
        # the posterior against the frame's (M, J).
        a = np.zeros((2, 3), dtype=complex)
        state = amp_init(a, np.zeros((2, 2), dtype=complex), 1.0)
        post = flat_prior(3, 2, 1.0)
        for shape in ((3, 3), (2, 2), (3,)):
            for bad in (Posterior(np.zeros(shape, dtype=complex), post.That),
                        Posterior(post.Xhat, np.ones(shape))):
                with pytest.raises(DimensionMismatch, match="posterior shape"):
                    amp_decouple(bad, state)

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
        state, post = amp_init(a, y, 0.5), flat_prior(m, j, 1.0)
        amp_decouple(post, state)
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
            amp_decouple(post, state)
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
        state = amp_init(a, y, noise_var)
        post = Posterior(Xhat=np.zeros((m, j), dtype=complex),
                         That=rng.uniform(0.1, 1.0, (m, j)))
        pseudo = amp_decouple(post, state)
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
        state, post = amp_init(a, y, noise_var), flat_prior(m, j, 1.0)
        col2, s_prev = state.col2, state.S_mat
        _, _, s_ref = plain_amp_pass(a, y, post, s_prev, noise_var,
                                     row_averaged=True)
        amp_decouple(post, state)
        assert state.col2 is col2
        assert state.noise_var == noise_var
        assert not s_prev.any()
        np.testing.assert_allclose(state.S_mat, s_ref, rtol=1e-12)

    def test_zero_variance_is_floored_at_the_input(self):
        # One-hot responsibilities give a factored variance of zero, or a
        # rounding error above it, and the clustering step hands it over
        # unfloored: the pass floors it on the way in, so it runs bit for
        # bit as a twin state's pass on the floored variance.  Column 0 is
        # all zero, so its prediction variance is the floor's alone.
        rng = np.random.default_rng(24)
        m, n, j = 30, 12, 4
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        that = rng.uniform(0.1, 1.0, (m, j))
        that[rng.random((m, j)) < 0.5] = 0.0
        that[:, 0] = 0.0
        xhat = 0.3 * (rng.standard_normal((m, j))
                      + 1j * rng.standard_normal((m, j)))
        zero, twin = amp_init(a, y, 0.4), amp_init(a, y, 0.4)
        for state in (zero, twin):
            amp_decouple(flat_prior(m, j, 1.0), state)
        got = amp_decouple(Posterior(xhat, that), zero)
        want = amp_decouple(
            Posterior(xhat, np.maximum(that, VARIANCE_FLOOR)), twin)
        for name, x, w in (("R", got.R, want.R), ("Tau", got.Tau, want.Tau),
                           ("S_mat", zero.S_mat, twin.S_mat)):
            assert np.array_equal(x.view(np.uint64), w.view(np.uint64)), name

    def test_state_holds_no_n_by_m_array(self):
        # A and Y are the caller's arrays, held by reference; every array
        # the state owns is M or N x J.
        rng = np.random.default_rng(22)
        m, n, j = 30, 12, 4
        a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
        state, post = amp_init(a, y, 0.5), flat_prior(m, j, 1.0)
        for passes in range(2):
            assert state.a_mat is a and state.y is y, passes
            shapes = {f.name: np.shape(getattr(state, f.name))
                      for f in dataclasses.fields(state)
                      if f.name not in ("a_mat", "y")}
            assert shapes == {"col2": (m,), "noise_var": (), "S_mat": (n, j)}, \
                passes
            amp_decouple(post, state)


def _check_against_plain_update(m, n, j, seed, noise_var=0.3, passes=5,
                                a=None, row_averaged=True):
    rng = np.random.default_rng(seed)
    if a is None:
        a = (rng.standard_normal((n, m))
             + 1j * rng.standard_normal((n, m))) / np.sqrt(2 * n)
    y = rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))
    state, post = amp_init(a, y, noise_var), flat_prior(m, j, 1.0)
    s_ref = np.zeros((n, j), dtype=complex)
    for it in range(passes):
        pseudo = amp_decouple(post, state)
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
