import pickle
import warnings

import numpy as np
import pytest

from ampvbic.errors import ConfigError
from ampvbic.model import (Modulation, ScenarioConfig, build_alphabet,
                           draw_spreading_matrix, generate_frame,
                           noise_variance_from_snr)

QPSK_POINTS = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}


class TestAlphabet:

    def test_qpsk(self):
        alph = build_alphabet("qpsk")
        assert alph.K == 5
        assert alph.E_sym == pytest.approx(1.0, rel=1e-12)
        assert alph.symbols[0] == 0
        got = {complex(round(d.real * np.sqrt(2)), round(d.imag * np.sqrt(2)))
               for d in alph.active_symbols}
        assert got == QPSK_POINTS

    def test_qam16(self):
        alph = build_alphabet(Modulation.QAM16)
        assert alph.K == 17
        assert alph.E_sym == pytest.approx(1.0, rel=1e-12)
        assert alph.symbols[0] == 0
        grid = {(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
        got = {(round(d.real * np.sqrt(10)), round(d.imag * np.sqrt(10)))
               for d in alph.active_symbols}
        assert got == grid

    @pytest.mark.parametrize("mod", ["qpsk", "qam16"])
    def test_invariants(self, mod):
        alph = build_alphabet(mod)
        active = alph.active_symbols
        assert len(set(active.tolist())) == alph.K - 1
        assert alph.E_sym == pytest.approx(np.mean(np.abs(active) ** 2), rel=1e-12)
        # deterministic order: reference symbol is the lexicographic minimum
        assert alph.reference_symbol == min(active.tolist(),
                                            key=lambda z: (z.real, z.imag))

    def test_unknown_modulation(self):
        with pytest.raises(ValueError):
            build_alphabet("bpsk")

    @pytest.mark.parametrize("mod", ["qpsk", "qam16"])
    def test_symbol_basis_built_once_and_read_only(self, mod):
        alph = build_alphabet(mod)
        d = alph.symbols
        basis = alph.symbol_basis
        assert np.array_equal(basis, [d.real, d.imag, np.abs(d) ** 2])
        assert basis.shape == (3, alph.K)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[2, 0] = 1.0
        assert alph.symbol_basis is basis

    def test_one_alphabet_per_modulation(self):
        qpsk = build_alphabet("qpsk")
        assert build_alphabet(Modulation.QPSK) is qpsk
        assert build_alphabet("qpsk") == build_alphabet(Modulation.QPSK)
        assert qpsk != build_alphabet("qam16")
        assert hash(qpsk) == hash(build_alphabet("qpsk"))
        assert len({qpsk, build_alphabet("qpsk"), build_alphabet("qam16")}) == 2

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("mod", ["qpsk", "qam16"])
    def test_pickle_round_trip_stays_read_only(self, mod, cached):
        # An alphabet sent to another process must stay read-only.
        alph = build_alphabet(mod)
        if cached:
            alph.symbol_basis
        copy = pickle.loads(pickle.dumps(alph))
        assert np.array_equal(copy.symbols, alph.symbols)
        assert (copy.K, copy.E_sym) == (alph.K, alph.E_sym)
        assert np.array_equal(copy.symbol_basis, alph.symbol_basis)
        assert not copy.symbols.flags.writeable
        assert not copy.symbol_basis.flags.writeable


class TestNoiseVariance:

    def test_zero_db(self):
        assert noise_variance_from_snr(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_ten_db(self):
        assert noise_variance_from_snr(10.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_three_db_esym_two(self):
        # hand evaluation: 2 * 10**(-0.3)
        assert noise_variance_from_snr(3.0, 2.0) == pytest.approx(
            1.0023744672545445, rel=1e-9)

    def test_bad_esym(self):
        with pytest.raises(ConfigError):
            noise_variance_from_snr(0.0, 0.0)

    @pytest.mark.parametrize("snr_db", [-4000.0, -3081.0])
    def test_overflow_is_config_error(self, snr_db):
        # -3081 dB overflows only in the product with E_sym = 2.
        with pytest.raises(ConfigError, match="noise variance"):
            noise_variance_from_snr(snr_db, 2.0)

    @pytest.mark.parametrize("snr_db", [np.float64(-4000.0), np.float32(-4000.0)],
                             ids=["float64", "float32"])
    def test_numpy_overflow_is_config_error_without_warning(self, snr_db):
        # A numpy scalar (as from an array of sweep values) overflows in
        # numpy's power, which warns instead of raising OverflowError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="noise variance"):
                noise_variance_from_snr(snr_db, 1.0)


class TestSpreadingMatrix:

    def test_shape(self):
        a = draw_spreading_matrix(2, 3, np.random.default_rng(0))
        assert a.shape == (2, 3)
        assert a.dtype == complex

    def test_unit_variance_monte_carlo(self):
        a = draw_spreading_matrix(1000, 1000, np.random.default_rng(7))
        assert np.mean(np.abs(a) ** 2) == pytest.approx(1.0, abs=0.01)
        # circular symmetry: real and imaginary parts carry half the energy
        assert np.mean(a.real ** 2) == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("shape", [(100, 200), (1000, 2000), (3, 7)])
    def test_bit_identical_to_complex_expression(self, shape):
        # The matrix is written part by part into one array; it must be the
        # complex expression below bit for bit, and leave the generator in
        # the same state.
        for seed in range(5):
            rng_old = np.random.default_rng(seed)
            old = (rng_old.standard_normal(shape)
                   + 1j * rng_old.standard_normal(shape)) / np.sqrt(2.0)
            rng_new = np.random.default_rng(seed)
            new = draw_spreading_matrix(*shape, rng_new)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
            assert rng_new.random() == rng_old.random()

    def test_seed_determinism(self):
        a1 = draw_spreading_matrix(20, 30, np.random.default_rng(42))
        a2 = draw_spreading_matrix(20, 30, np.random.default_rng(42))
        assert np.array_equal(a1, a2)


class TestScenarioConfig:

    VALID = dict(M=10, N=5, J=4, p_a=0.2, snr_db=5.0)

    def test_valid(self):
        cfg = ScenarioConfig(M=10, N=5, J=4, p_a=0.2, snr_db=5.0)
        assert cfg.modulation is Modulation.QAM16

    @pytest.mark.parametrize("kwargs", [
        dict(M=0, N=5, J=4, p_a=0.2, snr_db=5.0),
        dict(M=10, N=0, J=4, p_a=0.2, snr_db=5.0),
        dict(M=10, N=5, J=1, p_a=0.2, snr_db=5.0),
        dict(M=10, N=5, J=4, p_a=-0.1, snr_db=5.0),
        dict(M=10, N=5, J=4, p_a=1.5, snr_db=5.0),
        dict(M=10, N=5, J=4, p_a=0.2, snr_db=5.0, n_it=0),
        dict(M=10, N=5, J=4, p_a=0.2, snr_db=np.inf),
        dict(M=10, N=5, J=4, p_a=0.2, snr_db=np.nan),
        dict(M=10, N=5, J=4, p_a=0.0, snr_db=5.0),
        dict(M=10, N=5, J=4, p_a=1.0, snr_db=5.0),
        dict(M=10, N=5, J=4, p_a=0.2, snr_db=4000.0),
        dict(M=10, N=5, J=4, p_a=0.2, snr_db=-4000.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("field", ["M", "N", "J", "p_a", "snr_db",
                                       "n_it", "seed"])
    @pytest.mark.parametrize("value", ["5", None, True])
    def test_non_numeric_field(self, field, value):
        kwargs = {**self.VALID, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be a number"):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("field", ["M", "N", "J", "n_it", "seed"])
    @pytest.mark.parametrize("value", [12.7, np.inf, np.nan])
    def test_non_integral_field(self, field, value):
        kwargs = {**self.VALID, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("value", ["bpsk", 16, None])
    def test_unknown_modulation(self, value):
        with pytest.raises(ConfigError,
                           match=r"modulation must be one of \['qpsk', 'qam16'\]"):
            ScenarioConfig(**self.VALID, modulation=value)

    @pytest.mark.parametrize("value", [-3, -1.0, np.int64(-1)])
    def test_negative_seed(self, value):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            ScenarioConfig(**self.VALID, seed=value)

    def test_integral_values_stored_as_int(self):
        cfg = ScenarioConfig(M=np.int64(10), N=5.0, J=4, p_a=0.2, snr_db=5.0,
                             n_it=np.float64(3.0), seed=np.uint32(7))
        assert [(type(v), v) for v in (cfg.M, cfg.N, cfg.n_it, cfg.seed)] \
            == [(int, 10), (int, 5), (int, 3), (int, 7)]


class TestGenerateFrame:

    def setup_method(self):
        self.alph = build_alphabet("qam16")

    def test_all_inactive(self):
        cfg = ScenarioConfig(M=20, N=10, J=4, p_a=0.2, snr_db=5.0)
        fr = generate_frame(cfg, np.random.default_rng(1), n_active=0)
        assert not fr.activity.any()
        assert not fr.D.any()
        assert not fr.X.any()
        # Y is pure noise with the configured variance
        assert np.mean(np.abs(fr.Y) ** 2) == pytest.approx(fr.noise_var, rel=0.5)

    def test_all_active_noiseless(self):
        cfg = ScenarioConfig(M=8, N=8, J=4, p_a=0.5, snr_db=300.0)
        fr = generate_frame(cfg, np.random.default_rng(2), n_active=cfg.M)
        assert fr.activity.all()
        assert np.allclose(fr.Y, fr.A @ fr.X, atol=1e-12)

    def test_noise_variance_overflow_is_config_error(self):
        with pytest.raises(ConfigError, match="noise variance"):
            ScenarioConfig(M=8, N=8, J=4, p_a=0.5, snr_db=-4000.0)

    def test_zero_noise_variance_frame(self):
        assert noise_variance_from_snr(4000.0, 1.0) == 0.0
        with pytest.raises(ConfigError, match="noise variance 0"):
            ScenarioConfig(M=8, N=8, J=4, p_a=0.5, snr_db=4000.0)

    def test_mean_active_count(self):
        cfg = ScenarioConfig(M=200, N=1, J=2, p_a=0.1, snr_db=5.0)
        rng = np.random.default_rng(3)
        count = sum(generate_frame(cfg, rng).activity.sum()
                    for _ in range(10_000))
        assert count / 10_000 == pytest.approx(20.0, abs=0.5)

    def test_joint_sparsity_and_rs(self):
        cfg = ScenarioConfig(M=50, N=20, J=6, p_a=0.3, snr_db=5.0)
        fr = generate_frame(cfg, np.random.default_rng(4))
        active = fr.activity.astype(bool)
        assert not fr.X[~active].any()
        assert not fr.D[~active].any()
        assert np.all(fr.D[active, 0] == self.alph.reference_symbol)
        data = fr.D[active][:, 1:].ravel()
        assert np.all(np.isin(data, self.alph.active_symbols))
        assert not fr.mu[~active].any()

    def test_model_equation(self):
        cfg = ScenarioConfig(M=30, N=15, J=5, p_a=0.5, snr_db=8.0)
        fr = generate_frame(cfg, np.random.default_rng(5))
        w = fr.Y - fr.A @ fr.X
        assert np.allclose(fr.X, fr.mu[:, None] * fr.D)
        assert np.mean(np.abs(w) ** 2) == pytest.approx(fr.noise_var, rel=0.3)

    def test_channel_statistics(self):
        cfg = ScenarioConfig(M=400, N=1, J=2, p_a=0.5, snr_db=5.0)
        rng = np.random.default_rng(6)
        gains = np.concatenate([
            fr.mu[fr.activity.astype(bool)]
            for fr in (generate_frame(cfg, rng) for _ in range(50))])
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, abs=0.03)
        assert np.abs(np.mean(gains)) < 0.03

    def test_seed_reproducibility(self):
        cfg = ScenarioConfig(M=25, N=12, J=4, p_a=0.2, snr_db=5.0)
        fr1 = generate_frame(cfg, np.random.default_rng(9))
        fr2 = generate_frame(cfg, np.random.default_rng(9))
        for name in ("A", "activity", "mu", "D", "X", "Y"):
            assert np.array_equal(getattr(fr1, name), getattr(fr2, name))

    def test_fixed_active_count(self):
        cfg = ScenarioConfig(M=30, N=10, J=3, p_a=0.1, snr_db=5.0)
        fr = generate_frame(cfg, np.random.default_rng(10), n_active=7)
        assert fr.activity.sum() == 7
        with pytest.raises(ConfigError):
            generate_frame(cfg, np.random.default_rng(10), n_active=31)
