import dataclasses
import warnings

import numpy as np
import pytest

from ampvbic.errors import ConfigError
from ampvbic.model import (_ALPHABETS, ScenarioConfig, ScenarioInstance,
                           build_alphabet, complex_normal, generate_frame,
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
        alph = build_alphabet("qam16")
        assert alph.K == 17
        assert alph.E_sym == pytest.approx(1.0, rel=1e-12)
        assert alph.symbols[0] == 0
        grid = {(a, b) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)}
        got = {(round(d.real * np.sqrt(10)), round(d.imag * np.sqrt(10)))
               for d in alph.active_symbols}
        assert got == grid

    @pytest.mark.parametrize("mod", list(_ALPHABETS))
    def test_invariants(self, mod):
        alph = build_alphabet(mod)
        assert build_alphabet(mod) is alph
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
        assert build_alphabet("qpsk") is qpsk
        assert build_alphabet("qpsk") == build_alphabet("qpsk")
        assert qpsk != build_alphabet("qam16")
        assert hash(qpsk) == hash(build_alphabet("qpsk"))
        assert len({qpsk, build_alphabet("qpsk"), build_alphabet("qam16")}) == 2


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

    @pytest.mark.parametrize("e_sym", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_esym_is_blamed_on_esym(self, e_sym):
        # Not on snr_db, whose noise variance it would make non-finite.
        with pytest.raises(ConfigError, match="E_sym must be positive"):
            noise_variance_from_snr(5.0, e_sym)

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
        a = complex_normal((2, 3), 1.0 / np.sqrt(2.0), np.random.default_rng(0))
        assert a.shape == (2, 3)
        assert a.dtype == complex

    def test_unit_variance_monte_carlo(self):
        a = complex_normal((1000, 1000), 1.0 / np.sqrt(2.0),
                           np.random.default_rng(7))
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
            new = complex_normal(shape, 1.0 / np.sqrt(2.0), rng_new)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
            assert rng_new.random() == rng_old.random()

    def test_seed_determinism(self):
        a1 = complex_normal((20, 30), 1.0 / np.sqrt(2.0), np.random.default_rng(42))
        a2 = complex_normal((20, 30), 1.0 / np.sqrt(2.0), np.random.default_rng(42))
        assert np.array_equal(a1, a2)


class TestScenarioConfig:

    VALID = dict(M=10, N=5, J=4, p_a=0.2, snr_db=5.0)

    def test_valid(self):
        cfg = ScenarioConfig(M=10, N=5, J=4, p_a=0.2, snr_db=5.0)
        assert cfg.modulation == "qam16"

    def test_modulation_is_stored_as_its_table_key(self):
        default = ScenarioConfig(**self.VALID)
        qpsk = ScenarioConfig(**self.VALID, modulation=np.str_("qpsk"))
        assert (default.modulation, qpsk.modulation) == ("qam16", "qpsk")
        assert type(default.modulation) is str and type(qpsk.modulation) is str
        assert build_alphabet(qpsk.modulation) is build_alphabet("qpsk")

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

    @pytest.mark.parametrize("value", ["bpsk", 16, None, ["qpsk"]])
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
        assert not (fr.mu[:, None] * fr.D).any()
        # Y is pure noise with the configured variance
        noise_var = noise_variance_from_snr(cfg.snr_db, self.alph.E_sym)
        assert np.mean(np.abs(fr.Y) ** 2) == pytest.approx(noise_var, rel=0.5)

    def test_all_active_noiseless(self):
        cfg = ScenarioConfig(M=8, N=8, J=4, p_a=0.5, snr_db=300.0)
        fr = generate_frame(cfg, np.random.default_rng(2), n_active=cfg.M)
        assert fr.activity.all()
        assert np.allclose(fr.Y, fr.A @ (fr.mu[:, None] * fr.D), atol=1e-12)

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
        assert not (fr.mu[:, None] * fr.D)[~active].any()
        assert not fr.D[~active].any()
        assert np.all(fr.D[active, 0] == self.alph.reference_symbol)
        data = fr.D[active][:, 1:].ravel()
        assert np.all(np.isin(data, self.alph.active_symbols))
        assert not fr.mu[~active].any()

    def test_model_equation(self):
        cfg = ScenarioConfig(M=30, N=15, J=5, p_a=0.5, snr_db=8.0)
        fr = generate_frame(cfg, np.random.default_rng(5))
        w = fr.Y - fr.A @ (fr.mu[:, None] * fr.D)
        noise_var = noise_variance_from_snr(cfg.snr_db, self.alph.E_sym)
        assert np.mean(np.abs(w) ** 2) == pytest.approx(noise_var, rel=0.3)

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
        for name in ("A", "activity", "mu", "D", "Y"):
            assert np.array_equal(getattr(fr1, name), getattr(fr2, name))

    def test_frame_holds_what_is_drawn(self):
        # X = diag(mu) D and the noise variance follow from the frame and
        # its config, so the frame keeps only the drawn arrays, read-only.
        names = [f.name for f in dataclasses.fields(ScenarioInstance)]
        assert names == ["A", "activity", "mu", "D", "Y"]
        cfg = ScenarioConfig(M=25, N=12, J=4, p_a=0.2, snr_db=5.0)
        fr = generate_frame(cfg, np.random.default_rng(9))
        for name in names:
            assert not getattr(fr, name).flags.writeable, name

    def test_fixed_active_count(self):
        cfg = ScenarioConfig(M=30, N=10, J=3, p_a=0.1, snr_db=5.0)
        fr = generate_frame(cfg, np.random.default_rng(10), n_active=7)
        assert fr.activity.sum() == 7
        with pytest.raises(ConfigError):
            generate_frame(cfg, np.random.default_rng(10), n_active=31)

    @pytest.mark.parametrize("n_active", [2.5, True, np.float64(3.0)],
                             ids=["float", "bool", "float64"])
    def test_non_integer_active_count_is_config_error(self, n_active):
        # run_trials's rule, an int that is not a bool; numpy's rng.choice
        # would otherwise raise a bare TypeError for 2.5 and True.
        cfg = ScenarioConfig(M=30, N=10, J=3, p_a=0.1, snr_db=5.0)
        with pytest.raises(ConfigError, match="n_active must be an integer"):
            generate_frame(cfg, np.random.default_rng(10), n_active=n_active)

    @pytest.mark.parametrize("n_active", [None, 3], ids=["bernoulli", "n_active"])
    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(M=200, N=100, J=10, p_a=0.1, snr_db=5.0),
        ScenarioConfig(M=12, N=6, J=3, p_a=0.3, snr_db=10.0, modulation="qpsk")],
        ids=["reference", "small-qpsk"])
    def test_draws_bit_identical_to_complex_expressions(self, cfg, n_active):
        # A, mu and W come from one complex-Gaussian draw; they must equal
        # the complex expressions written out below bit for bit.
        for seed in range(5):
            fr = generate_frame(cfg, np.random.default_rng(seed), n_active)
            rng = np.random.default_rng(seed)
            m, n, j = cfg.M, cfg.N, cfg.J
            if n_active is None:
                activity = (rng.random(m) < cfg.p_a).astype(np.int8)
            else:
                activity = np.zeros(m, dtype=np.int8)
                activity[rng.choice(m, size=n_active, replace=False)] = 1
            mu = (rng.standard_normal(m)
                  + 1j * rng.standard_normal(m)) / np.sqrt(2.0) * activity
            alph = build_alphabet(cfg.modulation)
            rng.integers(0, alph.K - 1, size=(m, j - 1))
            a = (rng.standard_normal((n, m))
                 + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
            noise_var = noise_variance_from_snr(cfg.snr_db, alph.E_sym)
            w = (rng.standard_normal((n, j)) + 1j * rng.standard_normal((n, j))) \
                * np.sqrt(noise_var / 2.0)
            y = a @ (mu[:, None] * fr.D) + w
            assert np.array_equal(fr.activity, activity)
            for got, want in ((fr.A, a), (fr.mu, mu), (fr.Y, y)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_active_count_range_names_m(self):
        cfg = ScenarioConfig(M=30, N=10, J=3, p_a=0.1, snr_db=5.0)
        with pytest.raises(ConfigError, match=r"n_active must lie in \[0, M=30\]"):
            generate_frame(cfg, np.random.default_rng(10), n_active=-1)
