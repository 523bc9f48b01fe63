import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qumode_probe.operators import (
    HermitianOperator,
    SpectralLine,
    Spectrum,
    sigma_x,
    sigma_z,
    spectrum_of,
    thermal_state,
)
from qumode_probe.thermo import (
    DegenerateGroundStateError,
    NonThermalSpectrumError,
    _logsumexp,
    entropy,
    estimate_beta,
    free_energy,
    ground_state_overlap,
    heat_capacity,
    heat_capacity_finite_difference,
    log_partition_function,
    partition_function,
    quench_work,
    recover_degeneracies,
    thermo_report,
    validity_check,
)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * 0.5 * (m + m.conj().T))


class TestEstimateBeta:
    def test_equal_populations_infinite_temperature(self):
        assert estimate_beta(SpectralLine(0.0, 0.5, 1), SpectralLine(2.0, 0.5, 1)) == 0.0

    def test_closed_form_round_trip(self):
        z = 1 + np.exp(-0.7)
        b = estimate_beta(SpectralLine(0.0, 1 / z, 1), SpectralLine(1.0, np.exp(-0.7) / z, 1))
        assert b == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_excited_level(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0]))
        spec = spectrum_of(thermal_state(h, 1.0), h)
        assert estimate_beta(spec.lines[0], spec.lines[1]) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_equal_energies(self):
        with pytest.raises(ValueError):
            estimate_beta(SpectralLine(1.0, 0.5, 1), SpectralLine(1.0, 0.5, 1))

    def test_rejects_nonpositive_population(self):
        with pytest.raises(ValueError):
            estimate_beta(SpectralLine(0.0, 0.0, 1), SpectralLine(1.0, 1.0, 1))

    @settings(max_examples=30, deadline=None)
    @given(shift=st.floats(-50, 50), beta=st.floats(0.05, 5.0))
    def test_shift_invariance(self, shift, beta):
        z = 1 + np.exp(-beta)
        lines = [SpectralLine(shift, 1 / z, 1), SpectralLine(shift + 1.0, np.exp(-beta) / z, 1)]
        assert estimate_beta(*lines) == pytest.approx(beta, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), beta=st.floats(0.1, 5.0))
    def test_pipeline_consistency(self, seed, beta):
        h = random_hermitian(4, seed)
        spec = spectrum_of(thermal_state(h, beta), h)
        assert estimate_beta(spec.lines[0], spec.lines[1]) == pytest.approx(beta, abs=1e-10)

    def test_pipeline_consistency_every_seed_at_large_beta(self):
        # at beta = 5 the excited populations are ~e^-18; seed 177 is one
        # that misses 1e-10 when they are recovered from rho
        for seed in range(501):
            h = random_hermitian(4, seed)
            spec = spectrum_of(thermal_state(h, 5.0), h)
            assert estimate_beta(spec.lines[0], spec.lines[1]) == pytest.approx(5.0, abs=1e-10)


class TestRecoverDegeneracies:
    def test_three_level_thermal(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0]))
        spec = spectrum_of(thermal_state(h, 1.0), h)
        recovered = recover_degeneracies(spec, 1.0, anchor=0)
        assert [l.g for l in recovered.lines] == [1, 2]

    def test_infinite_temperature_ratio(self):
        spec = Spectrum.from_lines([(0.0, 0.25, 1), (1.0, 0.75, 1)])
        recovered = recover_degeneracies(spec, 0.0, anchor=0)
        assert [l.g for l in recovered.lines] == [1, 3]

    def test_non_thermal_rejected(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.3, 1), (2.0, 0.2, 1)])
        with pytest.raises(NonThermalSpectrumError):
            recover_degeneracies(spec, 1.0, anchor=0)


class TestPartitionFunction:
    def test_infinite_temperature_counts_states(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0]))
        spec = spectrum_of(thermal_state(h, 0.5), h)
        spec = recover_degeneracies(spec, 0.5)
        (_, z), = partition_function(spec, [0.0])
        assert z == pytest.approx(4.0)

    def test_qubit_value(self):
        spec = Spectrum.from_lines([(0.0, 2 / 3, 1), (1.0, 1 / 3, 1)])
        (_, z), = partition_function(spec, [np.log(2)])
        assert z == pytest.approx(1.5)

    def test_matches_trace_oracle(self):
        for seed in range(5):
            h = random_hermitian(6, seed)
            beta_meas = 0.8
            spec = spectrum_of(thermal_state(h, beta_meas), h)
            beta_hat = estimate_beta(spec.lines[0], spec.lines[1])
            spec = recover_degeneracies(spec, beta_hat)
            for beta in np.geomspace(0.1, 10, 7):
                lz = log_partition_function(spec, beta)
                oracle = np.log(np.trace(expm(-beta * h.entries)).real)
                assert lz == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_rejects_empty_grid(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1)])
        with pytest.raises(ValueError):
            partition_function(spec, [])


class TestLogSumExp:
    """The numpy max-shift form against SciPy's logsumexp, imported here only."""

    @pytest.mark.parametrize("x", [-750.0, -1.5, 0.0, 3.25, 800.0])
    def test_single_element_is_exact(self, x):
        assert _logsumexp(np.array([x])) == x

    @pytest.mark.parametrize("beta", [1e-3, 0.02, 1.0, 5.0, 1e3])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1024])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_on_weighted_energies(self, seed, n, beta):
        from scipy.special import logsumexp

        rng = np.random.default_rng([seed, n])
        e = rng.uniform(-10.0, 10.0, size=n)
        g = rng.integers(1, 50, size=n)
        a = -beta * (e - e.min()) + np.log(g)
        ref = float(logsumexp(a))
        assert abs(_logsumexp(a) - ref) <= 1e-14 * max(1.0, abs(ref))


class TestFreeEnergy:
    def test_unit_partition(self):
        assert free_energy(1.0, 2.0) == 0.0

    def test_qubit_value(self):
        assert free_energy(1.5, np.log(2)) == pytest.approx(-np.log(1.5) / np.log(2))

    def test_sanity_window(self):
        for seed in range(5):
            h = random_hermitian(5, seed)
            beta = 1.3
            e = np.linalg.eigvalsh(h.entries)
            z = np.trace(expm(-beta * h.entries)).real
            f = free_energy(z, beta)
            mean_e = np.trace(expm(-beta * h.entries) @ h.entries).real / z
            assert e.min() - np.log(len(e)) / beta - 1e-12 <= f <= mean_e + 1e-12

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            free_energy(2.0, 0.0)


class TestHeatCapacity:
    def test_single_level_zero(self):
        spec = Spectrum.from_lines([(1.5, 1.0, 1)])
        assert heat_capacity(spec, 2.0) == 0.0

    def test_two_level_closed_form(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
        for beta in (0.3, 1.0, 4.0):
            expected = beta ** 2 * np.exp(beta) / (1 + np.exp(beta)) ** 2
            assert heat_capacity(spec, beta) == pytest.approx(expected, abs=1e-10)

    def test_high_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 0.25, 1), (1.0, 0.25, 1),
                                    (2.0, 0.25, 1), (3.0, 0.25, 1)])
        beta = 1e-4
        var = np.var([0.0, 1.0, 2.0, 3.0])
        assert heat_capacity(spec, beta) == pytest.approx(beta ** 2 * var, rel=1e-3)

    def test_matches_finite_difference(self):
        h = HermitianOperator(np.diag([0.0, 0.7, 1.1, 1.1, 3.0]))
        spec = spectrum_of(thermal_state(h, 1.0), h)
        spec = recover_degeneracies(spec, 1.0)
        for beta in np.geomspace(0.1, 10, 9):
            analytic = heat_capacity(spec, beta)
            fd = heat_capacity_finite_difference(spec, beta)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestEntropy:
    def test_zero_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1), (1.0, 0.0, 1)])
        assert entropy(spec, 200.0) == pytest.approx(0.0, abs=1e-10)

    def test_infinite_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.25, 1), (2.0, 0.25, 1)])
        assert entropy(spec, 1e-7) == pytest.approx(np.log(3), abs=1e-5)

    def test_matches_microstate_sum(self):
        spec = Spectrum.from_lines([(0.0, 0.6, 1), (1.0, 0.4, 2)])
        beta = 1.0
        # microstate oracle: -sum p log p over all degenerate microstates
        weights = np.array([1 * np.exp(0.0), np.exp(-beta), np.exp(-beta)])
        p = weights / weights.sum()
        oracle = -np.sum(p * np.log(p))
        assert entropy(spec, beta) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_zero_beta(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1)])
        with pytest.raises(ValueError):
            entropy(spec, 0.0)


class TestQuenchWork:
    def test_no_quench_is_trivial(self):
        h = random_hermitian(4, 11)
        rep = quench_work(h, h, 1.0)
        assert rep.W_avg == pytest.approx(0.0, abs=1e-12)
        assert rep.dF == pytest.approx(0.0, abs=1e-12)
        assert rep.W_irr == pytest.approx(0.0, abs=1e-12)

    def test_sigma_z_to_sigma_x(self):
        rep = quench_work(sigma_z(), sigma_x(), 1.0)
        assert rep.W_avg == pytest.approx(np.tanh(1.0), abs=1e-10)
        assert rep.dF == pytest.approx(0.0, abs=1e-10)
        assert rep.W_irr == pytest.approx(np.tanh(1.0), abs=1e-10)

    def test_irreversible_work_nonnegative(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            h0 = random_hermitian(4, 2 * trial)
            h1 = random_hermitian(4, 2 * trial + 1)
            rep = quench_work(h0, h1, rng.uniform(0.1, 5.0))
            assert rep.W_irr >= -1e-9
            assert rep.W_irr == pytest.approx(rep.W_avg - rep.dF, abs=1e-12)

    def test_work_matches_trace_oracle(self):
        h0 = random_hermitian(5, 31)
        h1 = random_hermitian(5, 32)
        beta = 0.9
        rep = quench_work(h0, h1, beta)
        rho0 = expm(-beta * h0.entries)
        rho0 /= np.trace(rho0).real
        oracle = np.trace(rho0 @ (h1.entries - h0.entries)).real
        assert rep.W_avg == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quench_work(sigma_z(), random_hermitian(3, 0), 1.0)


class TestGroundStateOverlap:
    def test_identical_hamiltonians(self):
        h = random_hermitian(5, 1)
        assert ground_state_overlap(h, h) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_sigma_x(self):
        assert ground_state_overlap(sigma_z(), sigma_x()) == pytest.approx(0.5, abs=1e-10)

    def test_symmetry(self):
        a = random_hermitian(4, 5)
        b = random_hermitian(4, 6)
        assert ground_state_overlap(a, b) == pytest.approx(ground_state_overlap(b, a), abs=1e-12)

    def test_matches_inner_product(self):
        for seed in range(20):
            a = random_hermitian(5, 100 + 2 * seed)
            b = random_hermitian(5, 101 + 2 * seed)
            direct = abs(np.vdot(np.linalg.eigh(a.entries)[1][:, 0],
                                 np.linalg.eigh(b.entries)[1][:, 0])) ** 2
            assert ground_state_overlap(a, b) == pytest.approx(direct, abs=1e-10)

    def test_degenerate_ground_rejected(self):
        h = HermitianOperator(np.diag([0.0, 0.0, 1.0]))
        with pytest.raises(DegenerateGroundStateError):
            ground_state_overlap(h, random_hermitian(3, 0))


class TestValidityCheck:
    def test_commuting_exemption(self):
        h = random_hermitian(3, 7)
        h2 = HermitianOperator(3.0 * h.entries)
        rep = validity_check(h, h2, g=1.0, tau=100.0)
        assert rep.passed and rep.commuting

    def test_slow_protocol_fails(self):
        rep = validity_check(sigma_z(), sigma_x(), g=1000.0, tau=0.5)
        assert not rep.passed
        assert rep.bare_evolution == pytest.approx(0.5)

    def test_fast_strong_coupling_passes(self):
        rep = validity_check(sigma_z(), sigma_x(), g=200.0, tau=0.005)
        assert rep.passed and not rep.commuting
        assert rep.coupling_ratio == pytest.approx(200.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            validity_check(sigma_z(), sigma_x(), g=0.0, tau=1.0)


def test_thermo_report_grids_consistent():
    h = HermitianOperator(np.diag([0.0, 1.0, 1.0]))
    spec = recover_degeneracies(spectrum_of(thermal_state(h, 1.0), h), 1.0)
    report = thermo_report(spec, beta_hat=1.0, beta_grid=np.geomspace(0.1, 10, 12))
    assert len(report.Z_grid) == 12
    for (b, z), (_, f), (_, c), (_, s) in zip(report.Z_grid, report.F_grid,
                                              report.C_grid, report.S_grid):
        assert z > 0
        assert c >= -1e-12
        assert s >= -1e-12
        assert f == pytest.approx(-np.log(z) / b)


@pytest.mark.parametrize("beta", [0.0, -0.5, float("nan")])
def test_thermo_report_rejects_non_positive_beta(beta):
    spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
    with pytest.raises(ValueError, match="^thermo report requires beta > 0 at every grid point$"):
        thermo_report(spec, beta_hat=1.0, beta_grid=[1.0, beta])
