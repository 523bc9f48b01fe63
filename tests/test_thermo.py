import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qumode_probe.models import dicke_interaction
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
    MAX_BETA,
    MAX_BETA_GRID,
    DegenerateGroundStateError,
    NonThermalSpectrumError,
    _logsumexp,
    default_beta_grid,
    estimate_beta,
    ground_state_overlap,
    log_partition_function,
    quench_work,
    recover_degeneracies,
    thermo_report,
)


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * 0.5 * (m + m.conj().T))


def report_at(spec, beta):
    """thermo_report's Z, F, C and S at a single beta."""
    report = thermo_report(spec, beta_hat=1.0, beta_grid=[beta])
    return {name: float(getattr(report, f"{name}_grid")[0, 1]) for name in "ZFCS"}


def heat_capacity_finite_difference(spec, beta, rel_step=6e-3):
    """Finite-difference beta^2 d^2 log Z / d beta^2 cross-check.

    Uses a five-point central stencil; the O(h^4) truncation error lets
    the step stay large enough that roundoff in log Z is negligible,
    keeping the check well below 1e-6 relative error for beta in
    [0.1, 10].
    """
    h = rel_step * beta
    lz = [log_partition_function(spec, beta + k * h) for k in (-2, -1, 0, 1, 2)]
    d2 = (-lz[0] + 16 * lz[1] - 30 * lz[2] + 16 * lz[3] - lz[4]) / (12 * h ** 2)
    return float(beta ** 2 * d2)


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

    @pytest.mark.parametrize("lines, anchor, estimate", [
        pytest.param([(0.0, 1.0, 1), (1.0, 0.0, 1)], 1, "inf at E=0", id="anchor-of-no-mass"),
        pytest.param([(0.0, 0.5, 1), (1000.0, 0.5, 1)], 0, "inf at E=1000",
                     id="estimate-overflows"),
    ])
    def test_non_finite_estimate_rejected(self, lines, anchor, estimate):
        """A non-finite estimate is a contract violation, raised with no numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonThermalSpectrumError, match=f"estimate {estimate} is not"):
                recover_degeneracies(Spectrum.from_lines(lines), 1.0, anchor=anchor)

    def test_keeps_counts_and_residual(self):
        spec = Spectrum([0.0, 1.0], [0.5, 0.5 * np.exp(-1.0) * 2], counts=[10, 7],
                        residual_mass=1.0 - 0.5 - np.exp(-1.0))
        recovered = recover_degeneracies(spec, 1.0)
        assert recovered.degeneracies.tolist() == [1, 2]
        assert recovered.counts.tolist() == [10, 7]
        assert recovered.residual_mass == spec.residual_mass


class TestPartitionFunction:
    def test_infinite_temperature_counts_states(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0, 2.0]))
        spec = spectrum_of(thermal_state(h, 0.5), h)
        spec = recover_degeneracies(spec, 0.5)
        assert np.exp(log_partition_function(spec, 0.0)) == pytest.approx(4.0)

    def test_qubit_value(self):
        spec = Spectrum.from_lines([(0.0, 2 / 3, 1), (1.0, 1 / 3, 1)])
        assert report_at(spec, np.log(2))["Z"] == pytest.approx(1.5)

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
            thermo_report(spec, beta_hat=1.0, beta_grid=[])

    def test_dicke_closed_form(self):
        # J_x of 100 spins: E = -50, ..., 50, each once
        h = dicke_interaction(100)
        spec = spectrum_of(thermal_state(h, 0.0), h)
        assert [line.g for line in spec.lines] == [1] * 101
        for beta in np.geomspace(0.01, 100.0, 41):
            closed = 50 * beta + np.log(np.expm1(-101 * beta) / np.expm1(-beta))
            assert log_partition_function(spec, beta) == pytest.approx(closed, rel=1e-12)


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
        assert report_at(Spectrum.from_lines([(0.0, 1.0, 1)]), 2.0)["F"] == 0.0

    def test_qubit_value(self):
        spec = Spectrum.from_lines([(0.0, 2 / 3, 1), (1.0, 1 / 3, 1)])
        assert report_at(spec, np.log(2))["F"] == pytest.approx(-np.log(1.5) / np.log(2))

    def test_sanity_window(self):
        for seed in range(5):
            h = random_hermitian(5, seed)
            beta = 1.3
            e = np.linalg.eigvalsh(h.entries)
            z = np.trace(expm(-beta * h.entries)).real
            f = report_at(spectrum_of(thermal_state(h, beta), h), beta)["F"]
            mean_e = np.trace(expm(-beta * h.entries) @ h.entries).real / z
            assert e.min() - np.log(len(e)) / beta - 1e-12 <= f <= mean_e + 1e-12

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            report_at(Spectrum.from_lines([(0.0, 1.0, 1)]), 0.0)


class TestHeatCapacity:
    def test_single_level_zero(self):
        spec = Spectrum.from_lines([(1.5, 1.0, 1)])
        assert report_at(spec, 2.0)["C"] == 0.0

    def test_two_level_closed_form(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
        for beta in (0.3, 1.0, 4.0):
            expected = beta ** 2 * np.exp(beta) / (1 + np.exp(beta)) ** 2
            assert report_at(spec, beta)["C"] == pytest.approx(expected, abs=1e-10)

    def test_high_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 0.25, 1), (1.0, 0.25, 1),
                                    (2.0, 0.25, 1), (3.0, 0.25, 1)])
        beta = 1e-4
        var = np.var([0.0, 1.0, 2.0, 3.0])
        assert report_at(spec, beta)["C"] == pytest.approx(beta ** 2 * var, rel=1e-3)

    def test_matches_finite_difference(self):
        h = HermitianOperator(np.diag([0.0, 0.7, 1.1, 1.1, 3.0]))
        spec = spectrum_of(thermal_state(h, 1.0), h)
        spec = recover_degeneracies(spec, 1.0)
        grid = np.geomspace(0.1, 10, 9)
        report = thermo_report(spec, beta_hat=1.0, beta_grid=grid)
        for beta, analytic in report.C_grid:
            fd = heat_capacity_finite_difference(spec, beta)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestEntropy:
    def test_zero_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1), (1.0, 0.0, 1)])
        assert report_at(spec, 200.0)["S"] == pytest.approx(0.0, abs=1e-10)

    def test_infinite_temperature_limit(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.25, 1), (2.0, 0.25, 1)])
        assert report_at(spec, 1e-7)["S"] == pytest.approx(np.log(3), abs=1e-5)

    def test_matches_microstate_sum(self):
        spec = Spectrum.from_lines([(0.0, 0.6, 1), (1.0, 0.4, 2)])
        beta = 1.0
        # microstate oracle: -sum p log p over all degenerate microstates
        weights = np.array([1 * np.exp(0.0), np.exp(-beta), np.exp(-beta)])
        p = weights / weights.sum()
        oracle = -np.sum(p * np.log(p))
        assert report_at(spec, beta)["S"] == pytest.approx(oracle, abs=1e-10)

    def test_rejects_zero_beta(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1)])
        with pytest.raises(ValueError):
            report_at(spec, 0.0)


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

    @pytest.mark.parametrize("dim", [2, 17, 64])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_matches_the_two_stage_protocol(self, dim, field):
        for seed in range(3):
            a, b = (random_hermitian(dim, 10 * seed + k) for k in (1, 2))
            if field == "real":
                a, b = (HermitianOperator(h.entries.real) for h in (a, b))
            assert a.entries.dtype == (np.float64 if field == "real" else np.complex128)
            assert ground_state_overlap(a, b) == pytest.approx(two_stage_overlap(a, b),
                                                               rel=0, abs=1e-12)


def two_stage_overlap(H_a, H_b):
    """Reference: the protocol's two circuits as density-matrix algebra.

    Post-select the ground line of H_a from the maximally mixed I/d,
    normalise, and take the trace with the ground projector of H_b.
    """
    d = H_a.dim
    proj_a, proj_b = (np.outer(v, v.conj()) for v in
                      (np.linalg.eigh(H.entries)[1][:, 0] for H in (H_a, H_b)))
    rho = proj_a @ (np.eye(d) / d) @ proj_a
    rho = rho / np.trace(rho).real
    return float(np.trace(proj_b @ rho).real)


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


@pytest.mark.parametrize("beta", [float("inf"), 1e155, np.nextafter(MAX_BETA, np.inf)])
def test_thermo_report_rejects_beta_without_a_finite_square(beta):
    spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
    with pytest.raises(ValueError, match="so that beta\\*\\*2 is finite$"):
        thermo_report(spec, beta_hat=1.0, beta_grid=[1.0, beta])


def test_thermo_report_at_max_beta():
    spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
    report = thermo_report(spec, beta_hat=1.0, beta_grid=[MAX_BETA])
    assert [grid[0, 1] for grid in (report.Z_grid, report.F_grid, report.C_grid,
                                     report.S_grid)] == [1.0, 0.0, 0.0, 0.0]


def test_thermo_report_blocks_match_single_points():
    # 1030 lines put 63 betas in a block, so the grid spans two blocks
    rng = np.random.default_rng(5)
    energies = np.sort(rng.uniform(-5.0, 5.0, 1030))
    spec = Spectrum.from_lines((e, 1 / 1030, int(g))
                               for e, g in zip(energies, rng.integers(1, 4, 1030)))
    grid = np.geomspace(0.05, 50.0, 100)
    report = thermo_report(spec, beta_hat=1.0, beta_grid=grid)
    for name in "ZFCS":
        column = getattr(report, f"{name}_grid")
        assert column[:, 1].tolist() == [report_at(spec, b)[name] for b in grid]


def test_thermo_report_grid_at_the_cap_is_one_pass():
    # one blocked pass takes about 0.03 s; a Python loop over the points takes seconds
    spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
    grid = default_beta_grid(num=MAX_BETA_GRID)
    start = time.perf_counter()
    report = thermo_report(spec, beta_hat=1.0, beta_grid=grid)
    assert time.perf_counter() - start < 1.0
    assert report.C_grid.shape == (MAX_BETA_GRID, 2)
