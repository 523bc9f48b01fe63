import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import chi2, kstest

from qumode_probe.operators import (
    HermitianOperator,
    Spectrum,
    SystemState,
    evenly_spaced_spectrum,
    sigma_x,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import (
    Bin,
    Ideal,
    LineMixture,
    ProbeConfig,
    Squeezed,
    _log,
    _ndtri,
    apply_detector_binning,
    distribution_for,
    map_p_to_E,
)
from qumode_probe.sampling import sample_measurements


def ideal_probe(p0=0.0, g=1.0, tau=1.0):
    return ProbeConfig(p0, g, tau, Ideal())


@st.composite
def spectra(draw):
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    energies = np.sort(rng.uniform(-3, 3, n))
    if np.any(np.diff(energies) < 1e-6):
        energies = np.arange(n, dtype=float)
    pops = rng.random(n)
    pops /= pops.sum()
    return Spectrum.from_lines((e, p, 1) for e, p in zip(energies, pops))


class TestIdealDistribution:
    def test_single_line(self):
        spec = Spectrum.from_lines([(2.0, 1.0, 1)])
        dist = distribution_for(spec, ideal_probe())
        assert dist.points.tolist() == [-2.0]
        assert dist.weights.tolist() == [1.0]

    def test_sigma_x_mixed(self):
        spec = spectrum_of(SystemState(np.eye(2) / 2), sigma_x())
        dist = distribution_for(spec, ideal_probe())
        assert np.allclose(sorted(dist.points), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(dist.weights, [0.5, 0.5])

    def test_five_lines_keep_masses(self):
        spec = evenly_spaced_spectrum(5, seed=3)
        dist = distribution_for(spec, ideal_probe())
        assert len(dist.points) == 5
        # lines keep spectrum order, so p = -E runs downward
        assert np.array_equal(dist.weights, spec.populations)
        assert np.all(np.diff(dist.points) < 0)

    def test_coincident_positions_merge(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
        dist = distribution_for(spec, ProbeConfig(0.25, 1.0, 1e-13, Ideal()))
        # both lines sit within 1e-13 of p = 0.25; draws and binning see one point
        assert np.abs(sample_measurements(dist, 1000, seed=2).samples - 0.25).max() <= 1e-12
        binned = sample_measurements(dist, 1000, seed=2, detector_bin=0.5).samples
        assert ((0.0 <= binned) & (binned < 0.5)).all()


class TestBinnedDistribution:
    def test_single_plateau(self):
        spec = Spectrum.from_lines([(1.0, 1.0, 1)])
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Bin(0.5)))
        assert (dist.points.tolist(), dist.weights.tolist(), dist.mode) == ([-1.0], [1.0], Bin(0.5))
        assert dist.density(-1.0) == pytest.approx(2.0)  # P/L
        assert dist.density([-1.3, -0.7]).tolist() == [0.0, 0.0]

    def test_adjacent_plateaus(self):
        spec = Spectrum.from_lines([(0.0, 0.5, 1), (1.0, 0.5, 1)])
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Bin(1.0)))
        assert dist.points.tolist() == [0.0, -1.0]
        assert dist.density([-1.25, -0.75, -0.25, 0.25]) == pytest.approx([0.5] * 4)

    def test_overlap_density_sums(self):
        spec = Spectrum.from_lines([(0.0, 0.3, 1), (0.5, 0.7, 1)])
        L = 1.0
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Bin(L)))
        # overlap region [-0.5, 0] carries (P1 + P2)/L
        assert dist.density(-0.25) == pytest.approx((0.3 + 0.7) / L)
        assert dist.density(0.25) == pytest.approx(0.3 / L)
        assert dist.density(-0.75) == pytest.approx(0.7 / L)

    @settings(max_examples=30, deadline=None)
    @given(spec=spectra(), L=st.floats(0.1, 2.0))
    def test_total_mass_one(self, spec, L):
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Bin(L)))
        total, _ = quad(lambda p: float(dist.density(p)), dist.points.min() - L,
                        dist.points.max() + L, points=np.concatenate(
                            [dist.points - L / 2, dist.points + L / 2]), limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSqueezedDistribution:
    def test_peak_density(self):
        spec = Spectrum.from_lines([(1.5, 1.0, 1)])
        for s in (0.5, 1.0, 4.0):
            dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(s)))
            assert dist.density(-1.5) == pytest.approx(s / np.sqrt(np.pi), rel=1e-12)

    def test_midpoint_value(self):
        spec = Spectrum.from_lines([(-1.0, 0.5, 1), (1.0, 0.5, 1)])
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(1.0)))
        assert dist.density(0.0) == pytest.approx(np.exp(-1.0) / np.sqrt(np.pi), rel=1e-12)

    def test_component_std(self):
        spec = Spectrum.from_lines([(0.0, 1.0, 1)])
        s = 3.0
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(s)))
        assert dist.mode.std == pytest.approx(1.0 / (np.sqrt(2) * s))

    def test_strong_squeezing_concentrates(self):
        spec = evenly_spaced_spectrum(3, seed=1)
        s = 1e4
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(s)))
        # 99.99% of each component's mass within 5e-4 of the ideal point
        halfwidth = 5e-4
        z = halfwidth / (1.0 / (np.sqrt(2) * s))
        assert 2 * ndtr(z) - 1 > 0.9999

    @settings(max_examples=30, deadline=None)
    @given(spec=spectra(), s=st.floats(0.2, 50.0))
    def test_integrates_to_one(self, spec, s):
        dist = distribution_for(spec, ProbeConfig(0.0, 1.0, 1.0, Squeezed(s)))
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-9)


def neighbours(y):
    return [np.nextafter(y, 0.0), y, np.nextafter(y, 1.0)]


class TestNdtriPort:
    """The numpy port of Cephes ndtri returns scipy's float64 bits."""

    EDGES = [0.0, 2.0 ** -53, 5e-324, 1e-300, 0.5, 1 - 2.0 ** -53,
             *neighbours(math.exp(-2)), *neighbours(1 - math.exp(-2)),
             *neighbours(math.exp(-32))]  # branch points: central/tail, then x = 8 in the tail

    @staticmethod
    def assert_same_bits(u):
        np.testing.assert_array_equal(_ndtri(u).view(np.int64), ndtri(u).view(np.int64))

    def test_edges_and_branch_points(self):
        self.assert_same_bits(np.array(self.EDGES))

    def test_kernel_uniforms_of_the_sampling_stream(self):
        for seed in (0, 7):
            uniforms = np.random.Generator(np.random.Philox(key=seed)).random(2 ** 20)
            self.assert_same_bits(uniforms[1::2])

    def test_shapes_and_out_of_range(self):
        assert _ndtri(0.5).shape == ()
        assert _ndtri(np.full((2, 3), 0.01)).shape == (2, 3)
        assert np.isnan(_ndtri(np.array([-0.5, 1.5, np.nan]))).all()
        np.testing.assert_array_equal(_ndtri(np.array([0.0, 1.0])), [-np.inf, np.inf])


# tail masses y < exp(-2), and r = sqrt(-2 log y) in [2, 9]: the inputs of ndtri's tails
@pytest.mark.parametrize("seed, lo, hi", [(3, 0.0, math.exp(-2)), (4, 2.0, 9.0)],
                         ids=["tail-y", "tail-r"])
def test_log_returns_libm_bits(seed, lo, hi):
    # a contiguous np.log may take a SIMD loop that differs from libm in the last bit;
    # on an AVX-512 host hundreds of each set of 2^21 inputs show it
    x = np.random.default_rng(seed).uniform(lo, hi, 2 ** 21)
    libm = np.fromiter(map(math.log, x.tolist()), float, count=x.size)
    np.testing.assert_array_equal(_log(x).view(np.int64), libm.view(np.int64))


class TestMapPToE:
    def test_center(self):
        assert map_p_to_E(0.3, ProbeConfig(0.3, 1.0, 1.0, Ideal())) == 0.0

    def test_unit_energy(self):
        probe = ProbeConfig(0.5, 2.0, 3.0, Ideal())
        assert map_p_to_E(0.5 - 6.0, probe) == pytest.approx(1.0)

    def test_circuit_qed_regime(self):
        probe = ProbeConfig(0.0, 1.0, 200.0, Ideal())
        assert map_p_to_E(-20.0, probe) == pytest.approx(0.1)


class TestMomentFidelity:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_moments_match_trace(self, dim):
        rng = np.random.default_rng(dim)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = HermitianOperator(0.5 * (m + m.conj().T))
        state = thermal_state(h, 0.8)
        spec = spectrum_of(state, h)
        probe = ideal_probe(p0=0.7, g=1.3, tau=0.9)
        dist = distribution_for(spec, probe)
        for order in (1, 2, 3):
            via_probe = sum(mass * map_p_to_E(p, probe) ** order
                            for p, mass in zip(dist.points, dist.weights))
            direct = np.trace(state.rho @ np.linalg.matrix_power(h.entries, order)).real
            assert via_probe == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("points, mode", [([0.0], Squeezed(1e-320)), ([1.7e308], Bin(1e308)),
                                           ([np.nan], Ideal())],
                         ids=["subnormal-s", "overflowing-window", "nan-point"])
def test_line_mixture_rejects_draws_that_overflow(points, mode):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        LineMixture(points, [1.0], mode)


def line(position, mode):
    return LineMixture([position], [1.0], mode)


def kernel_cdf(mode, x) -> np.ndarray:
    """P(offset < x) for a line's kernel: a line on a detector bin edge lands in
    the bin above."""
    x = np.asarray(x)
    if mode.kind == "ideal":
        return (x > 0).astype(float)
    if mode.kind == "bin":
        return np.clip(x / mode.L + 0.5, 0.0, 1.0)
    return ndtr(x / mode.std)


def exact_bin_masses(dist: LineMixture, w: float) -> tuple[np.ndarray, np.ndarray]:
    """Every bin k = floor(p/w) that the lines reach, with its exact mass: per line,
    the differences of the kernel's CDF at the bin edges k*w."""
    reach = dist.mode.half_width
    # each line's first and last bin, with one bin of margin against rounding
    first = np.floor((dist.points - reach) / w) - 1
    last = np.floor((dist.points + reach) / w) + 1
    k_lo = first.min()
    masses = np.zeros(int(last.max() - k_lo) + 1)
    for p, m, a, b in zip(dist.points, dist.weights, first, last):
        edges = w * np.arange(a, b + 2)
        masses[int(a - k_lo):int(b - k_lo) + 1] += m * np.diff(kernel_cdf(dist.mode, edges - p))
    return k_lo + np.arange(len(masses)), masses


def binned_draws(dist: LineMixture, w: float, n: int, seed: int, start: int = 0) -> np.ndarray:
    return sample_measurements(dist, n, seed, detector_bin=w, start=start).samples


KERNELS = [pytest.param(Bin(0.05), id="bin"), pytest.param(Squeezed(20.0), id="squeezed"),
           pytest.param(Ideal(), id="ideal")]


class TestDetectorBinning:
    def test_point_mass_single_bin(self):
        dist = line(0.37, Ideal())
        assert apply_detector_binning(dist, 0.5) is dist  # the draw is binned, not the mixture
        draws = binned_draws(dist, 0.5, 1000, seed=1)
        assert ((0.0 <= draws) & (draws < 0.5)).all()

    def test_point_on_edge_goes_up(self):
        """A line on the edge k*w lands in bin k, [k*w, (k+1)*w)."""
        for k in (-3, 0, 1, 7):
            draws = binned_draws(line(k * 0.5, Ideal()), 0.5, 1000, seed=1)
            assert ((k * 0.5 <= draws) & (draws < (k + 1) * 0.5)).all()
            assert np.array_equal(np.unique(np.floor(draws / 0.5)), [k])

    def test_narrow_gaussian_concentrates(self):
        draws = binned_draws(line(1.25, Squeezed(1 / (0.001 * np.sqrt(2)))), 0.5, 10_000, seed=3)
        assert np.mean((1.0 <= draws) & (draws < 1.5)) >= 0.999

    def test_gaussian_matches_erf_differences(self):
        """The reference masses themselves, against math.erf at each bin's edges."""
        sd = 0.5
        bins, masses = exact_bin_masses(line(0.2, Squeezed(1 / (sd * np.sqrt(2)))), sd)
        for k, m in zip(bins, masses):
            lo, hi = k * sd, (k + 1) * sd
            expected = 0.5 * (math.erf((hi - 0.2) / (sd * math.sqrt(2)))
                              - math.erf((lo - 0.2) / (sd * math.sqrt(2))))
            assert m == pytest.approx(expected, abs=1e-9)

    def test_piecewise_uniform_split(self):
        dist = line(0.5, Bin(1.0))  # support [0, 1]
        bins, masses = exact_bin_masses(dist, 0.25)
        assert masses[masses > 0].tolist() == pytest.approx([0.25] * 4)
        n = 40_000
        counts = np.bincount(np.floor(binned_draws(dist, 0.25, n, seed=2) / 0.25).astype(int))
        assert counts.size == 4
        assert np.abs(counts - n / 4).max() < 5 * np.sqrt(n * 0.25 * 0.75)

    def test_rejects_bad_width(self):
        for width in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="bin width must be positive"):
                apply_detector_binning(line(0.0, Ideal()), width)

    def test_draws_past_2_53_bins_are_refused(self):
        """Past 2**53 bins from 0 a float64 index no longer names one bin, for
        the line supports that apply_detector_binning checks and for the draws."""
        dist = line(1.0, Ideal())
        for refuse in (lambda: apply_detector_binning(dist, 1e-300),
                       lambda: binned_draws(dist, 1e-300, 4, seed=1)):
            with pytest.raises(ValueError, match="lie over 2\\*\\*53 bins of width 1e-300"):
                refuse()

    @pytest.mark.parametrize("mode", KERNELS)
    def test_records_follow_the_exact_bin_masses(self, mode):
        """Seeded chi-square of binned records against each bin's exact mass, over
        64 lines of one kernel in [0, 1) at w = 0.01; bins expecting fewer than
        5 draws share one cell."""
        rng = np.random.default_rng(64)
        weights = rng.random(64) + 0.5
        dist = LineMixture(rng.random(64), weights / weights.sum(), mode)
        w, n = 0.01, 2 ** 20
        bins, masses = exact_bin_masses(dist, w)
        observed = np.floor(binned_draws(dist, w, n, seed=5) / w)
        assert bins[0] <= observed.min() and observed.max() <= bins[-1]
        counts = np.bincount((observed - bins[0]).astype(int), minlength=len(bins))
        expected = n * masses / masses.sum()
        cells = expected >= 5
        obs = np.append(counts[cells], counts[~cells].sum())
        exp = np.append(expected[cells], expected[~cells].sum())
        assert exp[-1] > 0 or obs[-1] == 0
        obs, exp = obs[exp > 0], exp[exp > 0]
        stat = ((obs - exp) ** 2 / exp).sum()
        assert chi2.sf(stat, len(exp) - 1) > 1e-3, (stat, len(exp) - 1)

    def test_place_within_bin_is_uniform(self):
        """A wide Gaussian slopes across each bin; the binned draw's place does not."""
        w = 0.5
        draws = binned_draws(line(0.2, Squeezed(1 / (0.5 * np.sqrt(2)))), w, 2 ** 17, seed=6)
        place = draws / w - np.floor(draws / w)
        assert kstest(place, "uniform").pvalue > 1e-3
        assert place.mean() == pytest.approx(0.5, abs=0.005)
        assert place.var() == pytest.approx(1 / 12, abs=0.002)

    @pytest.mark.parametrize("mode", KERNELS)
    def test_bins_are_those_of_the_unbinned_draws(self, mode):
        """Binning reads each draw into its bin: the unbinned record, draw for draw."""
        dist = LineMixture([-0.3, 0.41], [0.25, 0.75], mode)
        raw = sample_measurements(dist, 5000, seed=7).samples
        assert np.array_equal(np.floor(binned_draws(dist, 0.01, 5000, seed=7) / 0.01),
                              np.floor(raw / 0.01))

    @pytest.mark.parametrize("mode", KERNELS)
    def test_chunks_tile_the_single_draw(self, mode):
        dist = LineMixture([-0.3, 0.41], [0.25, 0.75], mode)
        whole = binned_draws(dist, 0.01, 10_001, seed=9)
        for chunk in (4, 4_096, 5_000):
            parts = [binned_draws(dist, 0.01, min(chunk, 10_001 - start), seed=9, start=start)
                     for start in range(0, 10_001, chunk)]
            assert np.array_equal(np.concatenate(parts), whole)
        with pytest.raises(ValueError, match="start must be a multiple of 4"):
            binned_draws(dist, 0.01, 10, seed=9, start=2)


def test_gaussian_density_is_normalized_quadrature():
    # independent check of the density helper itself: lines at -1 and 2
    # with kernel stds 0.3 and 1.1, weighted 0.4 and 0.6
    total = 0.0
    for mu, sd, w in ((-1.0, 0.3, 0.4), (2.0, 1.1, 0.6)):
        dist = line(mu, Squeezed(1 / (sd * np.sqrt(2))))
        total += w * quad(lambda p: float(dist.density(p)), -15, 15, limit=200)[0]
    assert total == pytest.approx(1.0, abs=1e-9)
