import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumode_probe.config import MATRIX
from qumode_probe.operators import (
    DIMENSION_CAP,
    EigenDecomposition,
    HermitianOperator,
    Spectrum,
    SystemState,
    evenly_spaced_spectrum,
    sigma_x,
    sigma_z,
    site_sum,
    spectrum_of,
    spin_x,
    thermal_state,
)
from qumode_probe.reconstruct import Histogram
from qumode_probe.sampling import MeasurementRecord
from qumode_probe.thermo import thermo_report


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (m + m.conj().T))


class TestSpinX:
    def test_spin_half_matrix(self):
        assert np.allclose(spin_x(1).entries, [[0.0, 0.5], [0.5, 0.0]])

    def test_pauli_normalization(self):
        """sigma_x is twice the spin-1/2 J_x, bit for bit."""
        assert sigma_x().entries.tobytes() == (2.0 * spin_x(1).entries).tobytes()
        assert np.allclose(sigma_x().eig().eigenvalues, [-1.0, 1.0])

    def test_spin_one_spectrum(self):
        vals = spin_x(2).eig().eigenvalues
        assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_trivial_dimension(self):
        op = spin_x(0)
        assert op.dim == 1
        assert np.allclose(op.entries, 0.0)


class TestSiteSum:
    def test_single_site(self):
        assert np.allclose(site_sum(sigma_x(), 1).entries, sigma_x().entries)

    def test_two_sites_spectrum(self):
        total = site_sum(sigma_x(), 2)
        # brute-force oracle on the explicit 4x4 Kronecker sum
        sx = sigma_x().entries
        explicit = np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx)
        assert np.allclose(total.entries, explicit)
        assert np.allclose(np.linalg.eigvalsh(explicit), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)
        assert np.allclose(total.eig().eigenvalues, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_three_sites_max_eigenvalue(self):
        vals = site_sum(sigma_x(), 3).eig().eigenvalues
        assert np.isclose(vals[-1], 3.0, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            site_sum(sigma_x(), 11)  # 2**11 = 2048 > 1024


class TestThermalState:
    def test_infinite_temperature(self):
        st_ = thermal_state(random_hermitian(4, 0), beta=0.0)
        assert np.allclose(st_.rho, np.eye(4) / 4, atol=1e-12)

    def test_qubit_boltzmann(self):
        st_ = thermal_state(HermitianOperator(np.diag([0.0, 1.0])), beta=np.log(2))
        assert np.allclose(np.diag(st_.rho).real, [2 / 3, 1 / 3], atol=1e-12)

    def test_zero_temperature_limit(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        st_ = thermal_state(h, beta=50.0)
        assert np.allclose(st_.rho, np.diag([1.0, 0.0, 0.0]), atol=1e-10)

    def test_shift_invariance(self):
        h = random_hermitian(5, 3)
        shifted = HermitianOperator(h.entries + 7.3 * np.eye(5))
        a = thermal_state(h, 1.7).rho
        b = thermal_state(shifted, 1.7).rho
        assert np.allclose(a, b, atol=1e-12)

    def test_large_beta_no_underflow(self):
        h = HermitianOperator(np.diag([1000.0, 1001.0]))
        st_ = thermal_state(h, beta=500.0)
        assert np.isfinite(st_.rho).all()
        assert np.isclose(np.trace(st_.rho).real, 1.0)

    def test_rejects_bad_beta(self):
        h = random_hermitian(2, 0)
        with pytest.raises(ValueError):
            thermal_state(h, -1.0)
        with pytest.raises(ValueError):
            thermal_state(h, np.inf)

    def test_skips_the_eigenvalue_check(self, monkeypatch):
        h = random_hermitian(6, 2)
        h.eig()

        def fail(*args, **kwargs):
            raise AssertionError("thermal_state re-checked rho's eigenvalues")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert np.isclose(np.trace(thermal_state(h, 1.3).rho).real, 1.0)

    def test_spectrum_reads_the_gibbs_weights(self):
        h = random_hermitian(4, 177)
        vals = h.eig().eigenvalues
        weights = np.exp(-5.0 * (vals - vals.min()))
        weights /= weights.sum()
        spec = spectrum_of(thermal_state(h, 5.0), h)
        assert spec.populations.tolist() == weights.tolist()

    def test_other_operator_reads_populations_from_rho(self):
        h = random_hermitian(4, 177)
        twin = HermitianOperator(h.entries)
        exact = spectrum_of(thermal_state(h, 1.0), h)
        from_rho = spectrum_of(thermal_state(h, 1.0), twin)
        assert np.allclose(from_rho.populations, exact.populations, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("h", [random_hermitian(6, 5),
                                   HermitianOperator(np.diag([0.0, 0.3, 0.3, 1.0]))],
                             ids=["complex", "real"])
    def test_lazy_rho_is_the_gibbs_density_matrix(self, h):
        state = thermal_state(h, 0.7)
        dec = h.eig()
        weights = np.exp(-0.7 * (dec.eigenvalues - dec.eigenvalues.min()))
        weights /= weights.sum()
        v = dec.eigenvectors
        rho = state.rho
        assert state.rho is rho
        assert rho.dtype == h.entries.dtype
        assert not rho.flags.writeable
        assert np.allclose(rho, (v * weights) @ v.conj().T, rtol=0, atol=1e-15)
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_gibbs_spectrum_builds_no_density_matrix(self):
        """rho alone would be 8 MiB at the dimension cap."""
        h = HermitianOperator(np.diag(np.linspace(0.0, 100.0, DIMENSION_CAP)))
        h.eig()
        tracemalloc.start()
        try:
            spec = spectrum_of(thermal_state(h, 0.02), h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(spec.lines) == DIMENSION_CAP
        assert peak < 4 * 2 ** 20, peak

    @pytest.mark.parametrize("populations, message", [
        ([0.5, np.nan, 0.5], "finite and nonnegative"),
        ([0.5, np.inf, 0.5], "finite and nonnegative"),
        ([1.2, -0.2, 0.0], "finite and nonnegative"),
        ([0.5, 0.25, 0.25 + 1e-9], "not 1"),
    ])
    def test_bad_gibbs_populations_raise(self, populations, message):
        h = HermitianOperator(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match=message):
            SystemState._in_eigenbasis(h, np.array(populations))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), beta=st.floats(0.01, 20.0))
    def test_boltzmann_ordering(self, seed, beta):
        h = random_hermitian(5, seed)
        spec = spectrum_of(thermal_state(h, beta), h)
        pops = spec.populations / spec.degeneracies
        assert np.all(np.diff(pops) <= 1e-12)


class TestSpectrumOf:
    def test_pure_eigenstate(self):
        h = random_hermitian(4, 7)
        v = h.eig().eigenvectors[:, 0]
        spec = spectrum_of(SystemState(np.outer(v, v.conj())), h)
        assert np.isclose(spec.lines[0].P, 1.0, atol=1e-10)
        assert np.isclose(spec.populations.sum(), 1.0, atol=1e-9)

    def test_maximally_mixed_sigma_x(self):
        spec = spectrum_of(SystemState(np.eye(2) / 2), sigma_x())
        assert [(round(l.E), l.g) for l in spec.lines] == [(-1, 1), (1, 1)]
        assert np.allclose(spec.populations, [0.5, 0.5])

    def test_degenerate_thermal_line(self):
        h = HermitianOperator(np.diag([0.0, 1.0, 1.0]))
        spec = spectrum_of(thermal_state(h, 1.0), h)
        z = 1 + 2 * np.exp(-1.0)
        assert len(spec.lines) == 2
        assert spec.lines[0].g == 1 and spec.lines[1].g == 2
        assert np.allclose(spec.populations, [1 / z, 2 * np.exp(-1.0) / z], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spectrum_of(SystemState(np.eye(2) / 2), random_hermitian(3, 0))

    def test_merge_tolerance_groups_nearby(self):
        h = HermitianOperator(np.diag([0.0, 1e-10, 1.0]))
        spec = spectrum_of(SystemState(np.eye(3) / 3), h, merge_tol=1e-8)
        assert [l.g for l in spec.lines] == [2, 1]

    def test_merge_is_not_transitive(self):
        h = HermitianOperator(np.diag([0.0, 5e-9, 1e-8, 1.5e-8, 1.0]))
        spec = spectrum_of(SystemState(np.eye(5) / 5), h, merge_tol=1e-8)
        assert [l.g for l in spec.lines] == [3, 1, 1]
        # the first line spans [0, 1e-8]; 1.5e-8 starts a line of its own
        assert np.allclose(spec.energies, [5e-9, 1.5e-8, 1.0], rtol=0.0, atol=1e-15)
        assert np.allclose(spec.populations, [0.6, 0.2, 0.2])

    def test_degenerate_line_near_float_max(self):
        # the plain mean sums 1e308 + 1e308 and overflows
        h = HermitianOperator(np.diag([1e308, 1e308, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = spectrum_of(SystemState(np.eye(3) / 3), h)
        assert spec.energies.tolist() == [0.0, 1e308]
        assert spec.degeneracies.tolist() == [1, 2]
        assert np.allclose(spec.populations, [1 / 3, 2 / 3])


class TestStorageDtype:
    def test_real_input_is_stored_real(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(7, 7))
        real = HermitianOperator(m + m.T)
        typed_complex = HermitianOperator((m + m.T).astype(complex))
        for op in (real, typed_complex):
            assert op.entries.dtype == np.float64
            assert op.eig().eigenvectors.dtype == np.float64
        assert np.array_equal(real.eig().eigenvalues, typed_complex.eig().eigenvalues)
        assert np.array_equal(real.eig().eigenvectors, typed_complex.eig().eigenvectors)

    def test_complex_input_stays_complex(self):
        h = random_hermitian(5, 4)
        assert h.entries.dtype == np.complex128
        assert h.eig().eigenvectors.dtype == np.complex128

    def test_state_follows_the_same_rule(self):
        assert SystemState(np.eye(3, dtype=complex) / 3).rho.dtype == np.float64
        pure = np.array([1.0, 1j]) / np.sqrt(2)
        assert SystemState(np.outer(pure, pure.conj())).rho.dtype == np.complex128

    @pytest.mark.parametrize("build", [HermitianOperator, SystemState])
    def test_empty_matrix_rejected(self, build):
        with pytest.raises(ValueError, match="matrix must be at least 1×1"):
            build(np.zeros((0, 0)))


class TestValidation:
    def test_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_operator_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            HermitianOperator(np.diag([0.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            SystemState(np.array([[1.0, bad], [bad, 0.0]]))

    def test_state_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            SystemState(np.eye(2))

    def test_state_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            SystemState(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("energies, populations, extra, message", [
        pytest.param([], [], {}, "non-empty 1-D arrays of one length", id="empty"),
        pytest.param([[0.0, 1.0]], [[0.5, 0.5]], {}, "non-empty 1-D", id="two-dimensional"),
        pytest.param([0.0, 1.0], [1.0], {}, "of one length", id="short-populations"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"degeneracies": [1]}, "of one length",
                     id="short-degeneracies"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"counts": [1, 2, 3]}, "of one length",
                     id="long-counts"),
        pytest.param([0.0, np.nan], [0.5, 0.5], {}, "finite and strictly", id="nan-energy"),
        pytest.param([0.0, np.inf], [0.5, 0.5], {}, "finite and strictly", id="inf-energy"),
        pytest.param([1.0, 1.0], [0.5, 0.5], {}, "strictly increasing", id="equal-energies"),
        pytest.param([1.0, 0.0], [0.5, 0.5], {}, "strictly increasing", id="unsorted"),
        pytest.param([0.0, 1.0], [np.nan, 1.0], {}, "finite and nonnegative", id="nan-population"),
        pytest.param([0.0, 1.0], [-0.5, 1.5], {}, "finite and nonnegative",
                     id="negative-population"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"degeneracies": [1, 0]}, "positive integer",
                     id="zero-degeneracy"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"degeneracies": [1, 1.5]}, "positive integer",
                     id="fractional-degeneracy"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"counts": [3, -1]}, "nonnegative integers",
                     id="negative-count"),
        pytest.param([0.0, 1.0], [0.6, 0.5], {"residual_mass": -0.1}, "not in",
                     id="negative-residual"),
        pytest.param([0.0, 1.0], [0.0, 0.0], {"residual_mass": 1.0}, "not in",
                     id="residual-one"),
        pytest.param([0.0, 1.0], [0.5, 0.5], {"residual_mass": np.nan}, "not in",
                     id="nan-residual"),
        pytest.param([0.0, 1.0], [0.4, 0.4], {}, "sum to", id="unnormalized"),
        pytest.param([0.0, 1.0], [0.5, 0.5 - 1e-6], {}, "sum to", id="short-by-1e-6"),
        pytest.param([0.0, 1.0], [0.5, 0.3], {"residual_mass": 0.2 + 1e-6}, "sum to",
                     id="residual-over-by-1e-6"),
    ])
    def test_spectrum_rejects(self, energies, populations, extra, message):
        with pytest.raises(ValueError, match=message):
            Spectrum(energies, populations, **extra)

    def test_spectrum_arrays_are_read_only_copies_behind_lines(self):
        E = np.array([-1.0, 0.0, 2.5])
        spec = Spectrum(E, [0.5, 0.2, 0.1], [1, 2, 1], counts=[50, 20, 10],
                        residual_mass=0.2 + 5e-10)
        E[0] = 7.0
        assert spec.energies.tolist() == [-1.0, 0.0, 2.5]
        for a in (spec.energies, spec.populations, spec.degeneracies, spec.counts):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert spec.lines == ((-1.0, 0.5, 1, 50), (0.0, 0.2, 2, 20), (2.5, 0.1, 1, 10))
        line = spec.lines[1]
        assert (line.E_hat, line.P_hat, line.count) == (line.E, line.P, 20)
        exact = Spectrum.from_lines([(0.0, 0.75, 1), (1.0, 0.25, 3)])
        assert exact.lines == ((0.0, 0.75, 1, None), (1.0, 0.25, 3, None))
        assert exact.counts is None and exact.residual_mass == 0.0
        assert Spectrum([0.0, 1.0], [0.5, 0.5]).degeneracies.tolist() == [1, 1]


def test_evenly_spaced_spectrum_seeded():
    a = evenly_spaced_spectrum(5, seed=42)
    b = evenly_spaced_spectrum(5, seed=42)
    assert a.lines == b.lines
    assert np.allclose(a.energies, [0, 1, 2, 3, 4])
    assert np.isclose(a.populations.sum(), 1.0)


# LAPACK's eigh scales a matrix whose largest |entry| lies outside
# [2**-485, 2**485] and rounds the eigenvalues in scaling back, so it is
# an exact oracle for a diagonal only inside that range
LAPACK_UNSCALED = (2.0 ** -485, 2.0 ** 485)

TIED_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.0, 1e-300]
diagonals = st.lists(st.sampled_from(TIED_VALUES)
                     | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=40)


def eigh_oracle(h: HermitianOperator) -> HermitianOperator:
    """A copy of ``h`` whose decomposition is LAPACK's eigh of its entries."""
    oracle = HermitianOperator(h.entries)
    oracle._eig = EigenDecomposition(*np.linalg.eigh(oracle.entries))
    return oracle


def in_lapack_range(diagonal) -> bool:
    top = np.abs(diagonal).max()
    return top == 0 or LAPACK_UNSCALED[0] <= top <= LAPACK_UNSCALED[1]


def assert_permutation_decomposition(h: HermitianOperator):
    dec = h.eig()
    v = dec.eigenvectors
    assert v.dtype == h.entries.dtype
    assert set(np.unique(v).tolist()) <= {0, 1}
    assert (v.sum(axis=0) == 1).all() and (v.sum(axis=1) == 1).all()
    assert np.array_equal((v * dec.eigenvalues) @ v.conj().T, h.entries)


class TestDiagonalDecomposition:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(diagonal=diagonals, typed_complex=st.booleans())
    def test_matches_eigh(self, diagonal, typed_complex):
        x = np.array(diagonal)
        h = HermitianOperator(np.diag(x).astype(complex if typed_complex else float))
        vals = h.eig().eigenvalues
        assert vals.tobytes() == x[np.argsort(x, kind="stable")].tobytes()
        assert h.entries.dtype == np.float64
        assert np.array_equal(h.entries, np.diag(x))
        assert_permutation_decomposition(h)
        if in_lapack_range(x):
            oracle = np.linalg.eigh(h.entries)[0]
            # bit for bit, but for the order of +0.0 and -0.0 within a tie
            assert (vals + 0.0).tobytes() == (oracle + 0.0).tobytes()

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_exact_where_lapack_scales(self, scale):
        x = np.random.default_rng(3).normal(size=20) * scale
        vals = HermitianOperator(np.diag(x)).eig().eigenvalues
        assert vals.tobytes() == np.sort(x).tobytes()
        oracle = np.linalg.eigh(np.diag(x))[0]
        assert np.allclose(vals, oracle, rtol=1e-14, atol=0)

    def test_diagonal_matrix_payload(self):
        entries = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                   [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0],
                   [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]
        h = HermitianOperator(MATRIX.check({"dim": 3, "entries": entries}, "matrix"))
        assert h.eig().eigenvalues.tolist() == [-1.0, 2.0, 2.0]
        assert h.eig().eigenvalues.tobytes() == np.linalg.eigh(h.entries)[0].tobytes()
        assert_permutation_decomposition(h)

    def test_sigma_z(self):
        h = sigma_z()
        assert h.eig().eigenvalues.tolist() == [-1.0, 1.0]
        assert h.eig().eigenvalues.tobytes() == np.linalg.eigh(h.entries)[0].tobytes()
        assert_permutation_decomposition(h)
        assert h.eig().eigenvectors.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_complex_diagonal_keeps_its_dtype(self):
        h = HermitianOperator(np.diag([1.0 + 1e-14j, -2.0 + 0j]))
        assert h.entries.dtype == np.complex128
        assert h.entries.tolist() == [[1.0, 0.0], [0.0, -2.0]]
        assert h.eig().eigenvalues.tolist() == [-2.0, 1.0]
        assert_permutation_decomposition(h)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(real=st.floats(-1e3, 1e3), imag=st.floats(0.0, 1e-8))
    def test_hermiticity_check_matches_the_dense_one(self, real, imag):
        a = np.diag([real + 1j * imag, 0.25])
        tol = 1e-12 * max(1.0, np.abs(a).max())
        dense_ok = np.allclose(a, a.conj().T, rtol=0.0, atol=tol)
        if dense_ok:
            HermitianOperator(a)
        else:
            with pytest.raises(ValueError, match="matrix is not Hermitian"):
                HermitianOperator(a)

    def test_entries_are_copied_and_read_only(self):
        x = np.diag([1.0, 0.0])
        h = HermitianOperator(x)
        x[0, 0] = 5.0
        assert h.entries[0, 0] == 1.0
        assert not h.entries.flags.writeable

    def test_no_eigensolve(self, monkeypatch):
        # the state's own PSD check runs eigvalsh, so it is built first
        mixed = SystemState(np.eye(4) / 4)

        def fail(*args, **kwargs):
            raise AssertionError("a diagonal operator called LAPACK")
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, fail)
        h = HermitianOperator(np.diag([3.0, 1.0, 1.0, 0.0]))
        for state in (thermal_state(h, 0.5), mixed):
            assert [line.g for line in spectrum_of(state, h).lines] == [1, 2, 1]


def tied_diagonal(seed: int, d: int = 48) -> np.ndarray:
    """d energies drawn from six levels, with ties, signed zeros among them."""
    rng = np.random.default_rng(seed)
    return rng.choice([-0.0, 0.0, 0.25, 1.0, 1.0 + 5e-9, 3.0], size=d)


def ground_of(h):
    v = h.eig().eigenvectors[:, 0]
    return SystemState(np.outer(v, v.conj()))


def random_populations(h, seed=7):
    pops = np.random.default_rng(seed).random(h.dim)
    pops /= pops.sum()
    vecs = h.eig().eigenvectors
    return SystemState((vecs * pops) @ vecs.conj().T)


class TestDiagonalSpectrumMatchesEigh:
    """Lines from the sorted diagonal against lines from LAPACK's eigh.

    A tie merges into one line, so the order eigh gives tied eigenvectors
    does not reach the lines.
    """

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("make_state", [
        lambda h: thermal_state(h, 0.9),
        lambda h: SystemState(np.eye(h.dim) / h.dim),
        ground_of,
        random_populations,
    ], ids=["thermal", "maximally-mixed", "ground-of", "random-populations"])
    def test_lines(self, seed, make_state):
        h = HermitianOperator(np.diag(tied_diagonal(seed)))
        oracle = eigh_oracle(h)
        ours, theirs = spectrum_of(make_state(h), h), spectrum_of(make_state(oracle), oracle)
        assert [line.g for line in ours.lines] == [line.g for line in theirs.lines]
        assert (ours.energies + 0.0).tobytes() == (theirs.energies + 0.0).tobytes()
        assert ours.populations.tobytes() == theirs.populations.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_explicit_state_is_eigh_reordered_within_ties(self, seed):
        """An explicit rho's populations come in eigenvector order, which
        differs from eigh's within a tie, so the normalising sum and each
        line's sum run in another order and P may move in its last ulps.

        On a diagonal, eigh's eigenvectors are a signed permutation, so
        each of its populations is exactly one diagonal entry of rho. Put
        in the stable sort's order and reduced as spectrum_of reduces
        them, they must give the lines bit for bit.
        """
        h = HermitianOperator(np.diag(tied_diagonal(seed)))
        vals, v = np.linalg.eigh(h.entries)
        assert set(np.unique(np.abs(v)).tolist()) == {0.0, 1.0}
        assert (np.count_nonzero(v, axis=0) == 1).all()
        position = np.empty(h.dim, dtype=int)
        position[np.abs(v).argmax(axis=0)] = np.arange(h.dim)
        reorder = position[np.argsort(h.entries.diagonal(), kind="stable")]
        assert (vals[reorder] + 0.0).tobytes() == (h.eig().eigenvalues + 0.0).tobytes()

        p = np.random.default_rng(seed + 100).random(h.dim)
        q, _ = np.linalg.qr(np.random.default_rng(seed + 200).normal(size=(h.dim, h.dim)))
        for rho in (np.diag(p / p.sum()), (q * (p / p.sum())) @ q.T):
            state = SystemState(rho)
            theirs = np.real(np.sum(v.conj() * (state.rho @ v), axis=0))[reorder]
            theirs = np.clip(theirs, 0.0, None)
            theirs /= theirs.sum()
            ours = spectrum_of(state, h)
            edges = np.cumsum([0, *ours.degeneracies])
            expected = np.array([theirs[i:j].sum() for i, j in zip(edges, edges[1:])])
            assert ours.populations.tobytes() == expected.tobytes()


def test_array_holders_compare_by_identity():
    """Equal arrays make distinct instances; == says so without asking an array
    for its truth value."""
    m = np.diag([0.0, 1.0])
    dec = HermitianOperator(m).eig()
    spec = Spectrum([0.0, 1.0], [0.5, 0.5])
    builders = [
        lambda: HermitianOperator(m),
        lambda: EigenDecomposition(dec.eigenvalues, dec.eigenvectors),
        lambda: MeasurementRecord(np.zeros(3), seed=1),
        lambda: Histogram(np.arange(2.0), np.ones(2, dtype=np.intp), 0.1),
        lambda: thermo_report(spec, 1.0, [1.0, 2.0]),
    ]
    for build in builders:
        a, b = build(), build()
        assert a == a
        assert (a == b) is False
        assert a != b
