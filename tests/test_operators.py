import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumode_probe.operators import (
    DIMENSION_CAP,
    HermitianOperator,
    Spectrum,
    SystemState,
    commutator_norm,
    evenly_spaced_spectrum,
    sigma_x,
    sigma_z,
    site_sum,
    spectrum_of,
    spin_x,
    thermal_state,
)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (m + m.conj().T))


class TestSpinX:
    def test_spin_half_matrix(self):
        assert np.allclose(spin_x(1).entries, [[0.0, 0.5], [0.5, 0.0]])

    def test_pauli_normalization(self):
        vals = spin_x(1, pauli=True).eig().eigenvalues
        assert np.allclose(vals, [-1.0, 1.0])

    def test_spin_one_spectrum(self):
        vals = spin_x(2).eig().eigenvalues
        assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_trivial_dimension(self):
        op = spin_x(0)
        assert op.dim == 1
        assert np.allclose(op.entries, 0.0)

    def test_pauli_flag_requires_two_level(self):
        with pytest.raises(ValueError):
            spin_x(2, pauli=True)


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


class TestCommutatorNorm:
    def test_self_commutes(self):
        h = random_hermitian(4, 1)
        assert commutator_norm(h, h) == 0.0

    def test_proportional_commute(self):
        assert commutator_norm(sigma_x(), HermitianOperator(3 * sigma_x().entries)) == 0.0

    def test_pauli_pair(self):
        assert np.isclose(commutator_norm(sigma_x(), sigma_z()), 2.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_norm(sigma_x(), random_hermitian(3, 0))


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

    def test_spectrum_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Spectrum.from_lines([(0.0, 0.4, 1), (1.0, 0.4, 1)])

    def test_spectrum_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Spectrum.from_lines([(1.0, 0.5, 1), (0.0, 0.5, 1)])


def test_evenly_spaced_spectrum_seeded():
    a = evenly_spaced_spectrum(5, seed=42)
    b = evenly_spaced_spectrum(5, seed=42)
    assert a == b
    assert np.allclose(a.energies, [0, 1, 2, 3, 4])
    assert np.isclose(a.populations.sum(), 1.0)
