import numpy as np
import pytest
from math import comb

from qumode_probe.models import (
    dicke_interaction,
    linear_family,
    rabi_interaction,
)
from qumode_probe.operators import DIMENSION_CAP, HermitianOperator, sigma_x
from qumode_probe.probe import ProbeConfig, Squeezed
from qumode_probe.reconstruct import resolution_params


class TestRabiInteraction:
    def test_single_site_is_sigma_x(self):
        op = rabi_interaction(1)
        assert np.allclose(op.entries, sigma_x().entries)
        assert np.allclose(op.eig().eigenvalues, [-1.0, 1.0])

    def test_two_sites(self):
        vals = rabi_interaction(2).eig().eigenvalues
        assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_binomial_degeneracies(self, n):
        vals = rabi_interaction(n).eig().eigenvalues
        # brute-force oracle: numpy diagonalization of the Kronecker sum
        sx = sigma_x().entries
        explicit = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for i in range(n):
            explicit += np.kron(np.kron(np.eye(2 ** i), sx), np.eye(2 ** (n - i - 1)))
        assert np.allclose(vals, np.linalg.eigvalsh(explicit), atol=1e-10)
        for k in range(n + 1):
            level = -n + 2 * k
            count = np.sum(np.abs(vals - level) < 1e-9)
            assert count == comb(n, k)

    def test_hadamard_rotation_probes_sigma_z(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        rotated = hadamard @ rabi_interaction(1).entries @ hadamard
        assert np.allclose(rotated, np.diag([1.0, -1.0]), atol=1e-12)


class TestDickeInteraction:
    def test_single_atom(self):
        assert np.allclose(dicke_interaction(1).entries, [[0.0, 0.5], [0.5, 0.0]])

    def test_two_atoms_spin_one(self):
        vals = dicke_interaction(2).eig().eigenvalues
        assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_hundred_atoms_collective_ladder(self):
        op = dicke_interaction(100)
        assert op.dim == 101
        vals = op.eig().eigenvalues
        assert np.allclose(vals, np.arange(-50.0, 51.0), atol=1e-8)

    def test_rejects_zero_atoms(self):
        with pytest.raises(ValueError):
            dicke_interaction(0)

    def test_dimension_cap_checked_before_building(self, monkeypatch):
        assert dicke_interaction(DIMENSION_CAP - 1).dim == DIMENSION_CAP

        def no_dense_matrix(*args, **kwargs):
            raise AssertionError("dense matrix built past the cap")

        monkeypatch.setattr(np, "zeros", no_dense_matrix)
        with pytest.raises(ValueError, match=f"dimension 100001 exceeds cap {DIMENSION_CAP}"):
            dicke_interaction(100_000)


def test_dicke_unsqueezed_resolution():
    """An atomic ensemble in an optical cavity reaches g·tau = 1e-2 at best:
    an unsqueezed probe then blurs energies over a width of about 70."""
    probe = ProbeConfig(0.0, 1.0, 1e-2, Squeezed(1.0))
    sigma_E = resolution_params(probe).sigma_E
    assert sigma_E == pytest.approx(1.0 / (np.sqrt(2) * 1e-2))
    assert sigma_E < 500.0


class TestParamFamilies:
    @staticmethod
    def dicke_family(n_atoms):
        """The Dicke lambda family that ``sweep`` scans: lambda J_x, on a zero base."""
        coupling = dicke_interaction(n_atoms)
        return linear_family(HermitianOperator(np.zeros((coupling.dim, coupling.dim))), coupling)

    def test_dicke_family_scales_coupling(self):
        build = self.dicke_family(4)
        assert build(2.5).entries.tobytes() == (2.5 * dicke_interaction(4).entries).tobytes()

    def test_family_members_hermitian(self):
        build = self.dicke_family(3)
        for lam in (-1.0, 0.5, 3.0):
            op = build(lam)
            assert np.allclose(op.entries, op.entries.conj().T)

    def test_linear_family(self):
        base = sigma_x()
        coupling = dicke_interaction(1)
        build = linear_family(base, coupling)
        assert np.allclose(build(2.0).entries, base.entries + 2.0 * coupling.entries)
