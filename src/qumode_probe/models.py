"""Ready-made interaction operators."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .operators import HermitianOperator, sigma_x, site_sum, spin_x


def rabi_interaction(n_sites: int = 1) -> HermitianOperator:
    """sigma_x summed over an array of two-level systems (one by default)."""
    return site_sum(sigma_x(), n_sites)


def dicke_interaction(n_atoms: int) -> HermitianOperator:
    """Collective J_x of n_atoms two-level atoms, symmetric sector only.

    Built in the (n_atoms + 1)-dimensional spin-(n/2) representation, not
    the full 2**n product space.
    """
    if n_atoms < 1:
        raise ValueError("need at least one atom")
    return spin_x(n_atoms)


def linear_family(base: HermitianOperator,
                  coupling: HermitianOperator) -> Callable[[float], HermitianOperator]:
    """The builder lambda -> H(lambda) = base + lambda * coupling, for criticality scans."""
    if base.dim != coupling.dim:
        raise ValueError(f"dimension mismatch: {base.dim} vs {coupling.dim}")

    def build(lam: float) -> HermitianOperator:
        with np.errstate(over="ignore"):  # HermitianOperator refuses an entry beyond float64
            entries = base.entries + lam * coupling.entries
        return HermitianOperator(entries)

    return build
