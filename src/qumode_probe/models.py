"""Ready-made interaction operators and experimentally motivated regimes."""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RegimePreset:
    name: str
    g_tau: float
    note: str


def regime_presets() -> list[RegimePreset]:
    """Coupling-time products reported for current experimental platforms."""
    return [
        RegimePreset("circuit_qed", 200.0,
                     "superconducting qubit + nanomechanical resonator, "
                     "protocol run for the resonator lifetime"),
        RegimePreset("cavity_qed", 40.0,
                     "atom + cavity field, protocol run for the cavity lifetime"),
        RegimePreset("dicke_cold_atoms_lower", 1e-3,
                     "atomic ensemble in an optical cavity, lower bound"),
        RegimePreset("dicke_cold_atoms_upper", 1e-2,
                     "atomic ensemble in an optical cavity, upper bound"),
    ]


def preset_by_name(name: str) -> RegimePreset:
    for preset in regime_presets():
        if preset.name == name:
            return preset
    raise KeyError(f"unknown regime preset {name!r}")


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
