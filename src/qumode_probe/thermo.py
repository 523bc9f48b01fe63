"""Thermodynamic inference from spectral lines.

Works on either exact spectra (from `spectrum_of`) or reconstructed
ones; everything reduces to Boltzmann algebra over (E_n, P_n, g_n)
triples plus a few density-matrix traces for the quench and overlap
protocols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    HermitianOperator,
    SpectralLine,
    Spectrum,
    commutator_norm,
    spectrum_of,
    thermal_state,
)

class NonThermalSpectrumError(ValueError):
    """Populations are inconsistent with a Gibbs state at the claimed beta."""


class DegenerateGroundStateError(ValueError):
    """The overlap protocol requires nondegenerate ground states."""


def estimate_beta(line0: SpectralLine, line1: SpectralLine) -> float:
    """Inverse temperature from two lines with known degeneracies.

    beta = log(P0 g1 / (P1 g0)) / (E1 - E0); depends only on the energy
    difference, so it is invariant under uniform spectral shifts.
    """
    if line0.E == line1.E:
        raise ValueError("lines must have distinct energies")
    if line0.P <= 0 or line1.P <= 0:
        raise ValueError("line populations must be positive")
    return float(np.log(line0.P * line1.g / (line1.P * line0.g))
                 / (line1.E - line0.E))


def recover_degeneracies(spec: Spectrum, beta: float, anchor: int = 0,
                         residual_tol: float = 0.25) -> Spectrum:
    """Fill in integer degeneracies assuming a thermal population pattern.

    g_n = P_n g_a exp(beta (E_n - E_a)) / P_a relative to the anchor
    line whose degeneracy is trusted.  A pre-rounding residual above
    ``residual_tol`` means the populations are not thermal at this beta.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if not 0 <= anchor < len(spec.lines):
        raise ValueError(f"anchor index {anchor} out of range")
    ref = spec.lines[anchor]
    lines = []
    for line in spec.lines:
        raw = line.P * ref.g * np.exp(beta * (line.E - ref.E)) / ref.P
        g = int(round(raw))
        if abs(raw - g) > residual_tol or g < 1:
            raise NonThermalSpectrumError(
                f"degeneracy estimate {raw:.4f} at E={line.E:.6g} is not near an integer")
        lines.append(SpectralLine(E=line.E, P=line.P, g=g))
    return Spectrum(tuple(lines))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))), shifted by max(a) so no term overflows."""
    a_max = a.max()
    return float(np.log(np.sum(np.exp(a - a_max))) + a_max)


def log_partition_function(spec: Spectrum, beta: float) -> float:
    """log Z(beta) = logsumexp(log g_n - beta E_n), stable at large beta."""
    e = spec.energies
    g = spec.degeneracies
    shift = e.min()
    return float(_logsumexp(-beta * (e - shift) + np.log(g)) - beta * shift)


def partition_function(spec: Spectrum, beta_grid) -> list[tuple[float, float]]:
    """Z(beta) over a grid from the spectrum's energies and degeneracies."""
    beta_grid = np.atleast_1d(np.asarray(beta_grid, dtype=float))
    if beta_grid.size == 0:
        raise ValueError("beta grid is empty")
    return [(float(b), float(np.exp(log_partition_function(spec, b))))
            for b in beta_grid]


def free_energy(Z: float, beta: float) -> float:
    """F = -log(Z)/beta; beta must be positive (undefined at beta = 0)."""
    if beta <= 0:
        raise ValueError("free energy requires beta > 0")
    if Z <= 0:
        raise ValueError("partition function must be positive")
    return -np.log(Z) / beta


def _thermal_weights(spec: Spectrum, beta: float) -> np.ndarray:
    e = spec.energies
    w = np.exp(-beta * (e - e.min())) * spec.degeneracies
    return w / w.sum()


def thermal_mean_energy(spec: Spectrum, beta: float) -> float:
    return float(np.sum(_thermal_weights(spec, beta) * spec.energies))


def heat_capacity(spec: Spectrum, beta: float) -> float:
    """C = beta^2 Var_beta(E), the curvature of log Z in beta."""
    w = _thermal_weights(spec, beta)
    e = spec.energies
    mean = np.sum(w * e)
    return float(beta ** 2 * np.sum(w * (e - mean) ** 2))


def heat_capacity_finite_difference(spec: Spectrum, beta: float,
                                    rel_step: float = 6e-3) -> float:
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


def entropy(spec: Spectrum, beta: float) -> float:
    """Thermal von Neumann entropy S = beta (U - F)."""
    if beta <= 0:
        raise ValueError("entropy requires beta > 0")
    U = thermal_mean_energy(spec, beta)
    F = free_energy(np.exp(log_partition_function(spec, beta)), beta)
    return float(beta * (U - F))


@dataclass(frozen=True)
class ThermoReport:
    beta_hat: float
    Z_grid: tuple[tuple[float, float], ...]
    F_grid: tuple[tuple[float, float], ...]
    C_grid: tuple[tuple[float, float], ...]
    S_grid: tuple[tuple[float, float], ...]


def default_beta_grid(lo: float = 0.1, hi: float = 10.0, num: int = 50) -> np.ndarray:
    return np.geomspace(lo, hi, num)


def thermo_report(spec: Spectrum, beta_hat: float, beta_grid=None) -> ThermoReport:
    """Z, F, C, S curves from a spectrum with known degeneracies.

    F and S are undefined at beta <= 0, so every grid point must be
    positive.
    """
    if beta_grid is None:
        beta_grid = default_beta_grid()
    if not np.all(np.asarray(beta_grid, dtype=float) > 0):
        raise ValueError("thermo report requires beta > 0 at every grid point")
    z = partition_function(spec, beta_grid)
    return ThermoReport(
        beta_hat=float(beta_hat),
        Z_grid=tuple(z),
        F_grid=tuple((b, free_energy(zz, b)) for b, zz in z),
        C_grid=tuple((b, heat_capacity(spec, b)) for b, _ in z),
        S_grid=tuple((b, entropy(spec, b)) for b, _ in z),
    )


@dataclass(frozen=True)
class QuenchReport:
    W_avg: float
    dF: float
    W_irr: float


def quench_work(H0_int: HermitianOperator, H1_int: HermitianOperator,
                beta: float) -> QuenchReport:
    """Average and irreversible work for a sudden quench H0 -> H1.

    The system starts thermal in H0; <W> is assembled from the two line
    sets of that state (under H0 and under H1), dF from the exact
    partition functions, and W_irr = <W> - dF.
    """
    if H0_int.dim != H1_int.dim:
        raise ValueError(f"dimension mismatch: {H0_int.dim} vs {H1_int.dim}")
    if beta <= 0:
        raise ValueError("quench analysis requires beta > 0")
    rho0 = thermal_state(H0_int, beta)
    spec0 = spectrum_of(rho0, H0_int)
    spec1 = spectrum_of(rho0, H1_int)
    w_avg = spec1.moment(1) - spec0.moment(1)

    def exact_free_energy(H: HermitianOperator) -> float:
        e = H.eig().eigenvalues
        return float(-(_logsumexp(-beta * (e - e.min())) - beta * e.min()) / beta)

    df = exact_free_energy(H1_int) - exact_free_energy(H0_int)
    return QuenchReport(W_avg=float(w_avg), dF=float(df), W_irr=float(w_avg - df))


def ground_state_overlap(H_a: HermitianOperator, H_b: HermitianOperator,
                         degeneracy_tol: float = 1e-8) -> float:
    """Two-stage probe protocol for |<ground_a | ground_b>|^2.

    Stage one post-selects the lowest line of H_a from a maximally mixed
    input, collapsing the system onto its ground state; stage two reads
    off the population of the lowest line of H_b for that state (ground
    energies are gauged to zero internally, so the "zero outcome" of the
    second circuit is its ground line).
    """
    if H_a.dim != H_b.dim:
        raise ValueError(f"dimension mismatch: {H_a.dim} vs {H_b.dim}")
    d = H_a.dim

    def ground_projector(H: HermitianOperator) -> np.ndarray:
        dec = H.eig()
        vals = dec.eigenvalues
        if d > 1 and vals[1] - vals[0] <= degeneracy_tol:
            raise DegenerateGroundStateError(
                f"ground-state gap {vals[1] - vals[0]:.3g} below tolerance")
        v = dec.eigenvectors[:, 0]
        return np.outer(v, v.conj())

    proj_a = ground_projector(H_a)
    proj_b = ground_projector(H_b)

    # stage 1: maximally mixed input, post-select the lowest line of H_a
    rho = proj_a @ (np.eye(d) / d) @ proj_a
    rho = rho / np.trace(rho).real
    # stage 2: probability of the lowest line of H_b
    return float(np.trace(proj_b @ rho).real)


@dataclass(frozen=True)
class ValidityReport:
    passed: bool
    commuting: bool
    coupling_ratio: float
    bare_evolution: float
    ratio_required: float
    eps_required: float


def validity_check(H0_bare: HermitianOperator, H_int: HermitianOperator,
                   g: float, tau: float,
                   ratio: float = 100.0, eps: float = 0.01) -> ValidityReport:
    """Check the fast-interaction and short-time conditions.

    Commuting bare and interaction Hamiltonians are exempt; otherwise
    require g ||H_int|| >= ratio * ||H0|| and ||H0|| tau <= eps.
    """
    if g <= 0 or tau <= 0:
        raise ValueError("g and tau must be positive")
    norm0 = H0_bare.spectral_norm()
    norm_int = H_int.spectral_norm()
    comm = commutator_norm(H0_bare, H_int)
    commuting = comm <= 1e-10 * max(1.0, norm0 * norm_int)
    coupling_ratio = g * norm_int / norm0 if norm0 > 0 else float("inf")
    bare_evolution = norm0 * tau
    passed = commuting or (coupling_ratio >= ratio and bare_evolution <= eps)
    return ValidityReport(passed=passed, commuting=commuting,
                          coupling_ratio=float(coupling_ratio),
                          bare_evolution=float(bare_evolution),
                          ratio_required=ratio, eps_required=eps)
