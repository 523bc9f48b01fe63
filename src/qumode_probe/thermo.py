"""Thermodynamic inference from spectral lines.

Works on either exact spectra (from `spectrum_of`) or reconstructed
ones; everything reduces to Boltzmann algebra over (E_n, P_n, g_n)
triples, plus the ground eigenvectors of two operators for the overlap
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    DEGENERACY_MERGE_TOL,
    HermitianOperator,
    SpectralLine,
    Spectrum,
    _resolution,
    spectrum_of,
    thermal_state,
)

# distance from the nearest integer above which a raw degeneracy is not thermal
RESIDUAL_TOL = 0.25


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


def recover_degeneracies(spec: Spectrum, beta: float, anchor: int = 0) -> Spectrum:
    """Fill in integer degeneracies assuming a thermal population pattern.

    g_n = P_n g_a exp(beta (E_n - E_a)) / P_a relative to the anchor
    line whose degeneracy is trusted.  A pre-rounding residual above
    ``RESIDUAL_TOL`` means the populations are not thermal at this beta;
    so does an estimate below 1 or not finite.  The result is ``spec``
    with these degeneracies, its counts and residual mass kept.
    """
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    E, P = spec.energies, spec.populations
    if not 0 <= anchor < len(E):
        raise ValueError(f"anchor index {anchor} out of range")
    with np.errstate(all="ignore"):  # a NaN or inf estimate is rejected below
        raw = P * spec.degeneracies[anchor] * np.exp(beta * (E - E[anchor])) / P[anchor]
        g = np.round(raw)
        bad = ~(np.abs(raw - g) <= RESIDUAL_TOL) | (g < 1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NonThermalSpectrumError(
            f"degeneracy estimate {raw[k]:.4f} at E={E[k]:.6g} is not near an integer")
    return replace(spec, degeneracies=g.astype(np.int64))


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, shifted by its max so no term overflows."""
    a_max = a.max(axis=-1, keepdims=True)
    return np.log(np.sum(np.exp(a - a_max), axis=-1)) + a_max[..., 0]


# (beta x line) entries per block of the Boltzmann sums: 512 KiB per
# float64 temporary, whatever the grid and the number of lines
_BLOCK_ENTRIES = 2 ** 16


def _boltzmann(E: np.ndarray, g: np.ndarray, betas: np.ndarray):
    """log Z, F = -log Z / beta, U = <E> and C = beta^2 Var(E) at every beta
    over lines (E, g).

    log Z is a max-shifted log-sum-exp (Blanchard, Higham & Higham, IMA
    J. Numer. Anal. 41, 2021), so it stays finite where Z itself
    overflows or underflows; the weights are shifted by E_min alike.
    """
    shift = E.min()
    de = E - shift
    log_g = np.log(g)
    log_z, F, U, C = (np.empty(len(betas)) for _ in range(4))
    rows = max(1, _BLOCK_ENTRIES // len(E))
    for lo in range(0, len(betas), rows):
        block = slice(lo, lo + rows)
        b = betas[block, None]
        with np.errstate(over="ignore"):  # beta (E - E_min) -> inf weighs exp(-inf) = 0
            x = -b * de
        lse = _logsumexp(x + log_g)
        # beta E_min -> inf makes log Z infinite, but not F = E_min - lse / beta,
        # taken only there; F is undefined at beta = 0, where only log Z is read
        with np.errstate(over="ignore", divide="ignore"):
            log_z[block] = lse - b[:, 0] * shift
            F[block] = -log_z[block] / b[:, 0]
        over = np.isinf(log_z[block])
        F[block][over] = shift - lse[over] / b[over, 0]
        w = np.exp(x) * g
        w /= w.sum(axis=-1, keepdims=True)
        U[block] = np.sum(w * E, axis=-1)
        # a line of zero weight adds 0, though its (E - U)^2 may overflow to inf
        dev = np.subtract(E, U[block, None], out=np.zeros_like(w), where=w > 0)
        var = np.sum(w * dev ** 2, axis=-1)
        # libm pow(beta, 2), as Python's beta ** 2: numpy's b ** 2 is b * b, an
        # ulp away on about one beta in 2000, which would change printed C digits.
        # Above MAX_BETA it overflows, and C is inf or NaN: thermo_report refuses
        # such a beta, and quench_work reads only F
        with np.errstate(over="ignore", invalid="ignore"):
            C[block] = np.float_power(b[:, 0], 2) * var
    return log_z, F, U, C


def log_partition_function(spec: Spectrum, beta: float) -> float:
    """log Z(beta) = logsumexp(log g_n - beta E_n), stable at large beta."""
    betas = np.array([beta], dtype=float)
    return float(_boltzmann(spec.energies, spec.degeneracies, betas)[0][0])


@dataclass(frozen=True, eq=False)
class ThermoReport:
    """Each grid is an (n, 2) array of (beta, value) rows."""
    beta_hat: float
    Z_grid: np.ndarray
    F_grid: np.ndarray
    C_grid: np.ndarray
    S_grid: np.ndarray


# Most points a beta grid may have. Z, F, C and S take one blocked pass
# over the grid, about 0.3 us per point on two lines and 16 us on 1024;
# the CLI then formats one row per point, about 10 us each, so a grid at
# the cap takes a second or two and a few MB.
MAX_BETA_GRID = 10 ** 5

# Largest beta whose square, and with it C = beta^2 Var(E), is finite in float64.
MAX_BETA = float(np.sqrt(np.finfo(float).max))


def default_beta_grid(lo: float = 0.1, hi: float = 10.0, num: int = 50) -> np.ndarray:
    """``num`` geometrically spaced betas from ``lo`` to ``hi``; the CLI
    holds ``num``, and a beta list, to at most ``MAX_BETA_GRID``."""
    return np.geomspace(lo, hi, num)


def thermo_report(spec: Spectrum, beta_hat: float, beta_grid=None) -> ThermoReport:
    """Z, F, C, S curves from a spectrum with known degeneracies.

    F = -log Z / beta and S = beta (U - F) come from log Z, so they stay
    finite where Z = exp(log Z) reads inf or 0.0, and F also where log Z
    does. F and S are undefined at beta <= 0, and C = beta^2 Var(E) needs
    beta^2 finite in float64.
    """
    if beta_grid is None:
        beta_grid = default_beta_grid()
    betas = np.atleast_1d(np.asarray(beta_grid, dtype=float))
    if betas.size == 0:
        raise ValueError("beta grid is empty")
    if not np.all(betas > 0):
        raise ValueError("thermo report requires beta > 0 at every grid point")
    if not np.all(betas <= MAX_BETA):
        raise ValueError(f"thermo report requires beta <= {MAX_BETA!r} at every grid point, "
                         "so that beta**2 is finite")
    log_z, F, U, C = _boltzmann(spec.energies, spec.degeneracies, betas)
    with np.errstate(over="ignore", under="ignore"):
        Z = np.exp(log_z)
    return ThermoReport(
        beta_hat=float(beta_hat),
        Z_grid=np.column_stack((betas, Z)),
        F_grid=np.column_stack((betas, F)),
        C_grid=np.column_stack((betas, C)),
        S_grid=np.column_stack((betas, betas * (U - F))),
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

    F0, F1 = (_boltzmann(H.eig().eigenvalues, np.ones(H.dim), np.array([beta]))[1][0]
              for H in (H0_int, H1_int))
    df = F1 - F0
    return QuenchReport(W_avg=float(w_avg), dF=float(df), W_irr=float(w_avg - df))


def ground_state_overlap(H_a: HermitianOperator, H_b: HermitianOperator) -> float:
    """Two-stage probe protocol for |<ground_a | ground_b>|^2.

    Stage one post-selects the lowest line of H_a from a maximally mixed
    input, collapsing the system onto its ground state; stage two reads
    off the population of the lowest line of H_b for that state (ground
    energies are gauged to zero internally, so the "zero outcome" of the
    second circuit is its ground line).  That population is
    tr(P_b |g_a><g_a|) = |<g_a|g_b>|^2, so the read-out is the inner
    product of the two ground eigenvectors.  A ground state whose gap is at
    most the resolution bound, max(``DEGENERACY_MERGE_TOL``, the error bound of
    its eigenvalues: 0 for a diagonal, 4·d·ε·max|λ| from LAPACK), is
    degenerate, as ``spectrum_of`` merges it.
    """
    if H_a.dim != H_b.dim:
        raise ValueError(f"dimension mismatch: {H_a.dim} vs {H_b.dim}")

    def ground_vector(H: HermitianOperator) -> np.ndarray:
        dec = H.eig()
        vals = dec.eigenvalues
        bound = _resolution(dec, DEGENERACY_MERGE_TOL)
        if H.dim > 1 and vals[1] - vals[0] <= bound:
            raise DegenerateGroundStateError(f"ground-state gap {vals[1] - vals[0]:.3g} "
                                             f"is within the resolution bound {bound:.3g}")
        return dec.eigenvectors[:, 0]

    a, b = ground_vector(H_a), ground_vector(H_b)
    return float(abs(np.vdot(a, b)) ** 2)
