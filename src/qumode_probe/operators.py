"""Hermitian operators, density matrices, and spectral-line extraction.

Everything downstream (measurement distributions, reconstruction,
thermodynamics) is driven by the eigendecomposition of an interaction
operator and the populations of its eigenstates in a given system state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

DIMENSION_CAP = 1024
HERMITICITY_TOL = 1e-12
DEGENERACY_MERGE_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Raised when a numerical routine fails to converge within its budget."""


def _as_square(entries) -> np.ndarray:
    """A finite, nonempty square matrix: float64 when every entry is real,
    complex128 otherwise.

    A complex array whose imaginary parts are all exactly zero counts as
    real, so LAPACK runs the real symmetric solver on it.
    """
    a = np.asarray(entries)
    if np.iscomplexobj(a):
        a = a.astype(complex, copy=False)
        if not a.imag.any():
            a = np.ascontiguousarray(a.real)
    else:
        a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must be at least 1×1")
    # NaN fails every comparison and inf passes allclose, so reject both first
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _hermiticity_tol(a: np.ndarray) -> float:
    return HERMITICITY_TOL * max(1.0, np.abs(a).max(initial=0.0))


def _check_hermitian_unit_trace(a: np.ndarray) -> None:
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=_hermiticity_tol(a)):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > 1e-10 or abs(np.trace(a).imag) > 1e-10:
        raise ValueError(f"density matrix trace {np.trace(a)} != 1")


def _symmetrised(a: np.ndarray) -> np.ndarray:
    """(a + a^H)/2, read-only; halving first keeps entries near the float64 max finite."""
    a = 0.5 * a + 0.5 * a.conj().T
    a.setflags(write=False)
    return a


def _is_diagonal(a: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the square ``a`` is exactly zero."""
    return np.count_nonzero(a) == np.count_nonzero(a.diagonal())


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Ascending eigenvalues, the unitary of column eigenvectors, and ``error``, a
    bound on how far each eigenvalue may lie from the exact one: 0 for an exact
    decomposition."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    error: float = 0.0


class HermitianOperator:
    """Hermitian matrix with a cached eigendecomposition.

    ``entries`` is float64 when the given matrix is real, including a
    complex one whose imaginary parts are all exactly zero, and
    complex128 otherwise; ``np.linalg.eigh`` then runs the real symmetric
    solver on real input, and the eigenvectors share that dtype.

    A diagonal matrix, one whose off-diagonal entries are all exactly
    zero (found by one count of the nonzero entries), is decomposed at
    construction with no eigensolve. Its Hermiticity check reads only
    the diagonal, which must be real within the Hermiticity tolerance.
    Its eigenvalues are the diagonal in the order of a stable
    ``argsort``, exact, and its eigenvectors the matching permutation
    matrix, in ``entries``' dtype. Any other matrix is decomposed by
    LAPACK on the first call to :meth:`eig`, and its eigenvalues carry
    the error bound of :func:`_lapack_error`.

    The cache is populated at most once; share instances across threads
    only after calling :meth:`eig` (single-writer initialization).
    """

    entries: np.ndarray
    _eig: EigenDecomposition | None

    def __init__(self, entries):
        a = _as_square(entries)
        if a.shape[0] > DIMENSION_CAP:
            raise ValueError(f"dimension {a.shape[0]} exceeds cap {DIMENSION_CAP}")
        self._eig = None
        if _is_diagonal(a):
            diagonal = a.diagonal()
            # the dense check below reads |z - conj(z)| = 2|Im z| on a diagonal entry
            if not (2 * np.abs(diagonal.imag) <= _hermiticity_tol(diagonal)).all():
                raise ValueError("matrix is not Hermitian")
            diagonal = diagonal.real
            order = np.argsort(diagonal, kind="stable")
            d = len(diagonal)
            permutation = np.zeros((d, d), dtype=a.dtype)
            permutation[order, np.arange(d)] = 1
            self._eig = EigenDecomposition(diagonal[order], permutation)
            a = np.diag(diagonal.astype(a.dtype, copy=False))
            a.setflags(write=False)
        else:
            if not np.allclose(a, a.conj().T, rtol=0.0, atol=_hermiticity_tol(a)):
                raise ValueError("matrix is not Hermitian")
            a = _symmetrised(a)
        self.entries = a

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eig(self) -> EigenDecomposition:
        if self._eig is None:
            try:
                vals, vecs = np.linalg.eigh(self.entries)
            except np.linalg.LinAlgError as exc:
                # LinAlgError is a ValueError; report it as a numerical failure
                raise ConvergenceError(f"LAPACK eigensolver failed: {exc}") from exc
            self._eig = EigenDecomposition(vals, vecs, _lapack_error(vals))
        return self._eig


class SystemState:
    """Density matrix of the probed system.

    ``SystemState(rho)`` takes a user-supplied rho and checks it at once:
    finite, square, Hermitian, unit trace and positive semidefinite. A
    Gibbs state from :func:`thermal_state` keeps H and its eigenstate
    populations instead, and builds rho = V diag(p) V^H only on the
    first read of :attr:`rho`; ``spectrum_of(state, H)`` reads the
    populations and never builds it. rho is float64 when real and
    complex128 otherwise, by the rule of :class:`HermitianOperator`.
    """

    _rho: np.ndarray | None
    # (H, p) for a Gibbs state, whose rho = V diag(p) V^H over H's eigenbasis V
    _eigen_populations: tuple[HermitianOperator, np.ndarray] | None

    def __init__(self, rho):
        a = _as_square(rho)
        _check_hermitian_unit_trace(a)
        if np.linalg.eigvalsh(a).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        self._store(a)
        self._eigen_populations = None

    @classmethod
    def _in_eigenbasis(cls, H: HermitianOperator, populations: np.ndarray) -> "SystemState":
        """The state with ``populations`` on H's eigenvectors; rho is built on first read.

        The populations are checked here, in O(d), because rho may never
        be built: finite, nonnegative and summing to 1 within 1e-10.
        """
        if not np.isfinite(populations).all() or (populations < 0).any():
            raise ValueError("populations must be finite and nonnegative")
        if abs(populations.sum() - 1.0) > 1e-10:
            raise ValueError(f"populations sum to {populations.sum()}, not 1")
        state = cls.__new__(cls)
        state._rho = None
        state._eigen_populations = (H, populations)
        return state

    def _store(self, a: np.ndarray) -> None:
        self._rho = _symmetrised(a)

    @property
    def rho(self) -> np.ndarray:
        """The density matrix, read-only; a Gibbs state builds and caches it here."""
        if self._rho is None:
            H, populations = self._eigen_populations
            v = H.eig().eigenvectors
            a = (v * populations) @ v.conj().T
            _check_hermitian_unit_trace(a)
            self._store(a)
        return self._rho

    @property
    def dim(self) -> int:
        if self._rho is None:
            return self._eigen_populations[0].dim
        return self._rho.shape[0]


class SpectralLine(NamedTuple):
    """A read-only view of one line of a :class:`Spectrum`."""

    E: float
    P: float
    g: int = 1
    count: int | None = None
    # a reconstruction's names for E and P
    E_hat = property(lambda line: line.E)
    P_hat = property(lambda line: line.P)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Spectral lines (E_n, P_n, g_n), exact or reconstructed from a record.

    The fields are read-only copies of the given arrays, checked once:
    non-empty 1-D arrays of one length; energies finite and strictly
    increasing; populations finite and nonnegative; degeneracies integers
    >= 1 (ones when not given); ``counts``, the samples behind each line of
    a reconstruction, integers >= 0 when given; and ``residual_mass``, the
    mass a reconstruction left in no line, in [0, 1), with the populations
    and the residual summing to 1 within 1e-9.
    """

    energies: np.ndarray
    populations: np.ndarray
    degeneracies: np.ndarray | None = None
    counts: np.ndarray | None = None
    residual_mass: float = 0.0

    def __post_init__(self):
        E = np.array(self.energies, dtype=float)
        P = np.array(self.populations, dtype=float)
        g = np.ones(E.shape, int) if self.degeneracies is None else np.array(self.degeneracies)
        counts = None if self.counts is None else np.array(self.counts)
        if (E.ndim != 1 or not E.size or P.shape != E.shape or g.shape != E.shape
                or counts is not None and counts.shape != E.shape):
            raise ValueError("spectrum lines must be non-empty 1-D arrays of one length")
        if not (np.isfinite(E).all() and (E[1:] > E[:-1]).all()):
            raise ValueError("line energies must be finite and strictly increasing")
        if not (np.isfinite(P).all() and (P >= 0).all()):
            raise ValueError("line populations must be finite and nonnegative")
        if g.dtype.kind not in "iu" or not (g >= 1).all():
            raise ValueError("degeneracy must be a positive integer")
        if counts is not None and (counts.dtype.kind not in "iu" or not (counts >= 0).all()):
            raise ValueError("line counts must be nonnegative integers")
        residual = float(self.residual_mass)
        if not 0.0 <= residual < 1.0:
            raise ValueError(f"residual mass {residual!r} is not in [0, 1)")
        total = P.sum() + residual
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"line populations plus residual mass sum to {total}, not 1")
        for name, a in zip(("energies", "populations", "degeneracies", "counts"), (E, P, g, counts)):
            if a is not None:
                a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "residual_mass", residual)

    @classmethod
    def from_lines(cls, triples) -> "Spectrum":
        """The spectrum of (E, P, g) triples."""
        E, P, g = tuple(zip(*triples)) or ((), (), ())
        return cls(E, P, g)

    @cached_property
    def lines(self) -> tuple[SpectralLine, ...]:
        """One :class:`SpectralLine` per line, built on first read."""
        counts = [None] * len(self.energies) if self.counts is None else self.counts.tolist()
        return tuple(map(SpectralLine, self.energies.tolist(), self.populations.tolist(),
                         self.degeneracies.tolist(), counts))

    def moment(self, m: int) -> float:
        return float(np.sum(self.populations * self.energies ** m))


def spin_x(two_j: int) -> HermitianOperator:
    """Spin-x operator for total spin j = two_j / 2 (dimension two_j + 1), in
    the physics normalization J_x built from ladder operators."""
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    j = two_j / 2.0
    dim = two_j + 1
    if dim > DIMENSION_CAP:  # before the dense matrix is allocated
        raise ValueError(f"dimension {dim} exceeds cap {DIMENSION_CAP}")
    m = j - np.arange(dim)  # m = j, j-1, ..., -j
    # <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1))
    upper = 0.5 * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jx = np.zeros((dim, dim), dtype=complex)
    jx[np.arange(dim - 1), np.arange(1, dim)] = upper
    jx[np.arange(1, dim), np.arange(dim - 1)] = upper
    return HermitianOperator(jx)


def sigma_x() -> HermitianOperator:
    return HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


def sigma_z() -> HermitianOperator:
    return HermitianOperator(np.diag([1.0, -1.0]).astype(complex))


def site_sum(single: HermitianOperator, n_sites: int) -> HermitianOperator:
    """Sum of ``single`` acting on each of ``n_sites`` tensor factors."""
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    d = single.dim
    # n_sites is bounded first, so the power below stays a small integer
    if n_sites > DIMENSION_CAP or d ** n_sites > DIMENSION_CAP:
        raise ValueError(f"total dimension {d}**{n_sites} exceeds cap {DIMENSION_CAP}")
    total = np.zeros((d ** n_sites, d ** n_sites), dtype=complex)
    for i in range(n_sites):
        term = np.eye(d ** i, dtype=complex)
        term = np.kron(term, single.entries)
        term = np.kron(term, np.eye(d ** (n_sites - i - 1), dtype=complex))
        total += term
    return HermitianOperator(total)


def thermal_state(H: HermitianOperator, beta: float) -> SystemState:
    """Gibbs state exp(-beta H)/Z; spectrum shifted by E_min to avoid underflow."""
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")
    vals = H.eig().eigenvalues
    with np.errstate(over="ignore"):  # beta (E - E_min) -> inf weighs exp(-inf) = 0
        weights = np.exp(-beta * (vals - vals.min()))
    weights /= weights.sum()
    return SystemState._in_eigenbasis(H, weights)


def _lapack_error(values: np.ndarray) -> float:
    """4·d·ε·max|λ|, the error bound taken for the ascending eigenvalues ``values``
    that LAPACK computed for a d×d operator.

    LAPACK's eigenvalues carry errors of order p(d)·ε·‖H‖₂ (LAPACK Users'
    Guide, 3rd ed., §4.7).  Seeded rotations of diag(0, 0, 1, 2) and
    diag(−2, 0, 0, 2), shifted or scaled by 10^7 … 10^12, split their exactly
    equal pair by up to 6.44·ε·max|λ|, which 4·d = 16 covers 2.5 times over.
    """
    largest = max(-values[0], values[-1])
    return 4 * len(values) * np.finfo(float).eps * float(largest)


def _resolution(dec: EigenDecomposition, merge_tol: float) -> float:
    """The widest gap between the eigenvalues of ``dec`` that still counts as
    equality: max(merge_tol, the decomposition's error bound)."""
    return max(merge_tol, dec.error)


def spectrum_of(state: SystemState, H: HermitianOperator,
                merge_tol: float = DEGENERACY_MERGE_TOL) -> Spectrum:
    """Spectral lines of H with populations taken from ``state``.

    Eigenvalues within the resolution bound, max(``merge_tol``, the error bound
    of H's eigenvalues), of the first eigenvalue of their group are reported as
    one degenerate line at their mean, carrying the summed population, so no
    line spans more than the bound.  A diagonal H's eigenvalues are exact, so
    its levels merge only within ``merge_tol``; LAPACK's carry 4·d·ε·max|λ|.  The lines fill the arrays of a :class:`Spectrum`,
    g counting the eigenvalues of each.
    """
    if state.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {state.dim} vs operator {H.dim}")
    dec = H.eig()
    known = state._eigen_populations
    if known is not None and known[0] is H:
        # exact where rho only holds them to absolute precision
        populations = known[1]
    else:
        v = dec.eigenvectors
        # diag(V^H rho V) with a single matrix product
        populations = np.real(np.sum(v.conj() * (state.rho @ v), axis=0))
        populations = np.clip(populations, 0.0, None)
        populations /= populations.sum()

    tol = _resolution(dec, merge_tol)
    values = dec.eigenvalues.tolist()
    starts = [0]  # the first eigenvalue of each line
    for j in range(1, len(values)):
        if values[j] - values[starts[-1]] > tol:
            starts.append(j)
    g = np.diff(starts, append=len(values))
    E, P = dec.eigenvalues[starts], populations[starts]
    for k in np.flatnonzero(g > 1).tolist():  # the mean and sum of a degenerate line
        block = slice(starts[k], starts[k] + g[k])
        values, P[k] = dec.eigenvalues[block], populations[block].sum()
        with np.errstate(over="ignore"):
            E[k] = values.mean()
        if not np.isfinite(E[k]):
            # the sum overflowed near the float64 maximum; the offsets
            # from the first value are at most tol, so their sum cannot
            E[k] = values[0] + (values - values[0]).mean()
    return Spectrum(E, P, g)


def evenly_spaced_spectrum(n_lines: int, spacing: float = 1.0,
                           seed: int | None = None) -> Spectrum:
    """Equally spaced lines from 0 with seeded-random populations."""
    populations = np.random.default_rng(seed).random(n_lines)
    return Spectrum(np.arange(n_lines) * spacing, populations / populations.sum())
