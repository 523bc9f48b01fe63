"""Metamorphic relations: transformations of the input that the physics says
must leave given outputs unchanged (Chen, Cheung and Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998; Segura et al., IEEE TSE 42(9), 2016)."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qumode_probe.cli import main
from qumode_probe.models import dicke_interaction, rabi_interaction
from qumode_probe.operators import (
    HermitianOperator,
    Spectrum,
    _lapack_error,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import ProbeConfig, Squeezed, distribution_for
from qumode_probe.reconstruct import reconstruct_record
from qumode_probe.sampling import MeasurementRecord, sample_measurements
from qumode_probe.thermo import (
    DegenerateGroundStateError,
    _boltzmann,
    default_beta_grid,
    estimate_beta,
    ground_state_overlap,
    recover_degeneracies,
    thermo_report,
)

# twelve levels, the fourth and the ninth equal: one degenerate pair
LEVELS = [0.0, 0.37, 0.81, 1.24, 1.66, 2.03, 2.49, 2.87, 1.24, 3.35, 3.72, 4.18]


def bodies(tmp_path, diagonal):
    """Exit code and output of ``spectrum``, detector-binned ``sample``,
    ``reconstruct``, exact ``thermo`` and ``thermo --record`` on ``diagonal``,
    each output without its ``# config=`` header."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "system": {"diagonal": diagonal},
        "state": {"thermal_beta": 0.7},
        "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "bin", "L": 0.05}},
        "sampling": {"n": 20000, "seed": 11, "detector_bin": 0.01},
    }))
    record = str(tmp_path / "record.txt")
    calls = [("spectrum", "spectrum.out", []), ("sample", "record.txt", []),
             ("reconstruct", "reconstruct.out", ["--record", record]),
             ("thermo", "thermo.out", []), ("thermo", "thermo-record.out", ["--record", record])]
    results = []
    for command, name, extra in calls:
        out = tmp_path / name
        code = main([command, "--config", str(config), "--out", str(out), *extra])
        text = out.read_text() if out.exists() else ""
        results.append((code, [line for line in text.splitlines(keepends=True)
                               if not line.startswith("# config=")]))
    return results


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(len(LEVELS))))
@example(order=list(range(len(LEVELS)))[::-1])
def test_permuting_a_diagonal_changes_only_the_config_header(tmp_path_factory, order):
    reference = bodies(tmp_path_factory.mktemp("sorted"), sorted(LEVELS))
    assert all(code == 0 for code, _ in reference)
    permuted = bodies(tmp_path_factory.mktemp("permuted"), [LEVELS[i] for i in order])
    assert permuted == reference


# six lines of the squeezed s = 20 probe; near -1e9 a bin's two edges lie a
# whole number of float64 ulps (1.2e-7) apart, 7 % and 0.1 % off the widths
# 1e-6 and 1e-5
SIX_LINES = dict(energies=[-1.7, -0.9, -0.2, 0.4, 1.1, 1.8],
                 weights=[0.3, 0.1, 0.2, 0.15, 0.05, 0.2],
                 s=20.0, seed=3)


@settings(max_examples=25, deadline=None)
@given(energies=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=6, unique=True),
       weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
       s=st.sampled_from([2.0, 20.0, 200.0]),
       seed=st.integers(0, 2 ** 32 - 1),
       bin_width=st.sampled_from([1e-6, 1e-5, 1e-4]))
@example(**SIX_LINES, bin_width=1e-6)
@example(**SIX_LINES, bin_width=1e-5)
def test_far_outlier_leaves_every_other_line_unchanged(energies, weights, s, seed, bin_width):
    """Reconstruct a squeezed record with and without one more sample at -1e9.
    ``min_mass`` 1.5/(n + 1) keeps exactly the clusters of two or more samples
    at both n and n + 1, and drops the lone outlier; so the lines of the record
    keep their energies and counts bit for bit."""
    n = 5000
    populations = np.array(weights[:len(energies)])
    spec = Spectrum(np.sort(energies), populations / populations.sum())
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(s))
    record = sample_measurements(distribution_for(spec, probe), n, seed)
    far = MeasurementRecord(np.append(record.samples, -1e9), record.seed)
    min_mass = 1.5 / (n + 1)
    lines = reconstruct_record(record, probe, bin_width=bin_width, min_mass=min_mass)
    with_far = reconstruct_record(far, probe, bin_width=bin_width, min_mass=min_mass)
    assert with_far.energies.tobytes() == lines.energies.tobytes()
    assert np.array_equal(with_far.counts, lines.counts)


def shifted_or_scaled(matrix, seed, exponent, scaled):
    """Q·matrix·Qᵀ for a seeded orthogonal Q, then scaled by c = 10**exponent
    or shifted by c·I."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(matrix.shape))
    rotated = q @ matrix @ q.T
    c = 10.0 ** exponent
    return c * rotated if scaled else rotated + c * np.eye(len(matrix))


# shifts and scales of 1e8 … 1e12, where LAPACK splits an exactly equal pair
# by more than the default merge_tol of 1e-8
RESOLUTION = dict(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(8, 12),
                  scaled=st.booleans())


@settings(max_examples=30, deadline=None)
@given(**RESOLUTION)
def test_shift_and_scale_keep_the_degeneracies(seed, exponent, scaled):
    """Rabi on two sites, E = -2, 0, 0, 2, keeps g = 1, 2, 1 under a rotation
    and a shift or scale by c."""
    h = shifted_or_scaled(rabi_interaction(2).entries, seed, exponent, scaled)
    H = HermitianOperator(h)
    assert spectrum_of(thermal_state(H, 0.0), H).degeneracies.tolist() == [1, 2, 1]


@settings(max_examples=30, deadline=None)
@given(**RESOLUTION)
def test_shift_and_scale_keep_a_degenerate_ground_state_degenerate(seed, exponent, scaled):
    """Q·diag(0, 0, 1, 2)·Qᵀ, shifted or scaled by c, has a degenerate ground
    state however LAPACK splits it, so the overlap protocol refuses it."""
    H_a = HermitianOperator(shifted_or_scaled(np.diag([0.0, 0.0, 1.0, 2.0]), seed,
                                              exponent, scaled))
    H_b = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateGroundStateError, match="within the resolution bound"):
        ground_state_overlap(H_a, H_b)


def exact_thermo(h, beta):
    """Exact ``thermo`` on the matrix ``h`` at ``thermal_beta`` beta, as the CLI
    runs it with its defaults: lines, beta-hat from lines 0 and 1, degeneracies
    recovered from anchor 0 with g = 1, and Z, F, C, S on the default grid;
    with U = <E> and each spectrum's LAPACK error bound."""
    H = HermitianOperator(h)
    spec = spectrum_of(thermal_state(H, beta), H)
    beta_hat = estimate_beta(spec.lines[0], spec.lines[1])
    spec = recover_degeneracies(replace(spec, degeneracies=np.ones(len(spec.energies), int)),
                                beta_hat)
    report = thermo_report(spec, beta_hat)
    U = _boltzmann(spec.energies, spec.degeneracies, default_beta_grid())[2]
    return dict(E=spec.energies, P=spec.populations, g=spec.degeneracies, beta_hat=beta_hat,
                F=report.F_grid[:, 1], U=U, C=report.C_grid[:, 1], S=report.S_grid[:, 1],
                error=_lapack_error(H.eig().eigenvalues))


def assert_shift_moves_only_energies(h, c, beta=1.0):
    """Exact ``thermo`` on H and on H + cI: E, F and U move by c; g, P, beta-hat,
    C and S stay, each within a tolerance derived below.

    Levels.  Each LAPACK eigenvalue lies within ``_lapack_error`` (delta_0 and
    delta_c) of the exact one, and the exact spectrum of H + cI is that of H
    plus c.  Forming H + cI rounds each diagonal entry by at most
    u|h_ii + c| <= u*||H + cI||, u = eps/2, which moves no eigenvalue further
    (Weyl), and u*||H + cI|| <= eps*max|E_c|.  So each level of H + cI is
    within Delta = delta_0 + delta_c + eps*max|E_c| of the level of H plus c,
    and a gap E_k - E_j moves by at most 2*Delta, plus eps times the spread W
    of the levels for the two subtractions.

    Rounding.  One Boltzmann-weighted sum, mean or log-sum over d lines of
    values up to M in magnitude rounds by at most R(M) = (d + 4)*eps*M: d - 1
    additions at u, an exp or log within 4 ulp (numpy's SIMD loops) and a
    few products and divisions at u.  Both sides round, so each quantity
    below takes 2R of its own magnitude.

    Sensitivities, to first order in Delta (Delta**2 < 1e-14 here), for
    Boltzmann weights p_j at beta, U = sum p_j E_j, sigma**2 = Var(E) and
    C = beta**2 sigma**2, when every level moves by c plus at most Delta:
    - E: Delta, and the rounding of E + c, at most u|E + c|.
    - F = -log Z/beta: dF/dE_j = p_j, so Delta; its shift and log-sum
      round on values up to max|E| + W + (1 + log d)/beta.
    - U: dU/dE_j = p_j(1 - beta(E_j - U)), so Delta(1 + beta E|E - U|)
      <= Delta(1 + sqrt(C)) by Cauchy-Schwarz.
    - S = beta(U - F): dS/dE_j = -beta**2 p_j (E_j - U), so beta*Delta*sqrt(C);
      U - F cancels c, so the rounding of both, times beta, adds in full.
    - C: dVar/dE_j = p_j(2(E_j - U) - beta((E_j - U)**2 - Var)), so
      |dC| <= 2*beta*Delta*(sqrt(C) + C).  Rounding each E_j - U by r, U's
      rounding and the subtraction's, r = 2R(max|E|), moves Var by at most
      2*r*sigma + r**2.
    - P_k = exp(-beta*gap_k)/sum: log P_k moves by at most 2*beta times the
      largest gap change, plus the rounding of its exp and its sum.
    - beta-hat = log(P_0/P_1)/(E_1 - E_0): the relative changes of its
      numerator and denominator, plus the rounding of the log and the
      quotient.
    - g: the same integers, since no gap nears the resolution bound.
    """
    eps, u = np.finfo(float).eps, np.finfo(float).eps / 2
    a = exact_thermo(h, beta)
    b = exact_thermo(h + c * np.eye(len(h)), beta)
    d = len(h)

    def R(M):
        return (d + 4) * eps * M

    top = np.abs(b["E"]).max()
    delta = a["error"] + b["error"] + eps * top
    W = a["E"][-1] - a["E"][0]
    gap = 2 * delta + eps * W
    betas = default_beta_grid()
    C, sigma = a["C"], np.sqrt(a["C"]) / betas
    F_size = top + W + (1 + np.log(d)) / betas

    assert np.array_equal(b["g"], a["g"])
    assert np.all(np.abs(b["E"] - (a["E"] + c)) <= delta + u * np.abs(a["E"] + c))
    assert np.all(np.abs(b["F"] - (a["F"] + c)) <= delta + 2 * R(F_size) + u * np.abs(b["F"]))
    assert np.all(np.abs(b["U"] - (a["U"] + c)) <= delta * (1 + np.sqrt(C)) + 2 * R(top)
                  + u * np.abs(b["U"]))
    assert np.all(np.abs(b["S"] - a["S"]) <= betas * delta * np.sqrt(C)
                  + 2 * betas * (R(top) + R(F_size)) + 2 * R(np.abs(a["S"])))
    r = 2 * R(top)
    assert np.all(np.abs(b["C"] - a["C"]) <= 2 * betas * delta * (np.sqrt(C) + C)
                  + 2 * betas ** 2 * (2 * r * sigma + r ** 2) + 2 * R(C))
    log_P = 2 * beta * gap + 2 * R(1.0)
    assert np.all(np.abs(np.log(b["P"]) - np.log(a["P"])) <= log_P)
    ratio = np.log(a["P"][0] / a["P"][1])
    G = a["E"][1] - a["E"][0]
    beta_hat = (2 * log_P + 2 * eps) / abs(ratio) + (gap + eps * G) / G + 2 * eps
    assert abs(b["beta_hat"] - a["beta_hat"]) <= beta_hat * abs(a["beta_hat"])


@pytest.mark.parametrize("c", [1e3, -1e3, 1e6])
def test_spectral_shift_of_dicke_100(c):
    """Dicke J_x of 100 atoms, levels -50 ... 50, at thermal beta 1."""
    assert_shift_moves_only_energies(dicke_interaction(100).entries, c)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-3, 6), sign=st.sampled_from([-1, 1]),
       beta=st.sampled_from([0.3, 1.0, 3.0]))
def test_spectral_shift_of_rotated_systems(seed, exponent, sign, beta):
    """Q·diag(levels)·Qᵀ for seeded levels 0.2 to 1 apart and a seeded
    orthogonal Q, made exactly symmetric, shifted by c = ±10**exponent."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 11))
    levels = np.cumsum(rng.uniform(0.2, 1.0, d)) - d / 2
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    h = q @ np.diag(levels) @ q.T
    assert_shift_moves_only_energies((h + h.T) / 2, sign * 10.0 ** exponent, beta)
