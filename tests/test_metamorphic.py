"""Metamorphic relations: transformations of the input that the physics says
must leave given outputs unchanged (Chen, Cheung and Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998; Segura et al., IEEE TSE 42(9), 2016)."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qumode_probe.cli import main
from qumode_probe.models import rabi_interaction
from qumode_probe.operators import HermitianOperator, Spectrum, spectrum_of, thermal_state
from qumode_probe.probe import ProbeConfig, Squeezed, distribution_for
from qumode_probe.reconstruct import reconstruct_record
from qumode_probe.sampling import MeasurementRecord, sample_measurements
from qumode_probe.thermo import DegenerateGroundStateError, ground_state_overlap

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
