"""Benchmark workloads.

Every random choice in a workload's inputs comes from a generator keyed
by (workload, seed), so the same seed always gives the same inputs.
The program under test only ever sees the generated config files.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("eigen-dense", "record-heavy", "many-lines", "oracle-verify")

SQUEEZED_20 = {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "squeezed", "s": 20.0}}

# largest dimension the package accepts (operators.DIMENSION_CAP)
MANY_LINES_DIM = 1024
MIN_LEVEL_GAP = 1e-6  # keeps seeded levels far above the 1e-8 merge tolerance
BIN_EDGE_MARGIN = 0.1  # the bin oracle rings near plateau edges; its gate holds off them
BIN_POINTS = 40  # off-edge points of the bin oracle job
IDEAL_LINES = (1, 3)  # lines (in ascending energy) the ideal surrogate is checked around
IDEAL_POINTS = 15  # trapezoid over +-6e-4 at this density is exact to ~1e-6, far inside the 1e-4 gate


def spin_matrices(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Collective J_x and J_z of n_atoms spin-1/2 atoms, symmetric sector.

    Built here from the ladder-operator formula so the benchmark's
    references do not depend on the package under test.
    """
    j = n_atoms / 2.0
    m = j - np.arange(n_atoms + 1)
    up = 0.5 * np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    return np.diag(up, 1) + np.diag(up, -1), np.diag(m)


def matrix_payload(a: np.ndarray) -> dict:
    """The CLI's explicit-matrix format: {dim, entries: [[re, im], ...]}."""
    return {"dim": int(a.shape[0]),
            "entries": [[float(x), 0.0] for x in np.asarray(a, dtype=float).reshape(-1)]}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(name), seed])


def _sampling_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def _eigen_dense(rng) -> dict:
    jx, jz = spin_matrices(100)
    other = {"matrix": matrix_payload(jx + 0.3 * jz)}
    config = {"system": {"model": "dicke", "n_atoms": 100},
              "state": {"thermal_beta": 1.0},
              "probe": SQUEEZED_20,
              "sampling": {"n": 100_000, "seed": _sampling_seed(rng)},
              "quench": {"system2": other, "beta": 1.0},
              "overlap": {"system_b": other}}
    return {"config": config,
            "steps": ["spectrum", "sample", "reconstruct", "quench", "overlap"]}


def _record_heavy(rng) -> dict:
    config = {"system": {"model": "dicke", "n_atoms": 4},
              "state": {"thermal_beta": 0.5},
              "probe": SQUEEZED_20,
              "sampling": {"n": 2_000_000, "seed": _sampling_seed(rng)}}
    return {"config": config, "steps": ["sample", "reconstruct", "thermo"],
            "thermo_from_record": True}


def _many_lines(rng) -> dict:
    while True:
        energies = np.sort(rng.uniform(0.0, 100.0, MANY_LINES_DIM))
        if np.diff(energies).min() > MIN_LEVEL_GAP:
            break
    config = {"system": {"diagonal": [float(e) for e in energies]},
              "state": {"thermal_beta": 0.02},
              "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "bin", "L": 0.05}},
              "sampling": {"n": 200_000, "seed": _sampling_seed(rng), "detector_bin": 0.01}}
    return {"config": config, "steps": ["spectrum", "sample", "reconstruct", "thermo"],
            "thermo_from_record": False}


def _oracle_verify(rng) -> dict:
    """Quadrature-oracle jobs on the record-heavy system.

    The seed jitters the grids and draws the bin probe's off-edge points.
    Grid sizes and the ideal surrogate's lines are fixed, so every seed
    asks for the same amount of quadrature work.
    """
    config = {"system": {"model": "dicke", "n_atoms": 4},
              "state": {"thermal_beta": 0.5}}
    # line positions p = p0 - g tau E for p0 = 0, g tau = 1
    positions = -np.linalg.eigvalsh(spin_matrices(4)[0])
    jobs = []
    for s, half_width in ((2.0, 4.0), (20.0, 2.5)):
        step = 2 * half_width / 320
        grid = -half_width + step * (np.arange(321) + rng.uniform(-0.5, 0.5))
        jobs.append({"kind": "squeezed", "s": s, "grid": grid.tolist()})
    L = 0.8
    edges = np.concatenate([positions - L / 2, positions + L / 2])
    grid = []
    while len(grid) < BIN_POINTS:
        p = rng.uniform(-3.0, 3.0)
        if np.abs(p - edges).min() > BIN_EDGE_MARGIN:
            grid.append(float(p))
    jobs.append({"kind": "bin", "L": L, "grid": sorted(grid)})
    for line in IDEAL_LINES:
        # the surrogate has std 1/(sqrt(2) 1e4) ~ 7e-5; +-6e-4 holds its mass
        step = 1.2e-3 / (IDEAL_POINTS - 1)
        grid = positions[line] - 6e-4 + step * (np.arange(IDEAL_POINTS) + rng.uniform(-0.5, 0.5))
        jobs.append({"kind": "ideal", "line": line, "grid": grid.tolist()})
    return {"config": config, "steps": ["oracle"], "oracle_jobs": jobs}


_BUILDERS = {"eigen-dense": _eigen_dense, "record-heavy": _record_heavy,
             "many-lines": _many_lines, "oracle-verify": _oracle_verify}


def make_inputs(name: str, seed: int) -> dict:
    """Config, chain of steps and extra job data for one workload run."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    inputs = _BUILDERS[name](_rng(name, seed))
    inputs.update(workload=name, seed=seed)
    return inputs
