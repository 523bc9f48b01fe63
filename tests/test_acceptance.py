"""End-to-end acceptance checks for the qumode probe package.

Each test verifies one headline capability at its stated tolerance and
prints a single PASS/FAIL line so the suite doubles as a report:

 1. closed-form momentum distributions match a numeric-quadrature oracle
 2. every closed-form distribution carries unit mass
 3. resolvability sweep: merged / partially resolved / fully resolved
 4. spectral moments reproduce density-matrix traces
 5. thermometry round trip through sampling and reconstruction
 6. partition-function recovery (exact and sampled pipelines)
 7. heat capacity vs finite differences and the two-level closed form
 8. sudden-quench work statistics and the second law
 9. two-circuit ground-state overlap protocol
10. byte-level determinism of seeded pipelines

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from qumode_probe.cli import main as cli_main
from qumode_probe.operators import (
    HermitianOperator,
    Spectrum,
    SystemState,
    evenly_spaced_spectrum,
    sigma_x,
    sigma_z,
    spectrum_of,
    thermal_state,
)
from qumode_probe.oracle import distribution_numeric_oracle
from qumode_probe.probe import Bin, ProbeConfig, Squeezed, distribution_for
from qumode_probe.reconstruct import reconstruct_record, resolution_params
from qumode_probe.sampling import MeasurementRecord, sample_measurements
from qumode_probe.serialize import record_to_text
from qumode_probe.thermo import (
    estimate_beta,
    ground_state_overlap,
    log_partition_function,
    quench_work,
    recover_degeneracies,
    thermo_report,
)
from test_thermo import heat_capacity_finite_difference


def report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed{tail}"


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((a + a.conj().T) / 2)


def random_thermal(dim, rng):
    h = random_hermitian(dim, rng)
    return h, thermal_state(h, rng.uniform(0.2, 1.5))


def test_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst_sq = worst_bin = 0.0
    for trial in range(20):
        dim = int(rng.integers(2, 5))
        h, state = random_thermal(dim, rng)
        spec = spectrum_of(state, h)
        span = spec.energies.max() - spec.energies.min() + 4.0
        center = -spec.moment(1)

        probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(rng.uniform(0.5, 3.0)))
        grid = np.linspace(center - span, center + span, 161)
        oracle = distribution_numeric_oracle(state, h, probe, grid)
        closed = distribution_for(spec, probe).density(grid)
        worst_sq = max(worst_sq, float(np.max(np.abs(oracle - closed))))

        probe_b = ProbeConfig(0.0, 1.0, 1.0, Bin(rng.uniform(0.5, 1.5)))
        grid_b = np.linspace(center - span, center + span, 161)
        oracle_b = distribution_numeric_oracle(state, h, probe_b, grid_b)
        dist_b = distribution_for(spec, probe_b)
        closed_b = dist_b.density(grid_b)
        L = probe_b.mode.L
        edges = np.concatenate([dist_b.points - L / 2, dist_b.points + L / 2])
        off_edge = np.min(np.abs(grid_b[:, None] - edges[None, :]), axis=1) > 0.1
        if off_edge.any():
            worst_bin = max(worst_bin,
                            float(np.max(np.abs(oracle_b - closed_b)[off_edge])))
    elapsed = time.monotonic() - start
    report("01 oracle equivalence",
           worst_sq < 1e-6 and worst_bin < 1e-4 and elapsed < 60.0,
           f"squeezed sup {worst_sq:.2e}, binned off-edge {worst_bin:.2e}, "
           f"{elapsed:.1f}s")


def test_02_normalization():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(100):
        n_lines = int(rng.integers(1, 7))
        energies = np.sort(rng.uniform(-3.0, 3.0, n_lines))
        energies += np.arange(n_lines) * 1e-3  # enforce distinctness
        pops = rng.dirichlet(np.ones(n_lines))
        spec = Spectrum.from_lines(zip(energies, pops, np.ones(n_lines, dtype=int)))
        modes = [Squeezed(rng.uniform(0.3, 10.0)), Bin(rng.uniform(0.1, 2.0))]
        for mode in modes:
            probe = ProbeConfig(rng.normal(), 1.0, rng.uniform(0.5, 5.0), mode)
            total = distribution_for(spec, probe).weights.sum()
            worst = max(worst, abs(total - 1.0))
    report("02 normalization", worst < 1e-9, f"worst |mass-1| {worst:.2e}")


def test_03_resolvability_sweep():
    spacing = 1.0
    spec = evenly_spaced_spectrum(5, spacing=spacing, seed=1)
    counts = {}
    for ratio in (0.5, 2.0, 10.0):
        s = ratio / (np.sqrt(2.0) * spacing)  # sigma_E = spacing / ratio
        probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(s))
        assert resolution_params(probe).resolvability(spacing) == pytest.approx(ratio)
        dist = distribution_for(spec, probe)
        rec = sample_measurements(dist, 200_000, seed=7)
        counts[ratio] = len(reconstruct_record(rec, probe).lines)
    ok = (counts[0.5] < 5
          and counts[0.5] <= counts[2.0] <= 5
          and counts[10.0] == 5)
    report("03 resolvability sweep", ok,
           f"peaks at ratio 0.5/2/10 = {counts[0.5]}/{counts[2.0]}/{counts[10.0]}")


def test_04_moment_fidelity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for dim in (2, 3, 5, 8, 16):
        h, state = random_thermal(dim, rng)
        spec = spectrum_of(state, h)
        for m in (1, 2, 3):
            direct = float(np.trace(state.rho @ np.linalg.matrix_power(
                h.entries, m)).real)
            worst = max(worst, abs(spec.moment(m) - direct))
    report("04 moment fidelity", worst < 1e-9, f"worst |diff| {worst:.2e}")


def test_05_thermometry_round_trip():
    start = time.monotonic()
    beta_true = 0.7
    h = HermitianOperator(np.diag([0.0, 1.0]))
    spec = spectrum_of(thermal_state(h, beta_true), h)
    sigma_E = 1.0 / 20.0  # gap / 20
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(1.0 / (np.sqrt(2.0) * sigma_E)))
    dist = distribution_for(spec, probe)
    hits = 0
    for seed in range(20):
        rec = sample_measurements(dist, 1_000_000, seed=seed)
        recon = reconstruct_record(rec, probe)
        if len(recon.lines) != 2:
            continue
        lines = Spectrum.from_lines(
            (l.E_hat, p, 1) for l, p in
            zip(recon.lines, recon.populations / recon.populations.sum())).lines
        beta_hat = estimate_beta(lines[0], lines[1])
        hits += abs(beta_hat - beta_true) <= 0.02 * beta_true
    elapsed = time.monotonic() - start
    report("05 thermometry round trip", hits >= 19 and elapsed < 30.0,
           f"{hits}/20 within 2%, {elapsed:.1f}s")


def test_06_partition_function_reconstruction():
    rng = np.random.default_rng(606)
    grid = np.geomspace(0.1, 10.0, 12)
    worst_exact = 0.0
    for trial in range(10):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(dim, rng)
        beta_true = rng.uniform(0.4, 1.2)
        spec = spectrum_of(thermal_state(h, beta_true), h)
        beta_hat = estimate_beta(spec.lines[0], spec.lines[1])
        with_g = recover_degeneracies(spec, beta_hat)
        evals = np.linalg.eigvalsh(h.entries)
        for b in grid:
            lz = log_partition_function(with_g, b)
            lz_ref = float(np.log(np.sum(np.exp(-b * (evals - evals.min()))))
                           - b * evals.min())
            # relative error on Z itself, i.e. |exp(dlogZ) - 1|
            worst_exact = max(worst_exact, abs(np.expm1(lz - lz_ref)))

    # sampled pipeline on a well-separated three-level system
    h = HermitianOperator(np.diag([0.0, 1.0, 2.2]))
    beta_true = 0.9
    spec = spectrum_of(thermal_state(h, beta_true), h)
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(30.0))
    rec = sample_measurements(distribution_for(spec, probe), 1_000_000, seed=5)
    recon = reconstruct_record(rec, probe)
    pops = recon.populations / recon.populations.sum()
    est = Spectrum.from_lines((e, p, 1) for e, p in zip(recon.energies, pops))
    beta_hat = estimate_beta(est.lines[0], est.lines[1])
    with_g = recover_degeneracies(est, beta_hat)
    evals = np.linalg.eigvalsh(h.entries)
    worst_sampled = 0.0
    for b in grid:
        lz = log_partition_function(with_g, b)
        lz_ref = float(np.log(np.sum(np.exp(-b * (evals - evals.min()))))
                       - b * evals.min())
        worst_sampled = max(worst_sampled, abs(np.expm1(lz - lz_ref)))
    report("06 partition function reconstruction",
           worst_exact < 1e-3 and worst_sampled < 0.03,
           f"exact rel {worst_exact:.2e}, sampled rel {worst_sampled:.2e}")


def test_07_heat_capacity():
    rng = np.random.default_rng(707)
    worst_fd = 0.0
    for trial in range(10):
        dim = int(rng.integers(2, 7))
        h = random_hermitian(dim, rng)
        spec = spectrum_of(thermal_state(h, 1.0), h)
        for b, c in thermo_report(spec, 1.0, np.geomspace(0.1, 10.0, 7)).C_grid:
            fd = heat_capacity_finite_difference(spec, b)
            # 1e-9 absolute floor covers the frozen-out regime where C
            # underflows past what double-precision differencing resolves
            worst_fd = max(worst_fd, abs(c - fd) / (1e-6 * abs(c) + 1e-9))
    # two-level closed form: C = (beta*gap/2)^2 sech^2(beta*gap/2)
    gap = 1.3
    spec2 = spectrum_of(thermal_state(HermitianOperator(np.diag([0.0, gap])), 1.0),
                        HermitianOperator(np.diag([0.0, gap])))
    worst_closed = 0.0
    for b, c in thermo_report(spec2, 1.0, np.geomspace(0.1, 10.0, 7)).C_grid:
        x = b * gap / 2.0
        closed = x ** 2 / np.cosh(x) ** 2
        worst_closed = max(worst_closed, abs(c - closed))
    report("07 heat capacity", worst_fd < 1.0 and worst_closed < 1e-10,
           f"fd worst err/tol {worst_fd:.2f} (tol 1e-6 rel + 1e-9 abs), "
           f"closed-form abs {worst_closed:.2e}")


def test_08_quench_work():
    rep = quench_work(sigma_z(), sigma_x(), beta=1.0)
    t = np.tanh(1.0)
    exact_ok = (abs(rep.W_avg - t) < 1e-10 and abs(rep.dF) < 1e-10
                and abs(rep.W_irr - t) < 1e-10)
    rng = np.random.default_rng(808)
    min_wirr = np.inf
    for trial in range(1000):
        dim = int(rng.integers(2, 5))
        h0 = random_hermitian(dim, rng)
        h1 = random_hermitian(dim, rng)
        beta = rng.uniform(0.1, 5.0)
        min_wirr = min(min_wirr, quench_work(h0, h1, beta).W_irr)
    report("08 quench work", exact_ok and min_wirr >= -1e-10,
           f"W_avg {rep.W_avg!r}, min W_irr {min_wirr:.2e}")


def test_09_overlap_protocol():
    rng = np.random.default_rng(909)
    worst = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        h_a = random_hermitian(dim, rng)
        h_b = random_hermitian(dim, rng)
        sim = ground_state_overlap(h_a, h_b)
        va = np.linalg.eigh(h_a.entries).eigenvectors[:, 0]
        vb = np.linalg.eigh(h_b.entries).eigenvectors[:, 0]
        worst = max(worst, abs(sim - abs(np.vdot(va, vb)) ** 2))
    half = ground_state_overlap(sigma_z(), sigma_x())
    report("09 overlap protocol", worst < 1e-10 and abs(half - 0.5) < 1e-10,
           f"worst |diff| {worst:.2e}, sigma_z/sigma_x {half!r}")


def test_10_determinism(tmp_path):
    spec = Spectrum.from_lines([(0.0, 0.4, 1), (1.0, 0.6, 1)])
    probe = ProbeConfig(0.0, 1.0, 1.0, Squeezed(5.0))
    dist = distribution_for(spec, probe)
    base = sample_measurements(dist, 10_001, seed=12)
    texts = {record_to_text(base, probe)}
    texts.add(record_to_text(sample_measurements(dist, 10_001, seed=12), probe))
    for chunk in (10_001, 5_002, 3_334, 1_252):  # 1, 2, 3 and 8 pieces
        pieces = [sample_measurements(dist, min(chunk, 10_001 - start), seed=12, start=start)
                  for start in range(0, 10_001, chunk)]
        merged = np.concatenate([piece.samples for piece in pieces])
        texts.add(record_to_text(MeasurementRecord(samples=merged, seed=12), probe))

    config = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0},
              "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0,
                        "mode": {"kind": "squeezed", "s": 5.0}},
              "sampling": {"n": 2000, "seed": 4}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    outputs = set()
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert cli_main(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.add(out.read_text())
    report("10 determinism", len(texts) == 1 and len(outputs) == 1,
           f"{len(texts)} distinct record texts, {len(outputs)} distinct CLI outputs")
