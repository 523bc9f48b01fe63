"""Output checks against references the benchmark computes itself.

References come from numpy's LAPACK eigensolvers and the textbook
formulas; nothing here imports the package under test.  Each step's
output is first reduced to a plain dict (``parse_cli_output`` for CLI
reports, the in-process chain builds the same dicts) and then checked
by ``check_output``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import spin_matrices

SPECTRUM_TOL = 1e-9      # line energies (relative above |E| = 1) and populations
EXACT_TOL = 1e-8         # quench, overlap and exact Z against eigh references
BETA_REL_TOL = 0.02      # beta_hat against the configured beta
MOMENT_SIGMAS = 5.0      # reconstructed first moment, in units of its sampling error
ORACLE_GATES = {"squeezed": 1e-6, "bin": 1e-4, "ideal": 1e-4}  # the repo's own gates
MERGE_TOL = 1e-8         # same degeneracy merge as spectrum_of's default
MIN_MASS_COUNTS = 10     # reconstruct drops clusters holding fewer than 10 samples' mass


@dataclass(frozen=True)
class Check:
    step: str
    name: str
    ok: bool
    err: float
    tol: float


def _check(step: str, name: str, err: float, tol: float) -> Check:
    err = float(err)
    return Check(step, name, bool(err <= tol), err, tol)


def system_matrix(spec: dict) -> np.ndarray:
    """Dense matrix of a config 'system' section (the kinds the workloads use)."""
    if "diagonal" in spec:
        return np.diag(np.asarray(spec["diagonal"], dtype=float))
    if "matrix" in spec:
        payload = spec["matrix"]
        flat = np.array([complex(re, im) for re, im in payload["entries"]])
        return flat.reshape(payload["dim"], payload["dim"])
    if spec.get("model") == "dicke":
        return spin_matrices(int(spec["n_atoms"]))[0]
    raise ValueError(f"no reference for system {spec}")


def _free_energy(energies: np.ndarray, beta: float) -> float:
    e0 = energies.min()
    return float(e0 - np.log(np.sum(np.exp(-beta * (energies - e0)))) / beta)


def _momentum_std(probe: dict) -> float:
    mode = probe["mode"]
    if mode["kind"] == "squeezed":
        return 1.0 / (np.sqrt(2.0) * mode["s"])
    if mode["kind"] == "bin":
        return mode["L"] / np.sqrt(12.0)
    return 0.0


def build_reference(inputs: dict) -> dict:
    """Exact lines and protocol values for one workload's inputs."""
    config = inputs["config"]
    H = system_matrix(config["system"])
    beta = float(config["state"]["thermal_beta"])
    vals = np.linalg.eigvalsh(H)
    weights = np.exp(-beta * (vals - vals[0]))
    weights /= weights.sum()
    starts = np.concatenate([[0], np.nonzero(np.diff(vals) > MERGE_TOL)[0] + 1])
    ref = {"beta": beta,
           "E": np.array([vals[a:b].mean() for a, b in zip(starts, np.append(starts[1:], len(vals)))]),
           "P": np.add.reduceat(weights, starts),
           "g": np.diff(np.append(starts, len(vals)))}
    if "sampling" in config:
        probe = config["probe"]
        g_tau = probe["g"] * probe["tau"]
        sigma_p = _momentum_std(probe)
        detector_bin = config["sampling"].get("detector_bin", 0.0)
        ref["n"] = int(config["sampling"]["n"])
        # per-sample spread of the energy estimate, and the histogram bin width
        ref["spread_E"] = np.sqrt(sigma_p ** 2 + detector_bin ** 2 / 12) / g_tau
        ref["bin_E"] = (sigma_p / 4 if sigma_p > 0 else max(detector_bin, 1e-6)) / g_tau
    if "quench" in config:
        H1 = system_matrix(config["quench"]["system2"])
        qbeta = float(config["quench"].get("beta", 1.0))
        e0, v0 = np.linalg.eigh(H)
        w = np.exp(-qbeta * (e0 - e0[0]))
        w /= w.sum()
        rho = (v0 * w) @ v0.conj().T
        W = float(np.trace(rho @ H1).real - np.sum(w * e0))
        dF = _free_energy(np.linalg.eigvalsh(H1), qbeta) - _free_energy(e0, qbeta)
        ref["quench"] = {"W_avg": W, "dF": dF, "W_irr": W - dF}
    if "overlap" in config:
        ga = np.linalg.eigh(H)[1][:, 0]
        gb = np.linalg.eigh(system_matrix(config["overlap"]["system_b"]))[1][:, 0]
        ref["P0"] = float(abs(np.vdot(ga, gb)) ** 2)
    return ref


def oracle_reference(job: dict, ref: dict) -> np.ndarray | float:
    """Closed-form density on the job's grid, or the ideal line's mass."""
    positions = -ref["E"]  # p0 = 0, g tau = 1
    if job["kind"] == "ideal":
        return float(ref["P"][job["line"]])
    p = np.asarray(job["grid"])[:, None]
    if job["kind"] == "squeezed":
        sd = 1.0 / (np.sqrt(2.0) * job["s"])
        dens = np.exp(-0.5 * ((p - positions) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    else:
        dens = (np.abs(p - positions) <= job["L"] / 2) / job["L"]
    return dens @ ref["P"]


def oracle_error(job: dict, density, ref: dict) -> float:
    expected = oracle_reference(job, ref)
    density = np.asarray(density, dtype=float)
    if job["kind"] == "ideal":
        return abs(float(np.trapezoid(density, job["grid"])) - expected)
    return float(np.max(np.abs(density - expected)))


def record_digest(path: Path) -> dict:
    """sha256 of a record file and its number of sample rows."""
    data = path.read_bytes()
    header = 0
    for line in data.split(b"\n", 8)[:8]:
        if not line.startswith(b"#"):
            break
        header += 1
    return {"digest": hashlib.sha256(data).hexdigest(),
            "rows": data.count(b"\n") - header}


def json_digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _table(text: str) -> tuple[list[str], np.ndarray, dict]:
    """Columns, numeric rows and the '# key=value' metadata of a CLI report."""
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# config="):
            continue
        if line.startswith("#"):
            meta.update(tok.split("=", 1) for tok in line[1:].split() if "=" in tok)
        elif line:
            body.append(line.replace(",", " ").split())
    rows = np.array([[float(x) for x in row] for row in body[1:]]).reshape(-1, len(body[0]))
    return body[0], rows, meta


def parse_cli_output(command: str, path: Path) -> dict:
    """Reduce a CLI report file to the dict ``check_output`` takes."""
    if command == "sample":
        return record_digest(path)
    if command == "oracle":
        payload = json.loads(path.read_text())
        return {"densities": payload["densities"], "digest": json_digest(payload["densities"]),
                "oracle_s": payload["oracle_s"]}
    columns, rows, meta = _table(path.read_text())
    if command in ("spectrum", "reconstruct"):
        return {"lines": rows}
    if command == "thermo":
        return {"beta_hat": float(meta["beta_hat"]), "grid": rows}
    return dict(zip(columns, rows[0].tolist()))


def check_output(command: str, out: dict, inputs: dict, ref: dict,
                 digests: dict) -> list[Check]:
    """Check one step's output; ``digests`` holds the first digest per step."""
    if command == "spectrum":
        lines = np.asarray(out["lines"])
        if lines.shape != (len(ref["E"]), 3):
            return [_check(command, "line_count", np.inf, 0.0)]
        scale = np.maximum(1.0, np.abs(ref["E"]))
        return [_check(command, "energies", np.max(np.abs(lines[:, 0] - ref["E"]) / scale),
                       SPECTRUM_TOL),
                _check(command, "populations", np.max(np.abs(lines[:, 1] - ref["P"])),
                       SPECTRUM_TOL),
                _check(command, "degeneracies", np.max(np.abs(lines[:, 2] - ref["g"])), 0.0)]
    if command in ("sample", "oracle"):
        first = digests.setdefault(command, out["digest"])
        found = [_check(command, "same_bytes", float(out["digest"] != first), 0.0)]
        if command == "sample":
            return found + [_check(command, "rows", abs(out["rows"] - ref["n"]), 0.0)]
        jobs = inputs["oracle_jobs"]
        if len(out["densities"]) != len(jobs):
            return found + [_check(command, "job_count", np.inf, 0.0)]
        return found + [_check(command, f"oracle_{job['kind']}", oracle_error(job, density, ref),
                               ORACLE_GATES[job["kind"]])
                        for job, density in zip(jobs, out["densities"])]
    if command == "reconstruct":
        return [moment_check(out["lines"], ref)]
    if command == "thermo":
        found = [_check(command, "beta_hat",
                        abs(out["beta_hat"] - ref["beta"]) / ref["beta"], BETA_REL_TOL)]
        if not inputs.get("thermo_from_record"):
            grid = np.asarray(out["grid"])
            z_ref = np.exp(-grid[:, :1] * ref["E"]) @ ref["g"]
            found.append(_check(command, "Z", np.max(np.abs(grid[:, 1] / z_ref - 1)), EXACT_TOL))
        return found
    expected = ref["quench"] if command == "quench" else {"P0": ref["P0"]}
    return [_check(command, key, abs(out[key] - value) / max(1.0, abs(value)), EXACT_TOL)
            for key, value in expected.items()]


def moment_sigma(ref: dict) -> float:
    """Sampling error of the reconstructed first moment.

    Line variance, probe spread and histogram quantization, over n samples.
    """
    m1 = float(np.sum(ref["P"] * ref["E"]))
    var = float(np.sum(ref["P"] * (ref["E"] - m1) ** 2))
    return float(np.sqrt((var + ref["spread_E"] ** 2 + ref["bin_E"] ** 2 / 12) / ref["n"]))


def moment_check(lines, ref: dict) -> Check:
    """Reconstructed first moment against the exact one.

    The tolerance is MOMENT_SIGMAS sampling errors plus the largest shift
    that dropping every line too light to survive the 10/n mass floor
    could cause.
    """
    lines = np.asarray(lines)
    E, P = ref["E"], ref["P"]
    m1 = float(np.sum(P * E))
    light = P < 2 * MIN_MASS_COUNTS / ref["n"]
    bias = float(np.sum(P[light] * np.abs(E[light] - m1)))
    m1_hat = float(np.sum(lines[:, 1] * lines[:, 0]) / np.sum(lines[:, 1]))
    return _check("reconstruct", "first_moment", abs(m1_hat - m1),
                  MOMENT_SIGMAS * moment_sigma(ref) + bias)
