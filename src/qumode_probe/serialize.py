"""Structured-text serialization of operators, states, distributions,
measurement records, and reports.

Matrices are stored as {dim, entries} with entries a row-major list of
[re, im] pairs; distributions are JSON records tagged by kind; sample
records are two-column tables with `# key=value` header metadata.  All
emitters are deterministic (sorted keys, repr floats) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .operators import HermitianOperator, Spectrum, SystemState
from .probe import (
    Bin,
    GaussianMixture,
    Ideal,
    MomentumDistribution,
    PiecewiseUniform,
    PointMasses,
    ProbeConfig,
    Squeezed,
)
from .sampling import MeasurementRecord


def _matrix_payload(a: np.ndarray) -> dict:
    return {
        "dim": a.shape[0],
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_payload(payload) -> np.ndarray:
    """Square complex matrix from ``{dim, entries: [[re, im], ...]}``, row-major."""
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise ValueError("matrix literal must be {dim, entries: [[re, im], ...]}")
    try:
        dim = int(payload["dim"])
    except (TypeError, ValueError):
        raise ValueError(f"matrix dim must be an integer, got {payload['dim']!r}") from None
    if dim < 1:
        raise ValueError(f"matrix dim must be at least 1, got {dim}")
    try:
        pairs = np.array(payload["entries"], dtype=float, order="C")
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("matrix entries must be [re, im] pairs of numbers")
    if len(pairs) != dim * dim:
        raise ValueError(f"expected {dim * dim} matrix entries, got {len(pairs)}")
    # a C-ordered (n, 2) float array is n complex numbers in memory
    return pairs.view(complex).reshape(dim, dim)


def operator_to_text(op: HermitianOperator) -> str:
    return json.dumps(_matrix_payload(op.entries), sort_keys=True)


def operator_from_text(text: str) -> HermitianOperator:
    return HermitianOperator(matrix_from_payload(json.loads(text)))


def state_to_text(state: SystemState) -> str:
    return json.dumps(_matrix_payload(state.rho), sort_keys=True)


def state_from_text(text: str) -> SystemState:
    return SystemState(matrix_from_payload(json.loads(text)))


def spectrum_to_text(spec: Spectrum) -> str:
    return json.dumps({"lines": [[line.E, line.P, line.g] for line in spec.lines]},
                      sort_keys=True)


def spectrum_from_text(text: str) -> Spectrum:
    return Spectrum.from_lines(json.loads(text)["lines"])


def probe_to_dict(probe: ProbeConfig) -> dict:
    mode = probe.mode
    if isinstance(mode, Ideal):
        mode_payload = {"kind": "ideal"}
    elif isinstance(mode, Bin):
        mode_payload = {"kind": "bin", "L": mode.L}
    else:
        mode_payload = {"kind": "squeezed", "s": mode.s}
    return {"p0": probe.p0, "g": probe.g, "tau": probe.tau, "mode": mode_payload}


def probe_from_dict(payload: dict) -> ProbeConfig:
    mode_payload = payload["mode"]
    if isinstance(mode_payload, str):
        mode_payload = {"kind": mode_payload}
    kind = mode_payload["kind"]
    if kind == "ideal":
        mode = Ideal()
    elif kind == "bin":
        mode = Bin(float(mode_payload["L"]))
    elif kind == "squeezed":
        mode = Squeezed(float(mode_payload["s"]))
    else:
        raise ValueError(f"unknown probe mode {kind!r}")
    return ProbeConfig(p0=float(payload.get("p0", 0.0)), g=float(payload.get("g", 1.0)),
                       tau=float(payload.get("tau", 1.0)), mode=mode)


def distribution_to_text(dist: MomentumDistribution) -> str:
    if isinstance(dist, PointMasses):
        payload = {"kind": "point_masses", "points": [list(p) for p in dist.points]}
    elif isinstance(dist, PiecewiseUniform):
        payload = {"kind": "piecewise_uniform",
                   "segments": [list(s) for s in dist.segments]}
    elif isinstance(dist, GaussianMixture):
        payload = {"kind": "gaussian_mixture",
                   "components": [list(c) for c in dist.components]}
    else:
        raise TypeError(f"unsupported distribution type {type(dist).__name__}")
    return json.dumps(payload, sort_keys=True)


def distribution_from_text(text: str) -> MomentumDistribution:
    payload = json.loads(text)
    kind = payload["kind"]
    if kind == "point_masses":
        return PointMasses(tuple(tuple(p) for p in payload["points"]))
    if kind == "piecewise_uniform":
        return PiecewiseUniform(tuple(tuple(s) for s in payload["segments"]))
    if kind == "gaussian_mixture":
        return GaussianMixture(tuple(tuple(c) for c in payload["components"]))
    raise ValueError(f"unknown distribution kind {kind!r}")


def record_to_text(record: MeasurementRecord, probe: ProbeConfig | None = None) -> str:
    lines = [f"# seed={record.seed}", f"# detector_bin={record.detector_bin!r}"]
    if probe is not None:
        lines.append("# probe=" + json.dumps(probe_to_dict(probe), sort_keys=True))
    lines.append("# columns=index p")
    lines.extend(f"{i} {float(p)!r}" for i, p in enumerate(record.samples))
    return "\n".join(lines) + "\n"


def record_from_text(text: str) -> tuple[MeasurementRecord, ProbeConfig | None]:
    seed = 0
    detector_bin = 0.0
    probe = None
    samples = []
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw:
            continue
        if raw.startswith("#"):
            body = raw.lstrip("# ")
            if body.startswith("seed="):
                seed = int(body[len("seed="):])
            elif body.startswith("detector_bin="):
                detector_bin = float(body[len("detector_bin="):])
            elif body.startswith("probe="):
                probe = probe_from_dict(json.loads(body[len("probe="):]))
            continue
        _, value = raw.split()
        samples.append(float(value))
    record = MeasurementRecord(samples=np.array(samples), seed=seed,
                               detector_bin=detector_bin)
    return record, probe
