"""Text formats the command line exchanges: matrix and probe literals in
a config, and the measurement record.

A matrix literal is {dim, entries} with entries a row-major list of
[re, im] pairs.  A record is a `# key=value` header ending in
``# columns=p_bits``, followed by one line per sample, the 16 hex digits
of the sample's float64 bits (see ``record_body``).  The writers are
deterministic (sorted keys, repr floats) so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .probe import MODES, ProbeConfig, ProbeMode
from .sampling import MeasurementRecord


def matrix_from_payload(payload) -> np.ndarray:
    """Square complex matrix from ``{dim, entries: [[re, im], ...]}``, row-major.

    A payload whose imaginary parts are all zero is a real matrix: the
    ``HermitianOperator`` or ``SystemState`` built from it stores float64.
    """
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


def _mode_to_dict(mode: ProbeMode) -> dict:
    return {"kind": mode.kind, **asdict(mode)}


def _mode_from_dict(payload) -> ProbeMode:
    """A probe mode from ``{kind, <its parameters>}``, or from the bare kind."""
    if isinstance(payload, str):
        payload = {"kind": payload}
    kind = payload["kind"]
    if kind not in MODES:
        raise ValueError(f"unknown probe mode {kind!r}")
    mode = MODES[kind]
    return mode(**{field.name: float(payload[field.name]) for field in fields(mode)})


def probe_to_dict(probe: ProbeConfig) -> dict:
    return {"p0": probe.p0, "g": probe.g, "tau": probe.tau, "mode": _mode_to_dict(probe.mode)}


def probe_from_dict(payload: dict) -> ProbeConfig:
    mode = _mode_from_dict(payload["mode"])
    return ProbeConfig(p0=float(payload.get("p0", 0.0)), g=float(payload.get("g", 1.0)),
                       tau=float(payload.get("tau", 1.0)), mode=mode)


_LINE = 17  # 16 hex digits and "\n"
_DECODE_LINES = 2 ** 16  # lines decoded per block, so the temporaries stay small
_BAD_BODY = "record body must be lines of 16 hex digits"
_REDRAW = ("only '# columns=p_bits' records are read; redraw this one from its own "
           "'# config=' header with 'qumode-probe sample --config <record>'")


def record_header(seed: int, detector_bin: float, probe: ProbeConfig | None = None) -> str:
    """The ``# key=value`` lines that open a record, ending with ``# columns=p_bits``."""
    lines = [f"# seed={seed}", f"# detector_bin={detector_bin!r}"]
    if probe is not None:
        lines.append("# probe=" + json.dumps(probe_to_dict(probe), sort_keys=True))
    lines.append("# columns=p_bits")
    return "\n".join(lines) + "\n"


def record_body(samples: np.ndarray) -> str:
    """One line per sample: the 16 lowercase hex digits of its float64 bits, big-endian."""
    if len(samples) == 0:
        return ""
    return np.asarray(samples, dtype=">f8").tobytes().hex("\n", 8) + "\n"


def record_to_text(record: MeasurementRecord, probe: ProbeConfig | None = None) -> str:
    return record_header(record.seed, record.detector_bin, probe) + record_body(record.samples)


def _octet_table() -> np.ndarray:
    """The byte two hex digits spell, indexed by the digit pair read as one
    little-endian uint16; 256 or more where either character is no digit.

    Built per call (0.5 ms), so importing the module allocates nothing.
    """
    nibble = np.full(256, 256, dtype=np.uint16)
    nibble[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)
    pairs = np.arange(2 ** 16, dtype=np.uint16)
    return (nibble[pairs & 255] << 4) | nibble[pairs >> 8]


def _samples_from_hex(text: str, pos: int) -> np.ndarray:
    """Decode the ``p_bits`` body that starts at ``text[pos]``, _DECODE_LINES at a time."""
    n, partial = divmod(len(text) - pos, _LINE)
    if partial:
        raise ValueError(_BAD_BODY)
    octet = _octet_table()
    samples = np.empty(n)
    for a in range(0, n, _DECODE_LINES):
        b = min(n, a + _DECODE_LINES)
        try:
            raw = text[pos + a * _LINE:pos + b * _LINE].encode("ascii")
        except UnicodeEncodeError:
            raise ValueError(_BAD_BODY) from None
        if raw[_LINE - 1::_LINE] != b"\n" * (b - a):
            raise ValueError(_BAD_BODY)
        # the eight digit pairs of every line, read in place
        pairs = np.ndarray((b - a, 8), dtype="<u2", buffer=raw, strides=(_LINE, 2))
        octets = octet[pairs]
        if (octets > 255).any():
            raise ValueError(_BAD_BODY)
        samples[a:b] = octets.astype(np.uint8).view(">f8").ravel()
    return samples


def _header_value(meta: dict, key: str, parse, default):
    if key not in meta:
        return default
    try:
        return parse(meta[key])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad record {key} header: {exc}") from exc


def record_from_text(text: str) -> tuple[MeasurementRecord, ProbeConfig | None]:
    """Record and embedded probe from ``record_to_text`` output.

    The leading ``#`` lines are the header, which must hold ``# columns=p_bits``.
    """
    meta = {}
    pos = 0
    while text.startswith("#", pos):
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        key, _, value = text[pos:end].strip().lstrip("# ").partition("=")
        meta[key] = value
        pos = min(end + 1, len(text))
    columns = meta.get("columns")
    if columns != "p_bits":
        found = ("no record columns line" if columns is None
                 else f"unknown record columns {columns!r}")
        raise ValueError(f"{found}: {_REDRAW}")
    samples = _samples_from_hex(text, pos)
    probe = _header_value(meta, "probe", lambda v: probe_from_dict(json.loads(v)), None)
    record = MeasurementRecord(samples=samples,
                               seed=_header_value(meta, "seed", int, 0),
                               detector_bin=_header_value(meta, "detector_bin", float, 0.0))
    return record, probe
