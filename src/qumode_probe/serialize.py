"""The measurement record: the text format ``sample`` writes and
``reconstruct`` and ``thermo --record`` read.

A record is a `# key=value` header ending in ``# columns=p_bits``,
followed by one line per sample, the 16 hex digits of the sample's
float64 bits (see ``record_body``).  The writers are deterministic
(sorted keys, repr floats) so identical inputs produce byte-identical
files.  ``read_header`` reads the leading ``#`` lines of a record or
report, and ``read_record`` then reads a record's body one block of
lines at a time, so its memory does not grow with the record.
"""

from __future__ import annotations

import binascii
import io
import json
from collections.abc import Iterator
from dataclasses import asdict, replace

import numpy as np

from .config import CONFIG, PROBE
from .probe import ProbeConfig
from .sampling import MeasurementRecord


def probe_to_dict(probe: ProbeConfig) -> dict:
    mode = {"kind": probe.mode.kind, **asdict(probe.mode)}
    return {"p0": probe.p0, "g": probe.g, "tau": probe.tau, "mode": mode}


def probe_from_dict(payload) -> ProbeConfig:
    """The probe of a config section or a record's ``# probe=`` header, checked
    and built by ``config.PROBE``."""
    return PROBE.check(payload, "probe")


_LINE = 17  # 16 hex digits and "\n"
_HEX_DIGITS = b"0123456789abcdef"
_DECODE_LINES = 2 ** 16  # lines read and decoded per block (1.1 MB of text)
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


def _decode_block(raw: bytes) -> np.ndarray:
    """The samples of ``raw``, whole ``p_bits`` body lines, checked finite."""
    n, partial = divmod(len(raw), _LINE)
    lines = np.frombuffer(raw, dtype=np.uint8, count=n * _LINE).reshape(n, _LINE)
    digits = lines[:, :-1].tobytes()
    # unhexlify would also read uppercase digits, which record_body never writes
    if partial or (lines[:, -1] != ord("\n")).any() or digits.translate(None, _HEX_DIGITS):
        raise ValueError(_BAD_BODY)
    samples = np.frombuffer(binascii.unhexlify(digits), dtype=">f8").astype(float)
    if not np.isfinite(samples).all():
        raise ValueError("record has non-finite samples")
    return samples


def _body_blocks(fh):
    """Decode the ``p_bits`` body that ``fh`` is at, _DECODE_LINES lines per block."""
    while raw := fh.read(_LINE * _DECODE_LINES):
        yield _decode_block(raw)


def _header_value(meta: dict, key: str, parse, default):
    if key not in meta:
        return default
    try:
        return parse(meta[key])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad record {key} header: {exc}") from exc


def read_header(fh) -> dict[str, str]:
    """The ``# key=value`` lines that open ``fh``, a binary file that can ``peek``,
    as a dict; ``fh`` is left at the first line that is not one of them."""
    meta = {}
    while fh.peek(1)[:1] == b"#":
        # undecodable bytes survive as surrogates, for the header parsers to name
        line = fh.readline().decode("utf-8", "surrogateescape")
        key, _, value = line.strip().lstrip("# ").partition("=")
        meta[key] = value
    return meta


def read_record(fh) -> tuple[MeasurementRecord, ProbeConfig | None, Iterator[np.ndarray]]:
    """Read a record from ``fh``, a binary file that can ``peek``, one block at a time.

    The leading ``#`` lines are the header, which must hold ``# columns=p_bits``.
    Returns the header as a record without samples, the embedded probe, and
    the body's samples as an iterator of arrays of at most _DECODE_LINES
    samples, which reads the file as it goes.
    """
    meta = read_header(fh)
    columns = meta.get("columns")
    if columns != "p_bits":
        found = ("no record columns line" if columns is None
                 else f"unknown record columns {columns!r}")
        raise ValueError(f"{found}: {_REDRAW}")
    probe = _header_value(meta, "probe", lambda v: probe_from_dict(json.loads(v)), None)
    sampling = CONFIG.keys["sampling"].keys  # the rules of the seed and detector_bin headers
    seed, detector_bin = (
        _header_value(meta, key, lambda v: sampling[key].check(json.loads(v), key),
                      sampling[key].default) for key in ("seed", "detector_bin"))
    header = MeasurementRecord(samples=np.empty(0), seed=seed, detector_bin=detector_bin)
    return header, probe, _body_blocks(fh)


def record_from_text(text: str) -> tuple[MeasurementRecord, ProbeConfig | None]:
    """Record and embedded probe from ``record_to_text`` output."""
    raw = io.BufferedReader(io.BytesIO(text.encode("utf-8", "surrogateescape")))
    header, probe, blocks = read_record(raw)
    return replace(header, samples=np.concatenate([header.samples, *blocks])), probe
