"""The measurement record: the text format ``sample`` writes and
``reconstruct`` and ``thermo --record`` read.

A record is a `# key=value` header ending in ``# columns=p_bits``,
followed by one line per sample, the 16 hex digits of the sample's
float64 bits (see ``record_body``).  The writers are deterministic
(sorted keys, repr floats) so identical inputs produce byte-identical
files.  ``record_body`` gives a chunk's lines as ASCII bytes, through a
bits array the writer may pass for every chunk, for a file opened in
binary mode, so no newline is translated.  ``read_header`` reads the
leading ``#`` lines of a record or report, and ``read_record`` then
reads a record's body one block of lines at a time into one buffer,
allocated once, and decodes each block into one array, so its memory
does not grow with the record; per block it allocates only the block's
text as a str and the bytes ``bytes.fromhex`` decodes from it.
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


def record_body(samples: np.ndarray, bits: np.ndarray | None = None) -> Iterator[bytes]:
    """One line per sample, as ASCII bytes pieces: the 16 lowercase hex digits of
    its float64 bits, big-endian.  ``bits``, a big-endian float64 array at least
    as long as ``samples``, takes the bits, so a writer that passes the same one
    for every chunk allocates only each chunk's text."""
    if len(samples):
        bits = np.empty(len(samples), ">f8") if bits is None else bits[:len(samples)]
        np.copyto(bits, samples)
        yield binascii.b2a_hex(bits, b"\n", 8)
        yield b"\n"


def record_to_text(record: MeasurementRecord, probe: ProbeConfig | None = None) -> str:
    body = b"".join(record_body(record.samples)).decode("ascii")
    return record_header(record.seed, record.detector_bin, probe) + body


def _decode_block(block: memoryview, newlines: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The samples of ``block``, whole ``p_bits`` body lines, checked finite and
    decoded into ``out``; ``newlines`` is the last column of the lines."""
    n, partial = divmod(len(block), _LINE)
    if partial or (newlines[:n] != ord("\n")).any():
        raise ValueError(_BAD_BODY)
    try:
        text = str(block, "ascii")
        bits = bytes.fromhex(text)
    except ValueError:
        raise ValueError(_BAD_BODY) from None
    # with every newline in place, fromhex skips no digit column only if it holds
    # no whitespace; it also reads uppercase digits, which record_body never writes
    if len(bits) != 8 * n or any(digit in text for digit in "ABCDEF"):
        raise ValueError(_BAD_BODY)
    samples = out[:n]
    np.copyto(samples, np.frombuffer(bits, dtype=">f8"))
    if not np.isfinite(samples).all():
        raise ValueError("record has non-finite samples")
    return samples


def _body_blocks(fh):
    """Decode the ``p_bits`` body that ``fh`` is at, _DECODE_LINES lines per block,
    each read into one buffer and decoded into one array, which the next
    block overwrites."""
    raw = bytearray(_LINE * _DECODE_LINES)
    newlines = np.frombuffer(raw, dtype=np.uint8).reshape(_DECODE_LINES, _LINE)[:, -1]
    samples = np.empty(_DECODE_LINES)
    view = memoryview(raw)
    while size := fh.readinto(view):
        yield _decode_block(view[:size], newlines, samples)


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
    samples, which reads the file as it goes.  Each array is overwritten by
    the next, so a caller that keeps one copies it.
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
    samples = np.concatenate([header.samples, *map(np.copy, blocks)])
    return replace(header, samples=samples), probe
