"""Config-driven command line for the qumode probe pipeline.

Subcommands: spectrum | sample | reconstruct | thermo | quench |
overlap | sweep.  Configs are JSON; outputs are deterministic text
(``table``) or CSV and embed the resolved config so any report can be
reproduced from its own header.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 contract
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import models, reconstruct, thermo
from .operators import (
    DIMENSION_CAP,
    ConvergenceError,
    HermitianOperator,
    Spectrum,
    SystemState,
    spectrum_of,
    thermal_state,
)
from .probe import ProbeConfig, apply_detector_binning, distribution_for
from .sampling import MAX_SAMPLES, sample_measurements
from .serialize import (
    as_float,
    as_integer,
    matrix_from_payload,
    probe_from_dict,
    read_record,
    record_body,
    record_header,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4

# draws per streamed record chunk; even, so every chunk starts on a Philox block
SAMPLE_CHUNK = 2 ** 16
SEED_MAX = 2 ** 128 - 1  # the Philox key range


class ConfigError(ValueError):
    pass


def build_system(config: dict) -> HermitianOperator:
    spec = config.get("system")
    if not isinstance(spec, dict):
        raise ConfigError("config requires a 'system' section")
    try:
        if "matrix" in spec:
            return HermitianOperator(matrix_from_payload(spec["matrix"]))
        if "diagonal" in spec:
            return _diagonal_system(spec["diagonal"])
        if "model" in spec:
            name = spec["model"]
            if name == "rabi":
                return models.rabi_interaction(
                    _config_int(spec, "system", "n_sites", 1, 1, sys.maxsize))
            if name == "dicke":
                return models.dicke_interaction(
                    _config_int(spec, "system", "n_atoms", None, 1, sys.maxsize))
            raise ConfigError(f"unknown model {name!r}")
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad system section: {exc}") from exc
    raise ConfigError("system must give 'matrix', 'diagonal', or 'model'")


def _diagonal_system(payload) -> HermitianOperator:
    """The diagonal operator of a flat list of at most DIMENSION_CAP numbers,
    checked before the matrix is allocated; the operator itself rejects an
    empty list and non-finite numbers."""
    message = f"system.diagonal must be a flat list of at most {DIMENSION_CAP} numbers"
    if (not isinstance(payload, list) or len(payload) > DIMENSION_CAP
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in payload)):
        raise ConfigError(message)
    try:
        values = np.array(payload, dtype=float)
    except OverflowError as exc:  # an integer beyond float64
        raise ConfigError(message) from exc
    return HermitianOperator(np.diag(values))


def build_state(config: dict, H: HermitianOperator) -> SystemState:
    spec = config.get("state", {"thermal_beta": 1.0})
    try:
        if "thermal_beta" in spec:
            return thermal_state(H, as_float(spec["thermal_beta"], "state.thermal_beta"))
        if "matrix" in spec:
            return SystemState(matrix_from_payload(spec["matrix"]))
        if "maximally_mixed" in spec:
            return SystemState(np.eye(H.dim) / H.dim)
        if "ground_of" in spec:
            v = H.eig().eigenvectors[:, 0]
            return SystemState(np.outer(v, v.conj()))
        if "random_populations" in spec:
            rng = np.random.default_rng(
                _config_int(spec, "state", "random_populations", None, 0, SEED_MAX))
            pops = rng.random(H.dim)
            pops /= pops.sum()
            vecs = H.eig().eigenvectors
            return SystemState((vecs * pops) @ vecs.conj().T)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad state section: {exc}") from exc
    raise ConfigError("state must give 'thermal_beta', 'matrix', 'maximally_mixed', "
                      "'ground_of', or 'random_populations'")


def build_probe(config: dict) -> ProbeConfig:
    payload = config.get("probe", {"p0": 0.0, "g": 1.0, "tau": 1.0,
                                   "mode": {"kind": "ideal"}})
    try:
        return probe_from_dict(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad probe section: {exc}") from exc


def _resolved_header(config: dict) -> str:
    return "# config=" + json.dumps(config, sort_keys=True)


def _emit_table(config: dict, rows: list[tuple], columns: list[str], fmt: str) -> str:
    sep = "," if fmt == "csv" else " "
    lines = [_resolved_header(config), sep.join(columns)]
    lines.extend(sep.join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _rows(*columns: np.ndarray) -> list[tuple]:
    """Rows of Python numbers, so ``repr`` prints an integer column as integers."""
    return list(zip(*(column.tolist() for column in columns)))


def cmd_spectrum(config: dict, fmt: str) -> str:
    H = build_system(config)
    state = build_state(config, H)
    merge_tol = _config_float(config, "", "merge_tol", 1e-8, zero_ok=True)
    spec = spectrum_of(state, H, merge_tol=merge_tol)
    rows = _rows(spec.energies, spec.populations, spec.degeneracies)
    return _emit_table(config, rows, ["E", "P", "g"], fmt)


def _section(config: dict, key: str) -> dict:
    """The config's ``key`` section, an object; empty when absent."""
    options = config.get(key, {})
    if not isinstance(options, dict):
        raise ConfigError(f"{key} must be an object")
    return options


def _config_int(options: dict, name: str, key: str, default: int | None,
                lo: int, hi: int) -> int:
    """An integer from lo to hi, as ``as_integer`` reads it."""
    raw = options.get(key, default)
    value = as_integer(raw)
    if value is None or not lo <= value <= hi:
        raise ConfigError(f"{name}.{key} must be an integer from {lo} to {hi}, got {raw!r}")
    return value


def _config_float(options: dict, name: str, key: str, default: float | None,
                  zero_ok: bool = False, any_sign: bool = False) -> float | None:
    """A finite number > 0 (>= 0 if ``zero_ok``, any if ``any_sign``), or ``default``
    when the key is absent.

    ``name`` is the key's section, empty for a top-level key.
    """
    raw = options.get(key)
    if raw is None:
        return default
    try:
        value = as_float(raw, key)
    except (TypeError, ValueError):
        value = float("nan")
    if not (np.isfinite(value) and (any_sign or value > 0 or zero_ok and value == 0)):
        need = ("a finite number" if any_sign else
                "nonnegative and finite" if zero_ok else "a finite number > 0")
        raise ConfigError(f"{name}{'.' if name else ''}{key} must be {need}, got {raw!r}")
    return value


def cmd_sample(config: dict, fmt: str):
    """The record as an iterator of text pieces, drawn SAMPLE_CHUNK draws at a time.

    Everything the config can get wrong is checked before the first piece.
    """
    H = build_system(config)
    state = build_state(config, H)
    probe = build_probe(config)
    sampling = _section(config, "sampling")
    n = _config_int(sampling, "sampling", "n", 1000, 1, MAX_SAMPLES)
    seed = _config_int(sampling, "sampling", "seed", 0, 0, SEED_MAX)
    detector_bin = _config_float(sampling, "sampling", "detector_bin", 0.0, zero_ok=True)

    spec = spectrum_of(state, H)
    dist = distribution_for(spec, probe)
    if detector_bin > 0:
        try:
            dist = apply_detector_binning(dist, detector_bin)
        except ValueError as exc:
            raise ConfigError(f"sampling.detector_bin: {exc}") from exc
    header = _resolved_header(config) + "\n" + record_header(seed, detector_bin, probe)
    return _record_pieces(header, dist, n, seed, detector_bin)


def _record_pieces(header: str, dist, n: int, seed: int, detector_bin: float):
    yield header
    for start in range(0, n, SAMPLE_CHUNK):
        yield record_body(sample_measurements(dist, min(SAMPLE_CHUNK, n - start), seed,
                                              detector_bin=detector_bin, start=start).samples)


def _record_and_probe(config: dict, record_file):
    """The record's header, the probe that drew it (the record's own, else the
    config's) and the record's samples as an iterator of blocks."""
    probe = build_probe(config)
    header, embedded_probe, blocks = read_record(record_file)
    return header, probe if embedded_probe is None else embedded_probe, blocks


def cmd_reconstruct(config: dict, fmt: str, record_file) -> str:
    header, probe, blocks = _record_and_probe(config, record_file)
    options = _section(config, "reconstruct")
    recon = reconstruct.reconstruct_blocks(
        blocks, probe, header.detector_bin,
        bin_width=_config_float(options, "reconstruct", "bin_width", None),
        min_mass=_config_float(options, "reconstruct", "min_mass", None))
    res = reconstruct.resolution_params(probe)
    rows = _rows(recon.energies, recon.populations, recon.counts)
    body = _emit_table(config, rows, ["E_hat", "P_hat", "count"], fmt)
    meta = (f"# residual_mass={float(recon.residual_mass)!r}\n"
            f"# sigma_E={float(res.sigma_E)!r} delta_E={float(res.delta_E)!r} "
            f"infinite_resolution={res.infinite_resolution}\n"
            f"# seed={header.seed}\n")
    return body + meta


def _grid_from_config(payload, key: str) -> np.ndarray:
    """A grid given in the config as a non-empty, flat list of numbers."""
    message = f"{key} must be a non-empty list of numbers"
    if not isinstance(payload, list) or not payload:
        raise ConfigError(message)
    try:
        grid = np.asarray(payload, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if grid.ndim != 1:
        raise ConfigError(message)
    return grid


def _beta_grid_from_config(options: dict) -> np.ndarray:
    payload = options.get("beta_grid")
    if payload is None:
        return thermo.default_beta_grid()
    if isinstance(payload, dict):
        name = "thermo.beta_grid"
        lo = _config_float(payload, name, "lo", 0.1)
        hi = _config_float(payload, name, "hi", 10.0)
        if lo > hi:
            raise ConfigError(f"{name} needs lo <= hi, got lo={lo!r}, hi={hi!r}")
        num = _config_int(payload, name, "num", 50, 1, thermo.MAX_BETA_GRID)
        return thermo.default_beta_grid(lo, hi, num)
    return _grid_from_config(payload, "thermo.beta_grid")


def _lines_for_thermo(config: dict, record_file) -> Spectrum:
    if record_file is None:
        H = build_system(config)
        state = build_state(config, H)
        return spectrum_of(state, H)
    header, probe, blocks = _record_and_probe(config, record_file)
    recon = reconstruct.reconstruct_blocks(blocks, probe, header.detector_bin)
    # thermometry reads the kept lines as the whole spectrum
    return replace(recon, populations=recon.populations / recon.populations.sum(),
                   residual_mass=0.0)


def _thermo_rows(report: thermo.ThermoReport) -> list[list]:
    return np.column_stack((report.Z_grid, report.F_grid[:, 1], report.C_grid[:, 1],
                            report.S_grid[:, 1])).tolist()


def cmd_thermo(config: dict, fmt: str, record_file) -> str:
    options = _section(config, "thermo")
    beta_grid = _beta_grid_from_config(options)
    # line indices are range-checked once the spectrum is known
    i0, i1, anchor = (_config_int(options, "thermo", key, default, -sys.maxsize, sys.maxsize)
                      for key, default in (("line0", 0), ("line1", 1), ("anchor", 0)))
    anchor_g = _config_int(options, "thermo", "anchor_g", 1, 1, sys.maxsize)
    spec = _lines_for_thermo(config, record_file)
    n_lines = len(spec.energies)
    if n_lines < 2:
        raise ConfigError("thermometry needs at least two spectral lines")
    for key, index in (("line0", i0), ("line1", i1)):
        if not 0 <= index < n_lines:
            raise ConfigError(f"thermo.{key} index {index} out of range for {n_lines} lines")
    beta_hat = thermo.estimate_beta(spec.lines[i0], spec.lines[i1])
    # g = 1 but at the anchor; recover_degeneracies range-checks the anchor
    g = np.where(np.arange(n_lines) == anchor, anchor_g, 1)
    with_g = thermo.recover_degeneracies(replace(spec, degeneracies=g), beta_hat, anchor=anchor)
    report = thermo.thermo_report(with_g, beta_hat, beta_grid)
    body = _emit_table(config, _thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    return body + f"# beta_hat={report.beta_hat!r}\n"


def cmd_quench(config: dict, fmt: str) -> str:
    options = config.get("quench")
    if not isinstance(options, dict) or "system2" not in options:
        raise ConfigError("quench requires a 'quench' section with 'system2'")
    H0 = build_system(config)
    H1 = build_system({"system": options["system2"]})
    report = thermo.quench_work(H0, H1, _config_float(options, "quench", "beta", 1.0))
    rows = [(report.W_avg, report.dF, report.W_irr)]
    return _emit_table(config, rows, ["W_avg", "dF", "W_irr"], fmt)


def cmd_overlap(config: dict, fmt: str) -> str:
    options = config.get("overlap")
    if not isinstance(options, dict) or "system_b" not in options:
        raise ConfigError("overlap requires an 'overlap' section with 'system_b'")
    H_a = build_system(config)
    H_b = build_system({"system": options["system_b"]})
    p0 = thermo.ground_state_overlap(H_a, H_b)
    return _emit_table(config, [(p0,)], ["P0"], fmt)


def _family_from_config(options: dict) -> models.ParamFamily:
    name = options.get("family", "dicke")
    if name == "dicke":
        return models.dicke_family(_config_int(options, "sweep", "n_atoms", 2, 1, sys.maxsize))
    if name == "linear":
        base = HermitianOperator(matrix_from_payload(options.get("base")))
        coupling = HermitianOperator(matrix_from_payload(options.get("coupling")))
        return models.linear_family("linear", base, coupling)
    raise ConfigError(f"unknown family {name!r}")


def cmd_sweep(config: dict, fmt: str) -> str:
    options = config.get("sweep")
    if not isinstance(options, dict):
        raise ConfigError("sweep requires a 'sweep' section")
    kind = options.get("kind")
    if kind == "beta":
        H = build_system(config)
        # populations unused; only E and g drive the grid
        spec = spectrum_of(thermal_state(H, 0.0), H)
        values = options.get("values")
        grid = None if values is None else _grid_from_config(values, "sweep.values")
        # the grid is given, so there is no estimated beta to report
        report = thermo.thermo_report(spec, float("nan"), grid)
        return _emit_table(config, _thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    if kind == "lambda":
        if "values" not in options:
            raise ConfigError("sweep kind 'lambda' requires 'values'")
        family = _family_from_config(options)
        lam_ref = _config_float(options, "sweep", "lambda_ref", 0.0, any_sign=True)
        values = _grid_from_config(options["values"], "sweep.values")
        H_ref = family.build(lam_ref)
        rows = [(float(lam), thermo.ground_state_overlap(H_ref, family.build(float(lam))))
                for lam in values]
        return _emit_table(config, rows, ["lambda", "P0"], fmt)
    raise ConfigError("sweep kind must be 'beta' or 'lambda'")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.readline()
            if text.startswith("#"):
                # a report or record names its config in its leading '#' lines;
                # the first other line ends them, so a record body is never read
                while text.startswith("#") and not text.startswith("# config="):
                    text = fh.readline()
                text = text[len("# config="):] if text.startswith("#") else ""
            else:
                text += fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _open_record(path: str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read record {path}: {exc}") from exc


def _write_output(path: str | None, pieces) -> None:
    """Write text pieces to ``path``, or to stdout when no path is given.

    ``writelines`` drops each piece once written, before drawing the next.
    """
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _run(command: str, config: dict, fmt: str, record_file):
    """The command's output: a string, or an iterator of text pieces for ``sample``.

    ``record_file`` is the ``--record`` file open in binary mode, or None.
    """
    if command == "spectrum":
        return cmd_spectrum(config, fmt)
    if command == "sample":
        return cmd_sample(config, fmt)
    if command == "reconstruct":
        if record_file is None:
            raise ConfigError("reconstruct requires --record")
        return cmd_reconstruct(config, fmt, record_file)
    if command == "thermo":
        return cmd_thermo(config, fmt, record_file)
    if command == "quench":
        return cmd_quench(config, fmt)
    if command == "overlap":
        return cmd_overlap(config, fmt)
    return cmd_sweep(config, fmt)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qumode-probe",
                                     description="qumode probe simulation pipeline")
    parser.add_argument("command",
                        choices=["spectrum", "sample", "reconstruct", "thermo",
                                 "quench", "overlap", "sweep"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--record", help="measurement record path "
                                         "(reconstruct, thermo)")
    parser.add_argument("--seed", type=int, help="override sampling seed")
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config["sampling"] = dict(_section(config, "sampling"), seed=args.seed)

        record = None if args.record is None else _open_record(args.record)
        try:
            output = _run(args.command, config, args.format, record)
        except OSError as exc:
            if record is None:
                raise
            raise ConfigError(f"cannot read record {args.record}: {exc}") from exc
        finally:
            if record is not None:
                record.close()
        _write_output(args.out, [output] if isinstance(output, str) else output)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (thermo.DegenerateGroundStateError,
            thermo.NonThermalSpectrumError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
