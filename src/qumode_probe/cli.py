"""Config-driven command line for the qumode probe pipeline.

Subcommands: spectrum | sample | reconstruct | thermo | quench |
overlap | sweep.  Configs are JSON; outputs are deterministic text
(``table``) or CSV and open with the config as given, so any report can be
reproduced from its own header.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 contract
violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import models, reconstruct, thermo
from .config import CONFIG, ConfigError
from .operators import (
    ConvergenceError,
    HermitianOperator,
    SystemState,
    spectrum_of,
    thermal_state,
)
from .probe import apply_detector_binning, distribution_for
from .sampling import sample_chunks
from .serialize import read_header, read_record, record_body, record_header

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4

# draws per streamed record chunk; a multiple of 4, so every chunk starts on a
# Philox block of the line and kernel stream, and of the bin stream when binned
SAMPLE_CHUNK = 2 ** 15


def _needed(config: dict, section: str, command: str) -> dict:
    """The checked ``section``, which ``command`` cannot run without."""
    if config[section] is None:
        raise ConfigError(f"{command} requires the {section!r} section")
    return config[section]


def build_system(spec: dict) -> HermitianOperator:
    """The operator of a checked system section."""
    if "matrix" in spec:
        return HermitianOperator(spec["matrix"])
    if "diagonal" in spec:
        return HermitianOperator(np.diag(np.asarray(spec["diagonal"], dtype=float)))
    if spec["model"] == "rabi":
        return models.rabi_interaction(spec["n_sites"])
    return models.dicke_interaction(spec["n_atoms"])


def build_state(spec: dict, H: HermitianOperator) -> SystemState:
    """The state of a checked state section.  Every alternative but 'matrix'
    is a vector of populations on H's eigenbasis."""
    if "matrix" in spec:
        return SystemState(spec["matrix"])
    if "thermal_beta" in spec:
        return thermal_state(H, spec["thermal_beta"])
    if "random_populations" in spec:
        populations = np.random.default_rng(spec["random_populations"]).random(H.dim)
    else:  # 1/d each, or 1 on the lowest eigenvector
        populations = np.ones(H.dim) if "maximally_mixed" in spec else np.eye(1, H.dim)[0]
    return SystemState._in_eigenbasis(H, populations / populations.sum())


def _emit_table(rows: list[tuple], columns: list[str], fmt: str) -> str:
    """The column line and one line per row; ``main`` writes the header above."""
    sep = "," if fmt == "csv" else " "
    lines = [sep.join(columns)]
    lines.extend(sep.join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _rows(*columns: np.ndarray) -> list[tuple]:
    """Rows of Python numbers, so ``repr`` prints an integer column as integers."""
    return list(zip(*(column.tolist() for column in columns)))


def _exact_lines(config: dict, command: str):
    """The lines of the config's state on its system, merged within ``merge_tol``."""
    H = build_system(_needed(config, "system", command))
    return spectrum_of(build_state(config["state"], H), H, merge_tol=config["merge_tol"])


def cmd_spectrum(config: dict, fmt: str, record_path) -> str:
    spec = _exact_lines(config, "spectrum")
    return _emit_table(_rows(spec.energies, spec.populations, spec.degeneracies),
                       ["E", "P", "g"], fmt)


def cmd_sample(config: dict, fmt: str, record_path):
    """The record as an iterator of bytes pieces, drawn SAMPLE_CHUNK draws at a time."""
    probe = config["probe"]
    n, seed, detector_bin = (config["sampling"][key] for key in ("n", "seed", "detector_bin"))
    dist = distribution_for(_exact_lines(config, "sample"), probe)
    if detector_bin > 0:
        try:
            dist = apply_detector_binning(dist, detector_bin)
        except ValueError as exc:
            raise ConfigError(f"sampling.detector_bin: {exc}") from exc
    return _record_pieces(record_header(seed, detector_bin, probe), dist, n, seed, detector_bin)


def _record_pieces(header: str, dist, n: int, seed: int, detector_bin: float):
    yield header.encode()
    # every chunk's bits go through one array, as its draws go through one workspace
    bits = np.empty(min(n, SAMPLE_CHUNK), ">f8")
    for record in sample_chunks(dist, n, seed, detector_bin, chunk=SAMPLE_CHUNK):
        yield from record_body(record.samples, bits)


def _reconstruction(config: dict, record_path: str | None):
    """The record's header, the probe that drew it (the record's own, else the
    config's) and the lines that the ``reconstruct`` section reconstructs from
    it, read one block at a time."""
    if record_path is None:
        raise ConfigError("reconstruct requires --record")
    try:
        with open(record_path, "rb") as fh:
            record, probe, blocks = read_record(fh)
            probe = config["probe"] if probe is None else probe
            # the section's keys are reconstruct_blocks' bin_width and min_mass
            recon = reconstruct.reconstruct_blocks(blocks, probe, record.detector_bin,
                                                   **config["reconstruct"])
    except OSError as exc:
        raise ConfigError(f"cannot read record {record_path}: {exc}") from exc
    return record, probe, recon


def cmd_reconstruct(config: dict, fmt: str, record_path) -> str:
    record, probe, recon = _reconstruction(config, record_path)
    res = reconstruct.resolution_params(probe)
    rows = _rows(recon.energies, recon.populations, recon.counts)
    body = _emit_table(rows, ["E_hat", "P_hat", "count"], fmt)
    meta = (f"# residual_mass={float(recon.residual_mass)!r}\n"
            f"# sigma_E={float(res.sigma_E)!r} delta_E={float(res.delta_E)!r} "
            f"infinite_resolution={res.infinite_resolution}\n"
            f"# seed={record.seed}\n")
    return body + meta


def _thermo_rows(report: thermo.ThermoReport) -> list[list]:
    return np.column_stack((report.Z_grid, report.F_grid[:, 1], report.C_grid[:, 1],
                            report.S_grid[:, 1])).tolist()


def cmd_thermo(config: dict, fmt: str, record_path) -> str:
    options = config["thermo"]
    if record_path is None:
        spec = _exact_lines(config, "thermo")
    else:
        recon = _reconstruction(config, record_path)[2]
        # thermometry reads the kept lines as the whole spectrum
        spec = replace(recon, populations=recon.populations / recon.populations.sum(),
                       residual_mass=0.0)
    n_lines = len(spec.energies)
    if n_lines < 2:
        raise ConfigError("thermometry needs at least two spectral lines")
    for key in ("line0", "line1"):
        if not 0 <= options[key] < n_lines:
            raise ConfigError(f"thermo.{key} index {options[key]} out of range for {n_lines} lines")
    beta_hat = thermo.estimate_beta(spec.lines[options["line0"]], spec.lines[options["line1"]])
    # g = 1 but at the anchor; recover_degeneracies range-checks the anchor
    anchor = options["anchor"]
    g = np.where(np.arange(n_lines) == anchor, options["anchor_g"], 1)
    with_g = thermo.recover_degeneracies(replace(spec, degeneracies=g), beta_hat, anchor=anchor)
    report = thermo.thermo_report(with_g, beta_hat, options["beta_grid"])
    body = _emit_table(_thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    return body + f"# beta_hat={report.beta_hat!r}\n"


def cmd_quench(config: dict, fmt: str, record_path) -> str:
    options = _needed(config, "quench", "quench")
    H0 = build_system(_needed(config, "system", "quench"))
    report = thermo.quench_work(H0, build_system(options["system2"]), options["beta"])
    rows = [(report.W_avg, report.dF, report.W_irr)]
    return _emit_table(rows, ["W_avg", "dF", "W_irr"], fmt)


def cmd_overlap(config: dict, fmt: str, record_path) -> str:
    options = _needed(config, "overlap", "overlap")
    H_a = build_system(_needed(config, "system", "overlap"))
    p0 = thermo.ground_state_overlap(H_a, build_system(options["system_b"]))
    return _emit_table([(p0,)], ["P0"], fmt)


def cmd_sweep(config: dict, fmt: str, record_path) -> str:
    options = _needed(config, "sweep", "sweep")
    if options["kind"] == "beta":
        H = build_system(_needed(config, "system", "sweep"))
        # populations unused; only E and g drive the grid
        spec = spectrum_of(thermal_state(H, 0.0), H, merge_tol=config["merge_tol"])
        # the grid is given, so there is no estimated beta to report
        report = thermo.thermo_report(spec, float("nan"), options["values"])
        return _emit_table(_thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    if options["family"] == "dicke":
        # lambda J_x: the linear family with a zero base
        coupling = models.dicke_interaction(options["n_atoms"])
        base = HermitianOperator(np.zeros((coupling.dim, coupling.dim)))
    else:
        base, coupling = HermitianOperator(options["base"]), HermitianOperator(options["coupling"])
    build = models.linear_family(base, coupling)
    H_ref = build(options["lambda_ref"])
    rows = [(float(lam), thermo.ground_state_overlap(H_ref, build(float(lam))))
            for lam in options["values"]]
    return _emit_table(rows, ["lambda", "P0"], fmt)


def _load_config(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            # a report or record names its config in its leading '#' lines;
            # the first other line ends them, so a record body is never read
            header = read_header(fh)
            text = header.get("config", "") if header else fh.read().decode()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _write_output(path: str | None, pieces) -> None:
    """Write bytes pieces to ``path``, or to stdout, with no newline translation;
    each is dropped once written."""
    if path is None:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(pieces)
        sys.stdout.buffer.flush()
        return
    try:
        with open(path, "wb") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from exc


# each command takes the checked config, the output format and the --record path,
# or None; it returns a string, or bytes pieces for ``sample``
COMMANDS = {"spectrum": cmd_spectrum, "sample": cmd_sample, "reconstruct": cmd_reconstruct,
            "thermo": cmd_thermo, "quench": cmd_quench, "overlap": cmd_overlap,
            "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qumode-probe",
                                     description="qumode probe simulation pipeline")
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--record", help="measurement record path "
                                         "(reconstruct, thermo)")
    parser.add_argument("--seed", type=int, help="override sampling seed")
    parser.add_argument("--format", choices=["table", "csv"], default="table")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args.config)
        sampling = config.get("sampling", {})
        if args.seed is not None and type(sampling) is dict:
            # the '# config=' header echoes the override
            config["sampling"] = dict(sampling, seed=args.seed)
        # the whole config is checked once, before any work
        checked = CONFIG.check(config)

        output = COMMANDS[args.command](checked, args.format, args.record)
        # every output opens with the config as given, so it can be rerun from its
        # header; no name holds the header, so it is freed once written
        _write_output(args.out, chain(
            [("# config=" + json.dumps(config, sort_keys=True) + "\n").encode()],
            [output.encode()] if isinstance(output, str) else output))
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
