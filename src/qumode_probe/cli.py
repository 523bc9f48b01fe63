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

import numpy as np

from . import models, reconstruct, thermo
from .operators import (
    ConvergenceError,
    HermitianOperator,
    Spectrum,
    SystemState,
    spectrum_of,
    thermal_state,
)
from .probe import (
    Ideal,
    ProbeConfig,
    apply_detector_binning,
    distribution_for,
)
from .sampling import sample_measurements
from .serialize import (
    matrix_from_payload,
    probe_from_dict,
    probe_to_dict,
    record_from_text,
    record_to_text,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4


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
            return HermitianOperator(np.diag(np.asarray(spec["diagonal"], dtype=float)))
        if "model" in spec:
            name = spec["model"]
            if name == "rabi":
                return models.rabi_interaction(int(spec.get("n_sites", 1)))
            if name == "dicke":
                return models.dicke_interaction(int(spec["n_atoms"]))
            raise ConfigError(f"unknown model {name!r}")
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad system section: {exc}") from exc
    raise ConfigError("system must give 'matrix', 'diagonal', or 'model'")


def build_state(config: dict, H: HermitianOperator) -> SystemState:
    spec = config.get("state", {"thermal_beta": 1.0})
    try:
        if "thermal_beta" in spec:
            return thermal_state(H, float(spec["thermal_beta"]))
        if "matrix" in spec:
            return SystemState(matrix_from_payload(spec["matrix"]))
        if "maximally_mixed" in spec:
            return SystemState(np.eye(H.dim) / H.dim)
        if "ground_of" in spec:
            v = H.eig().eigenvectors[:, 0]
            return SystemState(np.outer(v, v.conj()))
        if "random_populations" in spec:
            rng = np.random.default_rng(int(spec["random_populations"]))
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


def _fmt_value(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _emit_table(config: dict, rows: list[tuple], columns: list[str], fmt: str) -> str:
    sep = "," if fmt == "csv" else " "
    lines = [_resolved_header(config), sep.join(columns)]
    lines.extend(sep.join(_fmt_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _spectrum_rows(spec: Spectrum) -> list[tuple]:
    return [(line.E, line.P, line.g) for line in spec.lines]


def cmd_spectrum(config: dict, fmt: str) -> str:
    H = build_system(config)
    state = build_state(config, H)
    spec = spectrum_of(state, H, merge_tol=float(config.get("merge_tol", 1e-8)))
    return _emit_table(config, _spectrum_rows(spec), ["E", "P", "g"], fmt)


def cmd_sample(config: dict, fmt: str) -> str:
    H = build_system(config)
    state = build_state(config, H)
    probe = build_probe(config)
    sampling = config.get("sampling", {})
    n = int(sampling.get("n", 1000))
    seed = int(sampling.get("seed", 0))
    detector_bin = float(sampling.get("detector_bin", 0.0))

    spec = spectrum_of(state, H)
    dist = distribution_for(spec, probe)
    if detector_bin > 0:
        dist = apply_detector_binning(dist, detector_bin)
    record = sample_measurements(dist, n, seed, detector_bin=detector_bin)
    return _resolved_header(config) + "\n" + record_to_text(record, probe)


def cmd_reconstruct(config: dict, fmt: str, record_text: str) -> str:
    probe = build_probe(config)
    record, embedded_probe = record_from_text(record_text)
    if embedded_probe is not None:
        probe = embedded_probe
    options = config.get("reconstruct", {})
    recon = reconstruct.reconstruct_record(
        record, probe,
        bin_width=options.get("bin_width"),
        min_mass=options.get("min_mass"))
    res = reconstruct.resolution_params(probe)
    rows = [(line.E_hat, line.P_hat, line.count) for line in recon.lines]
    body = _emit_table(config, rows, ["E_hat", "P_hat", "count"], fmt)
    meta = (f"# residual_mass={_fmt_value(recon.residual_mass)}\n"
            f"# sigma_E={_fmt_value(res.sigma_E)} delta_E={_fmt_value(res.delta_E)} "
            f"infinite_resolution={res.infinite_resolution}\n"
            f"# seed={record.seed}\n")
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


def _beta_grid_from_config(config: dict) -> np.ndarray:
    payload = config.get("thermo", {}).get("beta_grid", None)
    if payload is None:
        return thermo.default_beta_grid()
    if isinstance(payload, dict):
        return thermo.default_beta_grid(float(payload.get("lo", 0.1)),
                                        float(payload.get("hi", 10.0)),
                                        int(payload.get("num", 50)))
    return _grid_from_config(payload, "thermo.beta_grid")


def _lines_for_thermo(config: dict, record_text: str | None) -> Spectrum:
    if record_text is None:
        H = build_system(config)
        state = build_state(config, H)
        return spectrum_of(state, H)
    probe = build_probe(config)
    record, embedded_probe = record_from_text(record_text)
    if embedded_probe is not None:
        probe = embedded_probe
    recon = reconstruct.reconstruct_record(record, probe)
    pops = recon.populations / recon.populations.sum()
    return Spectrum.from_lines(
        (e, p, 1) for e, p in zip(recon.energies, pops))


def _thermo_rows(report: thermo.ThermoReport) -> list[tuple]:
    return [(b, z, f, c, s) for (b, z), (_, f), (_, c), (_, s) in
            zip(report.Z_grid, report.F_grid, report.C_grid, report.S_grid)]


def cmd_thermo(config: dict, fmt: str, record_text: str | None) -> str:
    options = config.get("thermo", {})
    spec = _lines_for_thermo(config, record_text)
    i0 = int(options.get("line0", 0))
    i1 = int(options.get("line1", 1))
    anchor = int(options.get("anchor", 0))
    anchor_g = int(options.get("anchor_g", 1))
    if len(spec.lines) < 2:
        raise ConfigError("thermometry needs at least two spectral lines")
    for key, index in (("line0", i0), ("line1", i1)):
        if not 0 <= index < len(spec.lines):
            raise ConfigError(f"thermo.{key} index {index} out of range "
                              f"for {len(spec.lines)} lines")
    beta_hat = thermo.estimate_beta(spec.lines[i0], spec.lines[i1])
    with_g = thermo.recover_degeneracies(
        Spectrum.from_lines((l.E, l.P, anchor_g if i == anchor else 1)
                            for i, l in enumerate(spec.lines)),
        beta_hat, anchor=anchor)
    report = thermo.thermo_report(with_g, beta_hat, _beta_grid_from_config(config))
    body = _emit_table(config, _thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    return body + f"# beta_hat={report.beta_hat!r}\n"


def cmd_quench(config: dict, fmt: str) -> str:
    options = config.get("quench")
    if not isinstance(options, dict) or "system2" not in options:
        raise ConfigError("quench requires a 'quench' section with 'system2'")
    H0 = build_system(config)
    H1 = build_system({"system": options["system2"]})
    beta = float(options.get("beta", 1.0))
    report = thermo.quench_work(H0, H1, beta)
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
        return models.dicke_family(int(options.get("n_atoms", 2)))
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
        mixed = SystemState(np.eye(H.dim) / H.dim)
        spec = spectrum_of(mixed, H)  # populations unused; E and g drive the grid
        values = options.get("values")
        grid = None if values is None else _grid_from_config(values, "sweep.values")
        # the grid is given, so there is no estimated beta to report
        report = thermo.thermo_report(spec, float("nan"), grid)
        return _emit_table(config, _thermo_rows(report), ["beta", "Z", "F", "C", "S"], fmt)
    if kind == "lambda":
        if "values" not in options:
            raise ConfigError("sweep kind 'lambda' requires 'values'")
        family = _family_from_config(options)
        lam_ref = float(options.get("lambda_ref", 0.0))
        values = _grid_from_config(options["values"], "sweep.values")
        H_ref = family.build(lam_ref)
        rows = [(float(lam), thermo.ground_state_overlap(H_ref, family.build(float(lam))))
                for lam in values]
        return _emit_table(config, rows, ["lambda", "P0"], fmt)
    raise ConfigError("sweep kind must be 'beta' or 'lambda'")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # allow re-running directly from an emitted report header
    for line in text.splitlines():
        if line.startswith("# config="):
            text = line[len("# config="):]
            break
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


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
            config.setdefault("sampling", {})["seed"] = args.seed

        record_text = None
        if args.record is not None:
            with open(args.record) as fh:
                record_text = fh.read()

        if args.command == "spectrum":
            output = cmd_spectrum(config, args.format)
        elif args.command == "sample":
            output = cmd_sample(config, args.format)
        elif args.command == "reconstruct":
            if record_text is None:
                raise ConfigError("reconstruct requires --record")
            output = cmd_reconstruct(config, args.format, record_text)
        elif args.command == "thermo":
            output = cmd_thermo(config, args.format, record_text)
        elif args.command == "quench":
            output = cmd_quench(config, args.format)
        elif args.command == "overlap":
            output = cmd_overlap(config, args.format)
        else:
            output = cmd_sweep(config, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
