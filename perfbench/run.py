"""Benchmark of the qumode-probe pipeline, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's chain as a closed loop, one client and
one fresh ``python -m qumode_probe.cli`` child at a time, for about S
seconds, and prints the end-to-end metrics.  ``--trace 1`` runs the
chain once through the CLI and once in-process with a span around every
layer call, and prints the per-layer metrics.  Every output is checked
against references the benchmark computes with numpy.  The last stdout
line is the JSON result; the line before it is the full report.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

THREADS = 1  # BLAS/OpenMP threads of every child and of this process; <= nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, str(THREADS)))  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_RUNS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s, children included

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}
LAYER_SPANS = ("models.build", "jacobi.eigh", "operators.thermal_state",
               "operators.spectrum_of", "probe.distribution", "probe.detector_binning",
               "probe.oracle_squeezed", "probe.oracle_bin", "probe.oracle_ideal",
               "sampling.draw", "serialize.record_write", "serialize.record_read",
               "reconstruct.histogram", "reconstruct.peaks",
               "thermo.report", "thermo.quench", "thermo.overlap")
LAYER_COUNTS = ("jacobi.calls", "operators.lines", "probe.components", "probe.oracle_points",
                "sampling.samples", "serialize.record_bytes", "reconstruct.bins",
                "reconstruct.clusters")
HEALTH = ("jacobi.residual", "jacobi.orth_err", "reconstruct.kept_ratio",
          "probe.oracle_err", "thermo.beta_rel_err")
PER_LAYER = {**{f"{name}_s": "s" for name in LAYER_SPANS},
             "cli.self_s": "s", "trace.pipeline_s": "s", "trace.untraced_pipeline_s": "s",
             **dict.fromkeys(LAYER_COUNTS, "count"), **dict.fromkeys(HEALTH, "ratio")}


@dataclass
class Child:
    wall: float
    rss_mib: float
    code: int  # a child killed at the deadline reports -9


@dataclass
class Rep:
    """One pass over the workload's chain of child processes."""

    wall: float = 0.0
    steps: dict = field(default_factory=dict)    # command -> Child
    outputs: dict = field(default_factory=dict)  # command -> parsed output
    checks: list = field(default_factory=list)
    failed: set = field(default_factory=set)

    @property
    def complete(self) -> bool:
        return not self.failed and len(self.steps) == len(self.outputs)


class Workdir:
    """Config, outputs and child logs of one run, inside the checkout."""

    def __init__(self, inputs: dict):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.config = self.path / "config.json"
        self.inputs = self.path / "inputs.json"
        self.record = self.path / "record.txt"
        self.log = self.path / "children.log"
        self.config.write_text(json.dumps(inputs["config"]))
        self.inputs.write_text(json.dumps(inputs))

    def out(self, command: str) -> Path:
        return self.record if command == "sample" else self.path / f"{command}.out"


def run_child(argv: list[str], env: dict, workdir: Workdir, deadline: float) -> Child:
    """Run one child to completion; wall time and its own peak RSS (wait4)."""
    with open(workdir.log, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=workdir.path, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        pidfd = os.pidfd_open(proc.pid)
        ready = []
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def step_argv(command: str, inputs: dict, workdir: Workdir) -> list[str]:
    if command == "oracle":
        return [sys.executable, str(BENCH_DIR / "oracle_child.py"), str(workdir.inputs),
                str(workdir.out(command))]
    argv = [sys.executable, "-m", "qumode_probe.cli", command,
            "--config", str(workdir.config), "--out", str(workdir.out(command))]
    if command == "reconstruct" or (command == "thermo" and inputs.get("thermo_from_record")):
        argv += ["--record", str(workdir.record)]
    return argv


def checked(command: str, parse, inputs: dict, ref: dict, digests: dict):
    """Parse and check one output; a malformed output is a failed check."""
    try:
        out = parse()
        return out, checks.check_output(command, out, inputs, ref, digests)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [checks.Check(command, f"parse: {exc}", False, float("inf"), 0.0)]


def run_cli_chain(inputs: dict, ref: dict, workdir: Workdir, env: dict, deadline: float,
                  digests: dict) -> Rep:
    rep = Rep()
    start = time.perf_counter()
    for command in inputs["steps"]:
        child = run_child(step_argv(command, inputs, workdir), env, workdir, deadline)
        rep.steps[command] = child
        if child.code != 0:
            rep.failed.add(command)
            break
    rep.wall = time.perf_counter() - start
    # checks run after the timed chain
    for command, child in rep.steps.items():
        if child.code != 0:
            continue
        out, found = checked(command, lambda: checks.parse_cli_output(command, workdir.out(command)),
                             inputs, ref, digests)
        if out is not None:
            rep.outputs[command] = out
        rep.checks += found
        if not all(c.ok for c in found):
            rep.failed.add(command)
    return rep


def metric(unit: str, values) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    values = [float(v) for v in np.atleast_1d(values)]
    n = len(values)
    tail = int(100 * (1 - 10 / n)) if n > 10 else None
    return {"unit": unit, "median": statistics.median(values), "n": n, "tail_percentile": tail,
            "tail_value": float(np.percentile(values, tail)) if tail else None}


def time_setup(env: dict, workdir: Workdir, deadline: float) -> tuple[list[Child], list]:
    """SETUP_RUNS fresh interpreters that only import the package, after one
    untimed warm-up import that fills the page cache and writes bytecode."""
    argv = [sys.executable, "-c", "import qumode_probe"]
    runs = [run_child(argv, env, workdir, deadline) for _ in range(1 + SETUP_RUNS)]
    names = ["warmup"] + [f"setup#{i}" for i in range(SETUP_RUNS)]
    return runs[1:], [(name, c.code == 0) for name, c in zip(names, runs)]


def untraced(inputs, ref, workdir, env, seconds, deadline) -> tuple[dict, list, list]:
    setup, ops = time_setup(env, workdir, deadline)
    reps: list[Rep] = []
    digests: dict = {}
    began = time.perf_counter()
    while True:
        reps.append(run_cli_chain(inputs, ref, workdir, env, deadline, digests))
        if any(c.code != 0 for c in reps[-1].steps.values()):
            break
        spent = time.perf_counter() - began
        typical = statistics.median(r.wall for r in reps)
        if spent + typical > seconds or time.monotonic() + 2 * typical > deadline:
            break
    timed = [r for r in reps if r.complete] or reps
    metrics = {
        "setup_s": metric("s", [c.wall for c in setup]),
        "pipeline_s": metric("s", [r.wall for r in timed]),
        "peak_rss_mib": metric("MiB", [max(c.rss_mib for c in r.steps.values()) for r in timed]),
    }
    for command in inputs["steps"]:
        walls = [r.steps[command].wall for r in timed if command in r.steps]
        if walls:
            metrics[f"{command}_s"] = metric("s", walls)
    oracle = [r.outputs["oracle"]["oracle_s"] for r in timed if "oracle" in r.outputs]
    if oracle:
        metrics["oracle_s"] = metric("s", oracle)
    if workdir.record.exists():
        metrics["record_mib"] = metric("MiB", workdir.record.stat().st_size / 2 ** 20)
    ops += [(command, command not in r.failed) for r in reps for command in r.steps]
    return metrics, ops, [c for r in reps for c in r.checks]


def traced(inputs, ref, workdir, env, deadline) -> tuple[dict, list, list, dict]:
    setup, ops = time_setup(env, workdir, deadline)
    setup_s = statistics.median(c.wall for c in setup)
    digests: dict = {}
    cli = run_cli_chain(inputs, ref, workdir, env, deadline, digests)
    ops += [(command, command not in cli.failed) for command in cli.steps]
    found = list(cli.checks)

    sys.path.insert(0, str(SRC))
    import inproc  # the package under test is imported only for the traced run

    tracer = Tracer()
    chain = inproc.Chain(inputs, workdir.path, tracer)
    extra: dict = {}
    start = time.perf_counter()
    try:
        chain.run()
    except Exception:  # a failing layer is reported, not fatal to the run
        extra["inproc_error"] = traceback.format_exc()
    inproc_wall = time.perf_counter() - start
    outputs = chain.outputs
    for command in inputs["steps"]:
        if command not in outputs:
            ops.append((f"inproc.{command}", False))
            continue
        _, step_checks = checked(command, lambda: outputs[command], inputs, ref, digests)
        step_checks += mirror_checks(command, outputs[command], cli.outputs.get(command))
        found += step_checks
        ops.append((f"inproc.{command}", all(c.ok for c in step_checks)))

    self_times = tracer.self_times()
    per_step = tracer.layer_time_by_step()
    values = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_SPANS}
    values["cli.self_s"] = sum(child.wall - setup_s - per_step.get(command, 0.0)
                               for command, child in cli.steps.items())
    values["trace.pipeline_s"] = inproc_wall + setup_s * len(inputs["steps"])
    values["trace.untraced_pipeline_s"] = cli.wall
    health = chain.health() if outputs else {}
    health.update(layer_health(inputs, ref, outputs))
    values.update(tracer.counts)
    values.update(health)
    metrics = {name: metric(unit, values.get(name, 0.0)) for name, unit in PER_LAYER.items()}

    slowest = max(list(LAYER_SPANS) + ["cli.self"], key=lambda n: values[f"{n}_s"])
    extra.update(slowest_layer=slowest, setup_s=setup_s, inproc_wall_s=inproc_wall,
                 spans=tracer.as_records())
    return metrics, ops, found, extra


def mirror_checks(command: str, inproc_out: dict, cli_out: dict | None) -> list:
    """The in-process step must reproduce the CLI's output exactly."""
    if cli_out is None:
        return []

    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value

    same = all(plain(inproc_out[k]) == plain(cli_out[k]) for k in set(inproc_out) & set(cli_out))
    return [checks.Check(command, "inproc_matches_cli", same, float(not same), 0.0)]


def layer_health(inputs: dict, ref: dict, outputs: dict) -> dict:
    out = {}
    if "thermo" in outputs:
        out["thermo.beta_rel_err"] = abs(outputs["thermo"]["beta_hat"] - ref["beta"]) / ref["beta"]
    if "oracle" in outputs:
        out["probe.oracle_err"] = max(
            checks.oracle_error(job, density, ref) / checks.ORACLE_GATES[job["kind"]]
            for job, density in zip(inputs["oracle_jobs"], outputs["oracle"]["densities"]))
    return out


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "mem_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 2),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": THREADS,
            "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "qumode_probe" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'qumode_probe'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    inputs = workloads.make_inputs(args.workload, args.seed)
    ref = checks.build_reference(inputs)
    workdir = Workdir(inputs)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        if args.trace:
            metrics, ops, found, extra = traced(inputs, ref, workdir, env, deadline)
            names = list(PER_LAYER)
        else:
            metrics, ops, found = untraced(inputs, ref, workdir, env, args.seconds, deadline)
            extra, names = {}, list(END_TO_END)
    finally:
        shutil.rmtree(workdir.path, ignore_errors=True)

    failed = sum(not ok for _, ok in ops)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(),
              "operations": {"attempted": len(ops), "failed": failed,
                             "fail_ratio": failed / len(ops),
                             "failed_ops": [name for name, ok in ops if not ok]},
              "checks": {"run": len(found),
                         "failed": [c.__dict__ for c in found if not c.ok]},
              "metrics": metrics, **extra}
    for name, m in metrics.items():
        print(f"{name:32s} {m['median']:>14.6g} {m['unit']:6s} n={m['n']}")
    if "slowest_layer" in extra:
        print(f"slowest layer: {extra['slowest_layer']}")
    print(json.dumps(report))
    result = {"correct": failed == 0 and all(c.ok for c in found), "attempted": len(ops),
              "failed": failed,
              "metrics": {name: {"value": metrics[name]["median"], "unit": metrics[name]["unit"]}
                          for name in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
