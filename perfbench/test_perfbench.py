"""Self-tests of the benchmark: seeded inputs, output checks, result schema.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
CLI_WORKLOADS = ("eigen-dense", "record-heavy", "many-lines")


@pytest.fixture(scope="module")
def refs():
    return {name: (workloads.make_inputs(name, 11), checks.build_reference(
        workloads.make_inputs(name, 11))) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(name):
    same = [json.dumps(workloads.make_inputs(name, 5), sort_keys=True) for _ in range(2)]
    other = json.dumps(workloads.make_inputs(name, 6), sort_keys=True)
    assert same[0] == same[1]
    assert other != same[0]


def test_oracle_work_does_not_depend_on_the_seed():
    def shape(seed):
        return [(job["kind"], job.get("line"), len(job["grid"]))
                for job in workloads.make_inputs("oracle-verify", seed)["oracle_jobs"]]

    assert all(shape(seed) == shape(1) for seed in range(2, 30))


def exact_lines(ref):
    return np.column_stack([ref["E"], ref["P"], ref["g"]])


def test_spectrum_check_passes_exact_lines_and_rejects_a_shifted_line(refs):
    inputs, ref = refs["many-lines"]
    lines = exact_lines(ref)
    assert all(c.ok for c in checks.check_output("spectrum", {"lines": lines}, inputs, ref, {}))
    lines[17, 0] += 1e-6
    assert not all(c.ok for c in checks.check_output("spectrum", {"lines": lines}, inputs, ref, {}))


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_moment_check_rejects_a_line_shifted_by_ten_sigma(refs, name):
    inputs, ref = refs[name]
    lines = exact_lines(ref)
    assert checks.check_output("reconstruct", {"lines": lines}, inputs, ref, {})[0].ok
    heaviest = int(np.argmax(ref["P"]))
    lines[heaviest, 0] += 10 * checks.moment_sigma(ref) / ref["P"][heaviest]
    assert not checks.check_output("reconstruct", {"lines": lines}, inputs, ref, {})[0].ok


@pytest.mark.parametrize("name", ("record-heavy", "many-lines"))
def test_beta_check_rejects_beta_off_by_five_percent(refs, name):
    inputs, ref = refs[name]
    beta = ref["beta"]
    grid = np.array([[b, np.exp(-b * ref["E"]) @ ref["g"], 0, 0, 0] for b in (0.1, 1.0, 10.0)])
    good = checks.check_output("thermo", {"beta_hat": beta, "grid": grid}, inputs, ref, {})
    bad = checks.check_output("thermo", {"beta_hat": 1.05 * beta, "grid": grid}, inputs, ref, {})
    assert all(c.ok for c in good)
    assert not bad[0].ok


def test_record_check_rejects_one_flipped_byte(tmp_path, refs):
    inputs, ref = refs["record-heavy"]
    body = "".join(f"{i} {0.001 * i!r}\n" for i in range(ref["n"] // 1000))
    text = "# config={}\n# seed=1\n# detector_bin=0.0\n# probe={}\n# columns=index p\n" + body
    path = tmp_path / "record.txt"
    path.write_text(text)
    digests = {}
    first = checks.record_digest(path)
    first["rows"] = ref["n"]
    assert all(c.ok for c in checks.check_output("sample", first, inputs, ref, digests))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    flipped = checks.record_digest(path)
    flipped["rows"] = ref["n"]
    assert not all(c.ok for c in checks.check_output("sample", flipped, inputs, ref, digests))


def test_record_digest_counts_sample_rows(tmp_path):
    path = tmp_path / "record.txt"
    path.write_text("# config={}\n# seed=3\n# columns=index p\n0 0.5\n1 0.25\n")
    assert checks.record_digest(path) == {
        "digest": hashlib.sha256(path.read_bytes()).hexdigest(), "rows": 2}


def test_oracle_check_rejects_perturbed_densities(refs):
    inputs, ref = refs["oracle-verify"]
    jobs = inputs["oracle_jobs"]

    def exact(job):
        value = checks.oracle_reference(job, ref)
        if job["kind"] == "ideal":  # flat density over the grid holding the line's mass
            return np.full(len(job["grid"]), value / np.ptp(job["grid"]))
        return value

    densities = [exact(job) for job in jobs]
    assert all(c.ok for c in checks.check_output("oracle", {"densities": densities, "digest": "d"},
                                                 inputs, ref, {}))
    for i, job in enumerate(jobs):
        bumped = list(densities)
        scale = np.ptp(job["grid"]) if job["kind"] == "ideal" else 1.0
        bumped[i] = densities[i] + 2 * checks.ORACLE_GATES[job["kind"]] / scale
        found = checks.check_output("oracle", {"densities": bumped, "digest": "d"},
                                    inputs, ref, {})
        assert [c.ok for c in found[1:]] == [j != i for j in range(len(jobs))]


@pytest.mark.parametrize("key", ("W_avg", "dF", "W_irr", "P0"))
def test_quench_and_overlap_checks_reject_a_small_error(refs, key):
    inputs, ref = refs["eigen-dense"]
    command = "overlap" if key == "P0" else "quench"
    out = {"P0": ref["P0"]} if key == "P0" else dict(ref["quench"])
    assert all(c.ok for c in checks.check_output(command, out, inputs, ref, {}))
    out[key] += 1e-6
    assert not all(c.ok for c in checks.check_output(command, out, inputs, ref, {}))


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.step("sample"):
        with tracer.span("sampling.draw"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and inner.step == 0 and outer.step == 0
    times = tracer.self_times()
    assert times["step.sample"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))
    assert tracer.layer_time_by_step() == {"sample": inner.end - inner.start}


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "record-heavy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
