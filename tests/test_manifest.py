"""Every output of the benchmark workloads' chains at seeds 1-3, and of the README
example's ``sample -> reconstruct -> thermo --record`` chain, pinned in
``output_manifest.json``: each step's exit code, stderr and the SHA-256 of the file
it wrote (null when it wrote none).

A change that moves an output rewrites the manifest, and that diff declares what
moved.  To rewrite it from the tree on PYTHONPATH:

    PYTHONPATH=src python tests/test_manifest.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qumode_probe.cli import main

from conftest import WORKLOADS

MANIFEST = Path(__file__).with_name("output_manifest.json")

README_CONFIG = {
    "system": {"model": "rabi", "n_sites": 2},
    "state": {"thermal_beta": 1.0},
    "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "squeezed", "s": 20.0}},
    "sampling": {"n": 100000, "seed": 7},
}


def chains() -> dict[str, tuple[dict, list[str], bool]]:
    """Each chain's config, its steps, and whether ``thermo`` reads the record."""
    out = {f"{name}-{seed}": (inputs["config"], inputs["steps"],
                              inputs.get("thermo_from_record", False))
           for name in ("eigen-dense", "record-heavy", "many-lines") for seed in (1, 2, 3)
           for inputs in [WORKLOADS.make_inputs(name, seed)]}
    out["readme"] = (README_CONFIG, ["sample", "reconstruct", "thermo"], True)
    return out


def run_chain(work: Path, config: dict, steps: list[str], thermo_from_record: bool) -> dict:
    """Run each step through ``cli.main`` in ``work``, as the benchmark runs it:
    ``sample`` writes the record that later steps read."""
    (work / "config.json").write_text(json.dumps(config))
    record = work / "rec.txt"
    outputs = {}
    for command in steps:
        out = record if command == "sample" else work / f"{command}.txt"
        out.unlink(missing_ok=True)
        argv = [command, "--config", str(work / "config.json"), "--out", str(out)]
        if command == "reconstruct" or (command == "thermo" and thermo_from_record):
            argv += ["--record", str(record)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        outputs[command] = {"exit": code, "stderr": err.getvalue(), "sha256": digest}
    return outputs


@pytest.mark.parametrize("name", sorted(chains()))
def test_chain_outputs(tmp_path, name):
    assert run_chain(tmp_path, *chains()[name]) == json.loads(MANIFEST.read_text())[name]


def test_manifest_lists_every_chain():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(chains())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as work:
        manifest = {name: run_chain(Path(work), *chain) for name, chain in sorted(chains().items())}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
