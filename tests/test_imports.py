"""The import graph: each import loads only the modules it names, and no
command loads the verification oracle.  Every check runs in a fresh
interpreter and reads its ``sys.modules``."""

import json
import os
import subprocess
import sys

import qumode_probe
from qumode_probe import oracle, probe

# printed last by every child: numpy, if loaded, and the loaded package modules
# with the names their namespaces hold
REPORT = """
import json, sys
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "modules": {name: sorted(vars(module)) for name, module in sys.modules.items()
                              if name.split(".")[0] == "qumode_probe"}}))
"""


def loaded_after(code, cwd=None):
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code + REPORT], cwd=cwd, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def assert_no_oracle(loaded):
    assert "qumode_probe.oracle" not in loaded["modules"]
    holders = [name for name, names in loaded["modules"].items()
               if "distribution_numeric_oracle" in names]
    assert holders == []


def test_importing_the_package_loads_nothing_else():
    loaded = loaded_after("import qumode_probe")
    assert not loaded["numpy"]
    assert list(loaded["modules"]) == ["qumode_probe"]


def test_importing_operators_loads_no_other_package_module():
    loaded = loaded_after("import qumode_probe.operators")
    assert sorted(loaded["modules"]) == ["qumode_probe", "qumode_probe.operators"]


def test_importing_the_cli_loads_no_oracle():
    assert_no_oracle(loaded_after("import qumode_probe.cli"))


def test_a_sample_run_loads_no_oracle(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({
        "system": {"model": "dicke", "n_atoms": 4},
        "probe": {"mode": {"kind": "squeezed", "s": 20.0}},
        "sampling": {"n": 1000, "seed": 3, "detector_bin": 0.01},
    }))
    loaded = loaded_after("from qumode_probe.cli import main\n"
                          "assert main(['sample', '--config', 'config.json', "
                          "'--out', 'record.txt']) == 0", cwd=tmp_path)
    assert_no_oracle(loaded)


def test_probe_reexports_the_oracle_on_first_read():
    assert probe.distribution_numeric_oracle is oracle.distribution_numeric_oracle
    assert "distribution_numeric_oracle" not in vars(probe)
