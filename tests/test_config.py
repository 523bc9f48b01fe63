"""The config table: every key checked once, before any work, by one walker.

Unknown keys, two alternatives given together, wrong values and lists past
their caps exit 2 with a message that names the key.  The fuzz harness at the
end draws its mutations from the table itself.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qumode_probe import cli, serialize, thermo
from qumode_probe.cli import EXIT_CONFIG, main
from qumode_probe.config import CONFIG, MATRIX, MAX_LAMBDA_VALUES, Table
from qumode_probe.probe import Ideal, ProbeConfig

from conftest import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
QUBIT = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0}}
SECTIONS = ("merge_tol, overlap, probe, quench, reconstruct, sampling, state, sweep, system, "
            "thermo")
STATES = "'thermal_beta', 'maximally_mixed', 'ground_of', 'random_populations', 'matrix'"


def run(tmp_path, command, config, extra=()):
    """Exit code, output and stderr of one in-process CLI call."""
    path, out = tmp_path / "config.json", tmp_path / "out.txt"
    path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(out), *extra])
    return code, out.read_text() if out.exists() else "", err.getvalue()


def no_work(monkeypatch):
    """Make every command fail if it starts any work."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the config was checked")
    for name in ("build_system", "spectrum_of", "read_record"):
        monkeypatch.setattr(cli, name, fail)
    monkeypatch.setattr(cli.models, "linear_family", fail)


@pytest.mark.parametrize("command, config, message", [
    pytest.param("thermo", dict(QUBIT, thermo={"betagrid": [1.0]}),
                 "thermo has unknown key 'betagrid'; known keys: anchor, anchor_g, beta_grid, "
                 "line0, line1", id="thermo.betagrid"),
    pytest.param("sample", dict(QUBIT, sampling={"seeed": 3}),
                 "sampling has unknown key 'seeed'; known keys: detector_bin, n, seed",
                 id="sampling.seeed"),
    pytest.param("spectrum", dict(QUBIT, probee={"mode": "ideal"}),
                 f"config has unknown key 'probee'; known keys: {SECTIONS}", id="probee"),
    pytest.param("quench", dict(QUBIT, quench={"system2": {"diagonal": [1.0, 0.0]}, "bta": 2.0}),
                 "quench has unknown key 'bta'; known keys: beta, system2", id="quench.bta"),
    pytest.param("sample", dict(QUBIT, probe={"mode": {"kind": "ideal", "s": 3}}),
                 "probe.mode has unknown key 's'; known keys: kind", id="probe.mode-ideal-s"),
    pytest.param("spectrum", dict(QUBIT, state={"thermal_beta": 1, "maximally_mixed": True}),
                 f"state must give one of {STATES}; 'thermal_beta' and 'maximally_mixed' are "
                 "both given", id="state-two-alternatives"),
    pytest.param("spectrum", {"system": {"diagonal": [0.0, 1.0], "model": "dicke"}},
                 "system must give one of 'model', 'diagonal', 'matrix'; 'model' and 'diagonal' "
                 "are both given", id="system-two-alternatives"),
    pytest.param("spectrum", dict(QUBIT, state={"maximally_mixed": False}),
                 "state.maximally_mixed must be true, got False", id="maximally-mixed-false"),
    pytest.param("spectrum", {"system": {"model": "dicke", "n_atom": 3}},
                 "system has unknown key 'n_atom'; known keys: diagonal, matrix, model, n_atoms",
                 id="system.n_atom"),
])
def test_misspelt_or_conflicting_key_exits_2(tmp_path, monkeypatch, command, config, message):
    """Each of these once exited 0 with a default; now the walker stops it first."""
    no_work(monkeypatch)
    assert run(tmp_path, command, config) == (EXIT_CONFIG, "", f"config error: {message}\n")


@pytest.mark.parametrize("state", ["maximally_mixed", "ground_of"])
@pytest.mark.parametrize("value", [False, "nonsense", 1, None, [True]])
def test_flags_take_only_true(tmp_path, monkeypatch, state, value):
    no_work(monkeypatch)
    assert run(tmp_path, "spectrum", dict(QUBIT, state={state: value})) == (
        EXIT_CONFIG, "", f"config error: state.{state} must be true, got {value!r}\n")


def readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"Example config:\n\n```json\n(.*?)```", text, re.S).group(1))


@pytest.mark.parametrize("config", [
    *(pytest.param(WORKLOADS.make_inputs(name, seed)["config"], id=f"{name}-{seed}")
      for name in WORKLOADS.WORKLOADS for seed in (1, 2, 3)),
    pytest.param(readme_config(), id="readme"),
])
def test_benchmark_and_readme_configs_pass(tmp_path, config):
    """A config the benchmark or the README runs must pass the walker, so a new
    rule cannot turn a benchmark run into a failed one."""
    CONFIG.check(config)
    code, text, err = run(tmp_path, "spectrum", config)
    assert (code, err) == (0, "")
    assert text.startswith("# config=" + json.dumps(config, sort_keys=True) + "\nE P g\n")


def test_defaults_are_filled_in_and_lists_not_copied():
    diagonal = [0.0, 1.0]
    checked = CONFIG.check({"system": {"diagonal": diagonal}})
    assert checked["system"]["diagonal"] is diagonal
    assert checked["state"] == {"thermal_beta": 1.0}
    assert checked["probe"] == ProbeConfig(0.0, 1.0, 1.0, Ideal())
    assert checked["sampling"] == {"n": 1000, "seed": 0, "detector_bin": 0.0}
    assert checked["thermo"]["beta_grid"].tobytes() == thermo.default_beta_grid().tobytes()
    assert checked["quench"] is checked["overlap"] is checked["sweep"] is None


@pytest.mark.parametrize("command, key, cap, items, config", [
    ("thermo", "thermo.beta_grid", thermo.MAX_BETA_GRID, "numbers",
     lambda grid: dict(QUBIT, thermo={"beta_grid": grid})),
    ("sweep", "sweep.values", thermo.MAX_BETA_GRID, "numbers",
     lambda grid: dict(QUBIT, sweep={"kind": "beta", "values": grid})),
    ("sweep", "sweep.values", MAX_LAMBDA_VALUES, "finite numbers",
     lambda grid: {"sweep": {"kind": "lambda", "values": grid}}),
], ids=["beta-grid", "beta-sweep", "lambda-sweep"])
def test_list_caps(tmp_path, monkeypatch, command, key, cap, items, config):
    """A list at its cap passes the walker; one more value exits 2 before any work."""
    section, name = key.split(".")
    assert len(CONFIG.check(config([1.0] * cap))[section][name]) == cap
    no_work(monkeypatch)
    code, text, err = run(tmp_path, command, config([1.0] * (cap + 1)))
    assert (code, text) == (EXIT_CONFIG, "")
    assert err == (f"config error: {key} must be a list of 1 to {cap} {items}, "
                   "got [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, ...]\n")


def test_lambda_sweep_at_its_cap_runs(tmp_path):
    values = np.linspace(0.1, 2.0, MAX_LAMBDA_VALUES).tolist()
    code, text, err = run(tmp_path, "sweep", {"sweep": {"kind": "lambda", "n_atoms": 2,
                                                        "lambda_ref": 1.0, "values": values}})
    assert (code, err) == (0, "")
    assert len(text.splitlines()) == 2 + MAX_LAMBDA_VALUES


def test_record_from_a_misspelt_config_exits_2(tmp_path):
    """``sample --config <record>`` checks the record's ``# config=`` line like any config."""
    record = tmp_path / "old.txt"
    record.write_text("# config=" + json.dumps(dict(QUBIT, sampling={"n": 10, "seeed": 1}))
                      + "\n# seed=0\n# detector_bin=0.0\n# columns=p_bits\n3ff0000000000000\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sample", "--config", str(record), "--out", str(tmp_path / "new.txt")])
    assert code == EXIT_CONFIG
    assert err.getvalue() == ("config error: sampling has unknown key 'seeed'; known keys: "
                              "detector_bin, n, seed\n")


def test_quench_walks_its_matrix_literal_once(tmp_path, monkeypatch):
    """The table reads a matrix literal to its ndarray, so no command checks it again."""
    entries = MATRIX.keys["entries"]
    walks = []
    monkeypatch.setitem(MATRIX.keys, "entries",
                        entries._replace(ok=lambda v: walks.append(v) or entries.ok(v)))
    system2 = {"matrix": {"dim": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}}
    code, _, err = run(tmp_path, "quench", dict(QUBIT, quench={"system2": system2}))
    assert (code, err) == (0, "")
    assert walks == [system2["matrix"]["entries"]]


def test_matrix_literal_has_the_bits_of_np_array():
    """The pairs convert in one ``np.fromiter`` to the bits ``np.array`` gives,
    for a complex pair and for integers above 2**53, which float64 rounds."""
    entries = [[2 ** 53 + 1, 0.0], [0.5, -0.25], [0.5, 0.25], [-(2 ** 70) - 3, 1e-300]]
    matrix = MATRIX.check({"dim": 2, "entries": entries})
    expected = np.array(entries, dtype=float).view(complex).reshape(2, 2)
    assert matrix.dtype == complex and matrix.shape == (2, 2)
    assert matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("g_tau", [1e-200, 1e200])
def test_g_tau_beyond_float64_exits_2_before_any_work(tmp_path, monkeypatch, g_tau):
    """g and tau are each fine, but their product under- or overflows float64."""
    message = (f"probe g*tau = {g_tau!r}*{g_tau!r} must be a finite number > 0, "
               f"got {g_tau * g_tau!r}")
    config = dict(QUBIT, probe={"g": g_tau, "tau": g_tau, "mode": "ideal"})
    record = tmp_path / "rec.txt"
    record.write_text("# probe=" + json.dumps(config["probe"])
                      + "\n# columns=p_bits\n3ff0000000000000\n")
    no_work(monkeypatch)
    assert run(tmp_path, "sample", config) == (EXIT_CONFIG, "", f"config error: {message}\n")
    # the record's own probe header is refused before its body is read

    def read_body(*args, **kwargs):
        raise AssertionError("the record body was read")
    monkeypatch.setattr(cli, "read_record", serialize.read_record)
    monkeypatch.setattr(cli.reconstruct, "reconstruct_blocks", read_body)
    assert run(tmp_path, "reconstruct", QUBIT, ["--record", str(record)]) == (
        EXIT_CONFIG, "", f"config error: bad record probe header: {message}\n")


def test_min_mass_outside_0_1_exits_2_before_the_record_is_read(tmp_path, monkeypatch):
    no_work(monkeypatch)
    config = dict(QUBIT, reconstruct={"min_mass": 2})
    assert run(tmp_path, "reconstruct", config, ["--record", str(tmp_path / "none.txt")]) == (
        EXIT_CONFIG, "", "config error: reconstruct.min_mass must be a number in (0, 1), got 2\n")


@pytest.mark.parametrize("command", ["reconstruct", "thermo"])
@pytest.mark.parametrize("n, default", [(3, "3.33333"), (10, "1")])
def test_default_min_mass_on_a_short_record_names_the_sample_count(tmp_path, command, n,
                                                                   default):
    """No min_mass is given, so the message names the record's size, not the key."""
    code, text, err = run(tmp_path, "sample", dict(QUBIT, sampling={"n": n}))
    assert (code, err) == (0, "")
    record = tmp_path / "rec.txt"
    record.write_text(text)
    assert run(tmp_path, command, QUBIT, ["--record", str(record)]) == (
        EXIT_CONFIG, "", f"config error: the default min_mass 10/n is {default} for n = {n} "
                         "samples; it needs n > 10\n")


@pytest.mark.parametrize("state", [{"maximally_mixed": True}, {"ground_of": True},
                                   {"random_populations": 9}])
def test_states_are_populations_on_the_eigenbasis(tmp_path, monkeypatch, state):
    """Every state but an explicit matrix is a vector of populations on H's
    eigenbasis, so a diagonal system needs no eigensolve and no PSD check."""
    def fail(*args, **kwargs):
        raise AssertionError("dense linear algebra on a diagonal system")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    d = 8
    code, text, err = run(tmp_path, "spectrum", {"system": {"diagonal": list(range(d))},
                                                 "state": state})
    assert (code, err) == (0, "")
    populations = [float(line.split()[1]) for line in text.splitlines()[2:]]
    if "maximally_mixed" in state:
        assert populations == [1 / d] * d
    elif "ground_of" in state:
        assert populations == [1.0] + [0.0] * (d - 1)
    else:
        p = np.random.default_rng(9).random(d)
        assert populations == (p / p.sum()).tolist()


def test_maximally_mixed_spans_the_float_range(tmp_path):
    """1/d on every line, with no Gibbs weight exp(-0 (E - E_min)) to overflow."""
    code, text, err = run(tmp_path, "spectrum", {"system": {"diagonal": [-1e308, 1e308]},
                                                 "state": {"maximally_mixed": True}})
    assert (code, err) == (0, "")
    assert text.splitlines()[2:] == ["-1e+308 0.5 1", "1e+308 0.5 1"]


# -- fuzz harness ----------------------------------------------------------------

MATRIX_2 = {"dim": 2, "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}
FUZZ_BASES = [
    {"system": {"diagonal": [0.0, 1.0, 2.5]},
     "state": {"thermal_beta": 1.0},
     "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "bin", "L": 0.1}},
     "sampling": {"n": 400, "seed": 3, "detector_bin": 0.0},
     "reconstruct": {"bin_width": 0.01, "min_mass": 0.01},
     "thermo": {"beta_grid": [0.5, 1.0], "line0": 0, "line1": 1, "anchor": 0, "anchor_g": 1},
     "quench": {"system2": {"diagonal": [1.0, 0.0, 2.0]}, "beta": 1.0},
     "overlap": {"system_b": {"diagonal": [0.0, 2.0, 3.0]}},
     "sweep": {"kind": "beta", "values": [0.5, 2.0]},
     "merge_tol": 1e-8},
    {"system": {"model": "dicke", "n_atoms": 3},
     "state": {"random_populations": 5},
     "probe": {"mode": {"kind": "squeezed", "s": 20.0}},
     "sampling": {"n": 400, "seed": 4, "detector_bin": 0.05},
     "thermo": {"beta_grid": {"lo": 0.5, "hi": 2.0, "num": 3}},
     "quench": {"system2": {"model": "dicke", "n_atoms": 3}, "beta": 0.5},
     "overlap": {"system_b": {"model": "dicke", "n_atoms": 3}},
     "sweep": {"kind": "lambda", "family": "dicke", "n_atoms": 2, "lambda_ref": 1.0,
               "values": [0.5, 1.5]}},
    {"system": {"matrix": MATRIX_2},
     "state": {"maximally_mixed": True},
     "probe": {"mode": "ideal"},
     "sampling": {"n": 200},
     "overlap": {"system_b": {"model": "rabi", "n_sites": 1}},
     "sweep": {"kind": "lambda", "family": "linear", "values": [0.0, 1.0],
               "base": {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]},
               "coupling": MATRIX_2}},
    {"system": {"model": "rabi", "n_sites": 2},
     "state": {"ground_of": True},
     "quench": {"system2": {"diagonal": [0.0, 1.0, 2.0, 3.0]}}},
    {"system": {"diagonal": [0.0, 1.0]},
     "state": {"matrix": {"dim": 2, "entries": [[0.7, 0.0], [0.0, 0.0], [0.0, 0.0], [0.3, 0.0]]}},
     "thermo": {"beta_grid": {"num": 2}}},
]
# values of the wrong type, non-finite numbers, huge or negative integers,
# and empty or nested containers
REPLACEMENTS = ["x", "", True, False, None, [], {}, [[]], [[1.0, 2.0]], [1.0, "x"],
                {"zz": 1}, 0, -1, 2.5, -(10 ** 30), 10 ** 30, 10 ** 400, 1e308,
                math.nan, math.inf, -math.inf]
COMMANDS = ["spectrum", "sample", "reconstruct", "thermo", "thermo-record", "quench",
            "overlap", "sweep"]


def nodes(rule, value, path=()):
    """(path, rule, value) of the config and of each value in it, walked along
    the table: a table's rules follow the variants its tags name."""
    yield path, rule, value
    if isinstance(rule, Table) and isinstance(value, dict):
        for key, sub in rule.rules(value, "").items():
            if key in value:
                yield from nodes(sub, value[key], path + (key,))


def mutated(config, path, change):
    """A deep copy of ``config`` with ``change`` applied to the value at ``path``."""
    config = json.loads(json.dumps(config))
    if not path:
        return change(config)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = change(parent[path[-1]])
    return config


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A work directory with a record drawn from the first base config."""
    work = tmp_path_factory.mktemp("config-fuzz")
    (work / "base.json").write_text(json.dumps(FUZZ_BASES[0]))
    assert main(["sample", "--config", str(work / "base.json"),
                 "--out", str(work / "rec.txt")]) == 0
    return work


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_0_2_3_or_4(fuzz_dir, data):
    """One mutation drawn from the table, on a small valid config, on every
    subcommand: the CLI returns an exit code and lets no exception escape."""
    base = data.draw(st.sampled_from(FUZZ_BASES))
    walked = list(nodes(CONFIG, base))
    kind = data.draw(st.sampled_from(["unknown-key", "two-alternatives", "replace", "item"]))
    named = []
    if kind == "unknown-key":
        path, rule, value = data.draw(st.sampled_from(
            [node for node in walked if isinstance(node[1], Table) and isinstance(node[2], dict)]))
        key = data.draw(st.sampled_from([*rule.rules(value, ""), "zz"])) + "_"
        config, named = mutated(base, path, lambda v: dict(v, **{key: 1.0})), [key]
    elif kind == "two-alternatives":
        path, rule, value = data.draw(st.sampled_from(
            [node for node in walked if isinstance(node[1], Table) and node[1].one_of]))
        key = data.draw(st.sampled_from([k for k in rule.keys if k not in value]))
        config = mutated(base, path, lambda v: dict(v, **{key: True}))
        named = [k for k in rule.keys if k in value or k == key]
    elif kind == "replace":
        path = data.draw(st.sampled_from([node[0] for node in walked]))
        new = data.draw(st.sampled_from(REPLACEMENTS))
        config = mutated(base, path, lambda v: new)
    else:
        path = data.draw(st.sampled_from(
            [node[0] for node in walked if isinstance(node[2], list)]))
        new = data.draw(st.sampled_from(REPLACEMENTS))
        config = mutated(base, path, lambda v: [new, *v[1:]])
    command = data.draw(st.sampled_from(COMMANDS))

    (fuzz_dir / "config.json").write_text(json.dumps(config))
    out = fuzz_dir / "out.txt"
    out.unlink(missing_ok=True)
    argv = [command.split("-")[0], "--config", str(fuzz_dir / "config.json"), "--out", str(out)]
    if command in ("reconstruct", "thermo-record"):
        argv += ["--record", str(fuzz_dir / "rec.txt")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert out.exists() == (code == 0) or command == "sample", err.getvalue()
    if named:
        # an unknown key or a second alternative is always a config error naming it
        assert code == EXIT_CONFIG
        assert all(repr(key) in err.getvalue() for key in named[:2]), err.getvalue()
