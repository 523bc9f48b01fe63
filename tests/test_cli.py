import json
import os
import subprocess
import sys
import time
from math import comb

import numpy as np
import pytest

import qumode_probe
from qumode_probe import models, thermo
from qumode_probe.cli import EXIT_CONFIG, EXIT_NUMERICAL, main
from qumode_probe.operators import DIMENSION_CAP, SystemState, spectrum_of


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, config, extra=None, out_name="out.txt"):
    out = tmp_path / out_name
    argv = [command, "--config", write_config(tmp_path, config, f"{out_name}.json"),
            "--out", str(out)]
    if extra:
        argv.extend(extra)
    code = main(argv)
    text = out.read_text() if out.exists() else ""
    return code, text


def parse_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].replace(",", " ").split()
    rows = [dict(zip(header, map(float, l.replace(",", " ").split())))
            for l in lines[1:]]
    return header, rows


QUBIT = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0}}


class TestSpectrumCommand:
    def test_thermal_qubit(self, tmp_path):
        code, text = run(tmp_path, "spectrum", QUBIT)
        assert code == 0
        _, rows = parse_rows(text)
        assert [r["E"] for r in rows] == [0.0, 1.0]
        z = 1 + np.exp(-1.0)
        assert rows[0]["P"] == pytest.approx(1 / z)
        assert rows[1]["P"] == pytest.approx(np.exp(-1.0) / z)

    def test_model_system(self, tmp_path):
        config = {"system": {"model": "rabi", "n_sites": 2},
                  "state": {"maximally_mixed": True}}
        code, text = run(tmp_path, "spectrum", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert [r["E"] for r in rows] == pytest.approx([-2.0, 0.0, 2.0], abs=1e-12)
        assert [r["g"] for r in rows] == [1.0, 2.0, 1.0]

    def test_dimension_cap(self, tmp_path):
        start = time.monotonic()
        config = {"system": {"model": "rabi", "n_sites": 10},
                  "state": {"thermal_beta": 1.0}}
        code, text = run(tmp_path, "spectrum", config)
        elapsed = time.monotonic() - start
        assert code == 0
        _, rows = parse_rows(text)
        assert 2 ** 10 == DIMENSION_CAP
        assert [r["E"] for r in rows] == pytest.approx(np.arange(-10.0, 11.0, 2.0), abs=1e-9)
        assert [r["g"] for r in rows] == [comb(10, k) for k in range(11)]
        weights = np.array([comb(10, k) * np.exp(10.0 - 2 * k) for k in range(11)])
        assert [r["P"] for r in rows] == pytest.approx(weights / weights.sum(), rel=1e-9, abs=1e-15)
        assert elapsed < 60.0

    def test_csv_format(self, tmp_path):
        code, text = run(tmp_path, "spectrum", QUBIT, extra=["--format", "csv"])
        assert code == 0
        assert "E,P,g" in text


class TestSampleAndReconstruct:
    def config(self):
        return {
            "system": {"diagonal": [0.0, 1.0]},
            "state": {"thermal_beta": 1.0},
            "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0,
                      "mode": {"kind": "squeezed", "s": 20.0}},
            "sampling": {"n": 50_000, "seed": 5},
        }

    def test_pipeline_recovers_lines(self, tmp_path):
        code, _ = run(tmp_path, "sample", self.config(), out_name="rec.txt")
        assert code == 0
        code, text = run(tmp_path, "reconstruct", self.config(),
                         extra=["--record", str(tmp_path / "rec.txt")])
        assert code == 0
        _, rows = parse_rows(text)
        assert len(rows) == 2
        assert rows[0]["E_hat"] == pytest.approx(0.0, abs=0.01)
        assert rows[1]["E_hat"] == pytest.approx(1.0, abs=0.01)
        z = 1 + np.exp(-1.0)
        assert rows[0]["P_hat"] == pytest.approx(1 / z, abs=0.01)

    def test_byte_identical_reruns(self, tmp_path):
        code1, text1 = run(tmp_path, "sample", self.config(), out_name="a.txt")
        code2, text2 = run(tmp_path, "sample", self.config(), out_name="b.txt")
        assert code1 == code2 == 0
        assert text1 == text2

    def test_seed_override_changes_samples(self, tmp_path):
        _, text1 = run(tmp_path, "sample", self.config(), out_name="a.txt")
        _, text2 = run(tmp_path, "sample", self.config(),
                       extra=["--seed", "99"], out_name="b.txt")
        assert text1 != text2
        assert "# seed=99" in text2

    def test_squeezing_controls_spread(self, tmp_path):
        def spread(s):
            config = self.config()
            config["probe"]["mode"]["s"] = s
            config["sampling"]["n"] = 20_000
            code, text = run(tmp_path, "sample", config, out_name=f"s{s}.txt")
            assert code == 0
            samples = np.array([float(l.split()[1]) for l in text.splitlines()
                                if l and not l.startswith("#")])
            # spread around the dominant (ground) line at p = 0
            near = samples[np.abs(samples) < 0.45]
            return near.std()

        ratio = spread(1.0) / spread(100.0)
        assert ratio > 10.0

    def test_rerun_from_report_header(self, tmp_path):
        code, text = run(tmp_path, "sample", self.config(), out_name="a.txt")
        assert code == 0
        header_path = tmp_path / "from_header.txt"
        header_path.write_text(text)
        out = tmp_path / "b.txt"
        code = main(["sample", "--config", str(header_path), "--out", str(out)])
        assert code == 0
        assert out.read_text() == text


class TestThermoCommand:
    def test_exact_spectrum_beta(self, tmp_path):
        config = dict(QUBIT)
        config["thermo"] = {"beta_grid": [0.5, 1.0, 2.0]}
        code, text = run(tmp_path, "thermo", config)
        assert code == 0
        assert "# beta_hat=1.0" in text
        _, rows = parse_rows(text)
        assert len(rows) == 3
        for row in rows:
            b = row["beta"]
            assert row["Z"] == pytest.approx(1 + np.exp(-b))
            assert row["F"] == pytest.approx(-np.log(1 + np.exp(-b)) / b)
            assert row["S"] >= 0.0

    def test_from_record(self, tmp_path):
        config = {
            "system": {"diagonal": [0.0, 1.0]},
            "state": {"thermal_beta": 0.8},
            "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0,
                      "mode": {"kind": "squeezed", "s": 30.0}},
            "sampling": {"n": 200_000, "seed": 2},
            "thermo": {"beta_grid": [1.0]},
        }
        code, _ = run(tmp_path, "sample", config, out_name="rec.txt")
        assert code == 0
        code, text = run(tmp_path, "thermo", config,
                         extra=["--record", str(tmp_path / "rec.txt")])
        assert code == 0
        beta_hat = float(text.split("# beta_hat=")[1].strip())
        assert beta_hat == pytest.approx(0.8, abs=0.05)


class TestQuenchCommand:
    def test_sigma_z_to_sigma_x(self, tmp_path):
        config = {
            "system": {"diagonal": [-1.0, 1.0]},
            "quench": {"system2": {"matrix": {
                "dim": 2,
                "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            }}, "beta": 1.0},
        }
        code, text = run(tmp_path, "quench", config)
        assert code == 0
        _, rows = parse_rows(text)
        # same spectrum before and after, so dF = 0 and <W> = tanh(1)
        assert rows[0]["dF"] == pytest.approx(0.0, abs=1e-12)
        assert rows[0]["W_avg"] == pytest.approx(np.tanh(1.0))
        assert rows[0]["W_irr"] == pytest.approx(np.tanh(1.0))
        assert rows[0]["W_irr"] >= 0.0


class TestOverlapCommand:
    def test_orthogonal_bases(self, tmp_path):
        config = {
            "system": {"diagonal": [-1.0, 1.0]},
            "overlap": {"system_b": {"matrix": {
                "dim": 2,
                "entries": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            }}},
        }
        code, text = run(tmp_path, "overlap", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert rows[0]["P0"] == pytest.approx(0.5)

    def test_identical_systems(self, tmp_path):
        config = {"system": {"diagonal": [0.0, 1.0]},
                  "overlap": {"system_b": {"diagonal": [0.0, 2.0]}}}
        code, text = run(tmp_path, "overlap", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert rows[0]["P0"] == pytest.approx(1.0)


class TestSweepCommand:
    def test_beta_sweep(self, tmp_path):
        config = {"system": {"diagonal": [0.0, 1.0]},
                  "sweep": {"kind": "beta", "values": [0.5, 1.0, 2.0]}}
        code, text = run(tmp_path, "sweep", config)
        assert code == 0
        _, rows = parse_rows(text)
        for row in rows:
            assert row["Z"] == pytest.approx(1 + np.exp(-row["beta"]))

    def test_beta_sweep_matches_the_thermo_loop(self, tmp_path):
        # rabi n_sites=2: E = -2, 0, 2 with g = 1, 2, 1
        config = {"system": {"model": "rabi", "n_sites": 2},
                  "sweep": {"kind": "beta", "values": [0.1, 0.5, 1.0, 3.7, 10.0]}}
        code, text = run(tmp_path, "sweep", config)
        assert code == 0
        spec = spectrum_of(SystemState(np.eye(4) / 4), models.rabi_interaction(2))
        assert [line.g for line in spec.lines] == [1, 2, 1]
        lines = ["# config=" + json.dumps(config, sort_keys=True), "beta Z F C S"]
        for b in config["sweep"]["values"]:
            z = float(np.exp(thermo.log_partition_function(spec, b)))
            row = (float(b), z, thermo.free_energy(z, b),
                   thermo.heat_capacity(spec, b), thermo.entropy(spec, b))
            lines.append(" ".join(repr(float(v)) for v in row))
        assert text == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_beta_sweep_rejects_non_positive_beta(self, tmp_path, capsys, beta):
        config = {"system": {"diagonal": [0.0, 1.0]},
                  "sweep": {"kind": "beta", "values": [1.0, beta]}}
        code, text = run(tmp_path, "sweep", config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert "requires beta > 0" in capsys.readouterr().err

    def test_lambda_sweep_without_values(self, tmp_path, capsys):
        code, _ = run(tmp_path, "sweep", {"sweep": {"kind": "lambda"}})
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'values'" in err

    def test_lambda_sweep_overlap_decays(self, tmp_path):
        config = {"sweep": {"kind": "lambda", "family": "dicke", "n_atoms": 4,
                            "lambda_ref": 1.0, "values": [1.0, 2.0, 3.0]}}
        code, text = run(tmp_path, "sweep", config)
        assert code == 0
        _, rows = parse_rows(text)
        # the family only rescales the coupling, so ground states coincide
        assert all(row["P0"] == pytest.approx(1.0) for row in rows)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_system_section(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", {"state": {"thermal_beta": 1.0}})
        assert code == 2

    def test_reconstruct_without_record(self, tmp_path, capsys):
        config = dict(QUBIT)
        path = write_config(tmp_path, config)
        assert main(["reconstruct", "--config", path]) == 2

    def test_degenerate_ground_state_contract(self, tmp_path, capsys):
        config = {"system": {"diagonal": [0.0, 0.0, 1.0]},
                  "overlap": {"system_b": {"diagonal": [0.0, 1.0, 2.0]}}}
        code, _ = run(tmp_path, "overlap", config)
        assert code == 4
        assert "contract violation" in capsys.readouterr().err

    def test_non_finite_system_matrix(self, tmp_path, capsys):
        config = {"system": {"diagonal": [0.0, float("nan")]}}
        code, _ = run(tmp_path, "spectrum", config)
        assert code == EXIT_CONFIG
        assert "matrix has non-finite entries" in capsys.readouterr().err

    def test_non_finite_state_matrix(self, tmp_path, capsys):
        entries = [[float("inf"), 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        config = {"system": {"diagonal": [0.0, 1.0]},
                  "state": {"matrix": {"dim": 2, "entries": entries}}}
        code, _ = run(tmp_path, "spectrum", config)
        assert code == EXIT_CONFIG
        assert "matrix has non-finite entries" in capsys.readouterr().err

    def test_lapack_failure_is_numerical(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, _ = run(tmp_path, "spectrum", QUBIT)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_record_sample(self, tmp_path, capsys, recwarn, command, bad):
        record = tmp_path / "rec.txt"
        record.write_text("# seed=0\n# detector_bin=0.0\n# columns=index p\n"
                          f"0 0.0\n1 {bad}\n2 1.0\n")
        code, _ = run(tmp_path, command, QUBIT, extra=["--record", str(record)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: record has non-finite samples\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("matrix, message", [
        ({"dim": 0, "entries": []}, "matrix dim must be at least 1, got 0"),
        ({"dim": -1, "entries": [[1.0, 0.0]]}, "matrix dim must be at least 1, got -1"),
        ({"dim": 1, "entries": [[1.0]]}, "matrix entries must be [re, im] pairs"),
        ({"dim": 1, "entries": [1.0]}, "matrix entries must be [re, im] pairs"),
        ({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], 3, [1.0, 0.0]]},
         "matrix entries must be [re, im] pairs"),
        ({"dim": 1, "entries": [[1.0, 0.0, 0.0]]}, "matrix entries must be [re, im] pairs"),
        ({"dim": 2, "entries": [[1.0, 0.0]]}, "expected 4 matrix entries, got 1"),
        ({"entries": [[1.0, 0.0]]}, "matrix literal must be {dim, entries"),
    ])
    @pytest.mark.parametrize("section", ["system", "state", "linear_family"])
    def test_bad_matrix_literal(self, tmp_path, capsys, matrix, message, section):
        identity = {"dim": 1, "entries": [[1.0, 0.0]]}
        if section == "system":
            config, command = {"system": {"matrix": matrix}}, "spectrum"
        elif section == "state":
            config = {"system": {"diagonal": [0.0]}, "state": {"matrix": matrix}}
            command = "spectrum"
        else:
            config = {"sweep": {"kind": "lambda", "family": "linear", "values": [0.0],
                                "base": identity, "coupling": matrix}}
            command = "sweep"
        code, _ = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("key", ["line0", "line1"])
    @pytest.mark.parametrize("index", [2, 5, -1, -3])
    def test_thermo_line_index_out_of_range(self, tmp_path, capsys, key, index):
        config = dict(QUBIT, thermo={key: index, "beta_grid": [1.0]})
        code, text = run(tmp_path, "thermo", config)
        assert code == EXIT_CONFIG
        assert text == ""
        err = capsys.readouterr().err
        assert err == f"config error: thermo.{key} index {index} out of range for 2 lines\n"

    @pytest.mark.parametrize("command, config, key", [
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": [[1, 2], [3, 4]]}},
                     "sweep.values", id="beta-sweep-2d"),
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": 1.0}},
                     "sweep.values", id="beta-sweep-scalar"),
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": []}},
                     "sweep.values", id="beta-sweep-empty"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": [[1, 2]]}),
                     "thermo.beta_grid", id="thermo-2d"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": [[1], [2, 3]]}),
                     "thermo.beta_grid", id="thermo-ragged"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": "1.0"}),
                     "thermo.beta_grid", id="thermo-string"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": 1.0}},
                     "sweep.values", id="lambda-sweep-scalar"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": [[1.0, 2.0]]}},
                     "sweep.values", id="lambda-sweep-2d"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": []}},
                     "sweep.values", id="lambda-sweep-empty"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": None}},
                     "sweep.values", id="lambda-sweep-null"),
    ])
    def test_grid_must_be_a_flat_list(self, tmp_path, capsys, command, config, key):
        code, text = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == (
            f"config error: {key} must be a non-empty list of numbers\n")

    def test_non_thermal_populations_contract(self, tmp_path, capsys):
        config = {"system": {"diagonal": [0.0, 0.5, 3.0]},
                  "state": {"random_populations": 12},
                  "thermo": {"beta_grid": [1.0]}}
        code, _ = run(tmp_path, "thermo", config)
        assert code == 4


def test_cli_import_leaves_scipy_signal_unloaded():
    """Every CLI call pays the package import; scipy.signal alone costs most of it."""
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import qumode_probe.cli, sys; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


SCIPY_PROBE = """
import json, sys
from qumode_probe import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{name} failed")
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_calls_leave_scipy_unloaded_unless_a_squeezed_probe_is_sampled(tmp_path):
    """Only sampling or detector-binning a squeezed probe needs scipy.special."""
    two_lines = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0},
                 "sampling": {"n": 20_000, "seed": 3}, "thermo": {"beta_grid": [1.0]}}
    bin_probe = dict(two_lines, probe={"p0": 0.0, "g": 1.0, "tau": 1.0,
                                       "mode": {"kind": "bin", "L": 0.1}})
    ideal_binned = dict(two_lines, probe={"p0": 0.0, "g": 1.0, "tau": 1.0,
                                          "mode": {"kind": "ideal"}},
                        sampling={"n": 1000, "seed": 3, "detector_bin": 0.05})
    squeezed = dict(two_lines, probe={"p0": 0.0, "g": 1.0, "tau": 1.0,
                                      "mode": {"kind": "squeezed", "s": 20.0}},
                    sampling={"n": 1000, "seed": 3})
    quench = dict(two_lines, quench={"system2": {"diagonal": [1.0, 0.0]}})
    overlap = dict(two_lines, overlap={"system_b": {"diagonal": [0.0, 2.0]}})
    record = ["--record", str(tmp_path / "rec.txt")]
    steps = [
        ("spectrum", two_lines, []),
        ("sample", bin_probe, []),
        ("sample-detector-binned", ideal_binned, []),
        ("reconstruct", bin_probe, record),
        ("thermo", two_lines, []),
        ("thermo-record", bin_probe, record),
        ("quench", quench, []),
        ("overlap", overlap, []),
        ("sample-squeezed", squeezed, []),
    ]
    argvs = []
    for name, config, extra in steps:
        out = tmp_path / ("rec.txt" if name == "sample" else f"{name}.txt")
        argvs.append((name, [name.split("-")[0], "--out", str(out), "--config",
                             write_config(tmp_path, config, f"{name}.json"), *extra]))
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    squeezed_modules = loaded.pop("sample-squeezed")
    assert loaded == {name: [] for name in loaded}
    assert "scipy.special" in squeezed_modules
