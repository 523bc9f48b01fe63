import errno
import hashlib
import io
import json
import os
import reprlib
import subprocess
import sys
import time
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qumode_probe
from qumode_probe import cli, models, thermo
from qumode_probe.cli import EXIT_CONFIG, EXIT_NUMERICAL, SAMPLE_CHUNK, main
from qumode_probe.operators import (
    DIMENSION_CAP,
    HermitianOperator,
    SystemState,
    spectrum_of,
    thermal_state,
)
from qumode_probe.probe import distribution_for
from qumode_probe.reconstruct import detect_peaks, histogram
from qumode_probe.sampling import MAX_SAMPLES, sample_measurements
from qumode_probe.serialize import probe_from_dict, record_from_text, record_to_text


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


def fresh_cli(tmp_path, command, config):
    """One CLI call in a fresh interpreter, writing to out.txt, so numpy's
    warnings reach its stderr."""
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "qumode_probe.cli", command, "--config",
         write_config(tmp_path, config), "--out", str(tmp_path / "out.txt")],
        env=env, capture_output=True, text=True, timeout=120)


def parse_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].replace(",", " ").split()
    rows = [dict(zip(header, map(float, l.replace(",", " ").split())))
            for l in lines[1:]]
    return header, rows


QUBIT = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0}}
ANY_INDEX = f"an integer from {-sys.maxsize} to {sys.maxsize}"
POSITIVE_INT = f"an integer from 1 to {sys.maxsize}"


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

    def test_symmetrising_a_huge_entry_does_not_overflow(self, tmp_path):
        """a + a^H overflows at 1e308, where 0.5 a + 0.5 a^H does not."""
        config = {"system": {"matrix": {"dim": 2,
                                        "entries": [[1e308, 0], [1, 0], [1, 0], [0, 0]]}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "spectrum", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert rows[0]["E"] == pytest.approx(0.0, abs=1e-300)
        assert [(r["P"], r["g"]) for r in rows] == [(1.0, 1), (0.0, 1)]
        assert rows[1]["E"] == 1e308

    def test_degenerate_line_near_float_max(self, tmp_path):
        """The mean of two 1e308 eigenvalues is 1e308, not an overflowed sum."""
        config = {"system": {"diagonal": [1e308, 1e308, 0.0]},
                  "state": {"maximally_mixed": True}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "spectrum", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert [(r["E"], r["g"]) for r in rows] == [(0.0, 1), (1e308, 2)]


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

    def test_ideal_probe_keeps_adjacent_bins_in_one_line(self, tmp_path):
        """An ideal probe's gap is one bin width, which rounding puts below about
        half of the adjacent bins' centre differences; each line stays whole."""
        config = {"system": {"diagonal": [0, 1]}, "state": {"thermal_beta": 0.5},
                  "probe": {"p0": 0.001, "mode": "ideal"},
                  "sampling": {"n": 20_000, "seed": 1, "detector_bin": 0.007}}
        code, _ = run(tmp_path, "sample", config, out_name="rec.txt")
        assert code == 0
        code, text = run(tmp_path, "reconstruct", config,
                         extra=["--record", str(tmp_path / "rec.txt")])
        assert code == 0
        _, rows = parse_rows(text)
        assert [row["E_hat"] for row in rows] == pytest.approx([0.0, 1.0], abs=0.007)
        assert sum(row["count"] for row in rows) == 20_000

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
            samples = record_from_text(text)[0].samples
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

    def test_record_lines_follow_the_reconstruct_section(self, tmp_path):
        """A min_mass above the top line's mass (0.09) leaves it out of Z, as it
        leaves it out of the reconstruct report."""
        config = dict(SQUEEZED_PAIR, system={"diagonal": [0.0, 1.0, 2.0]},
                      thermo={"beta_grid": [1.0]})
        code, _ = run(tmp_path, "sample", config, out_name="rec.txt")
        assert code == 0
        z = {}
        for min_mass in (None, 0.15):
            options = {} if min_mass is None else {"min_mass": min_mass}
            code, text = run(tmp_path, "thermo", dict(config, reconstruct=options),
                             extra=["--record", str(tmp_path / "rec.txt")])
            assert code == 0
            z[min_mass] = parse_rows(text)[1][0]["Z"]
        assert z[None] == pytest.approx(1 + np.exp(-1.0) + np.exp(-2.0), rel=0.05)
        assert z[0.15] == pytest.approx(1 + np.exp(-1.0), rel=0.05)

    def test_short_record_needs_min_mass(self, tmp_path, capsys):
        """The default min_mass 10/n needs n > 10; a given one reads any record."""
        record = record_file(tmp_path, b"0000000000000000\n0000000000000000\n"
                                       b"bff0000000000000\n")  # 0.0, 0.0, -1.0
        code, _ = run(tmp_path, "thermo", SQUEEZED_PAIR, extra=["--record", record])
        assert code == EXIT_CONFIG
        assert "it needs n > 10" in capsys.readouterr().err
        code, text = run(tmp_path, "thermo", dict(SQUEEZED_PAIR, reconstruct={"min_mass": 0.1}),
                         extra=["--record", record])
        assert code == 0
        # 2 samples at E = 0 and one at E = 1, each read at its bin's centre
        assert float(text.split("# beta_hat=")[1]) == pytest.approx(np.log(2.0), rel=0.01)


def ladder(e0, step, n, beta):
    """log Z, U and Var(E) of the n levels e0 + k step, each once."""
    x = beta * step
    log_z = -beta * e0 + np.log(np.expm1(-n * x) / np.expm1(-x))
    u = e0 - step * (np.exp(-x) / np.expm1(-x) - n * np.exp(-n * x) / np.expm1(-n * x))
    var = step ** 2 * (np.exp(-x) / np.expm1(-x) ** 2
                       - n ** 2 * np.exp(-n * x) / np.expm1(-n * x) ** 2)
    return log_z, u, var


class TestThermoOnLogZ:
    """Z overflows (Dicke-100) or underflows (E = 100, 200) in float64 here, and
    (E - U)^2 overflows on the lines of zero weight at E = 1e200 and 3e200."""

    @pytest.mark.parametrize("command", ["thermo", "sweep"])
    @pytest.mark.parametrize("system, thermal_beta, levels, betas", [
        pytest.param({"model": "dicke", "n_atoms": 100}, 1.0, (-50.0, 1.0, 101),
                     [15.0, 30.0, 100.0], id="dicke-100"),
        pytest.param({"diagonal": [100.0, 200.0]}, 1.0, (100.0, 100.0, 2), [10.0],
                     id="diagonal-100-200"),
        # exp(-beta 1e200) is 0.0, so the report is that of one level at 0; the
        # state is uniform, so thermo reads beta_hat = 0 from two nonzero lines
        pytest.param({"diagonal": [0.0, 1e200, 3e200]}, 0.0, (0.0, 1.0, 1),
                     [0.1, 1.0, 10.0], id="diagonal-0-1e200-3e200"),
    ])
    def test_finite_columns_and_quiet_stderr(self, tmp_path, command, system, thermal_beta,
                                             levels, betas):
        config = {"system": system, "state": {"thermal_beta": thermal_beta},
                  "thermo": {"beta_grid": betas}, "sweep": {"kind": "beta", "values": betas}}
        child = fresh_cli(tmp_path, command, config)
        assert (child.returncode, child.stderr) == (0, "")
        _, rows = parse_rows((tmp_path / "out.txt").read_text())
        assert [row["beta"] for row in rows] == betas
        for row in rows:
            b = row["beta"]
            log_z, u, var = ladder(*levels, b)
            assert np.isfinite([row["F"], row["C"], row["S"]]).all()
            assert row["F"] == pytest.approx(-log_z / b, rel=1e-12)
            assert row["C"] == pytest.approx(b ** 2 * var, rel=1e-9, abs=1e-300)
            assert row["S"] == pytest.approx(b * u + log_z, abs=1e-9)
        if system == {"diagonal": [100.0, 200.0]}:
            assert [(row["Z"], row["F"]) for row in rows] == [(0.0, 100.0)]
        if levels[2] == 1:  # one level: no variance, so C is exactly 0
            assert [row["C"] for row in rows] == [0.0] * len(betas)

    @pytest.mark.parametrize("command, config, expected", [
        pytest.param("sweep", {"system": {"diagonal": [1e200, 2e200]},
                               "sweep": {"kind": "beta", "values": [1e120]}},
                     {"beta": 1e120, "Z": 0.0, "F": 1e200, "C": 0.0, "S": 0.0},
                     id="sweep-diagonal-1e200"),
        # the Dicke ground energy is -1.5 an ulp out, as at any finite beta
        pytest.param("quench", {"system": {"model": "dicke", "n_atoms": 3},
                                "quench": {"system2": {"model": "rabi", "n_sites": 2},
                                           "beta": 1e308}},
                     {"W_avg": 1.5, "dF": -0.4999999999999998, "W_irr": 1.9999999999999998},
                     id="quench-dicke-rabi"),
    ])
    def test_free_energy_where_log_z_overflows(self, tmp_path, command, config, expected):
        """beta E_min overflows, so log Z is infinite; F = E_min - logsumexp / beta is not."""
        child = fresh_cli(tmp_path, command, config)
        assert (child.returncode, child.stderr) == (0, "")
        _, rows = parse_rows((tmp_path / "out.txt").read_text())
        assert rows == [expected]


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
        e, g = spec.energies, spec.degeneracies
        lines = ["# config=" + json.dumps(config, sort_keys=True), "beta Z F C S"]
        for b in config["sweep"]["values"]:
            log_z = thermo.log_partition_function(spec, b)
            w = np.exp(-b * (e - e.min())) * g
            w /= w.sum()
            u = np.sum(w * e)
            f = -log_z / b
            row = (b, np.exp(log_z), f, b ** 2 * np.sum(w * (e - u) ** 2), b * (u - f))
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

    @pytest.mark.parametrize("command, config", [
        pytest.param("thermo", '{"system": {"diagonal": [0.0, 1.0]}, '
                               '"thermo": {"beta_grid": [1.0, Infinity]}}', id="thermo-inf"),
        pytest.param("sweep", '{"system": {"diagonal": [0.0, 1.0]}, '
                              '"sweep": {"kind": "beta", "values": [1.0, 1e400]}}',
                     id="sweep-1e400"),
        pytest.param("thermo", '{"system": {"diagonal": [0.0, 1.0]}, "thermo": '
                               '{"beta_grid": {"lo": 1e300, "hi": 1e308, "num": 3}}}',
                     id="thermo-grid-1e300"),
    ])
    def test_beta_without_a_finite_square_exits_2(self, tmp_path, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(config)
        out = tmp_path / "out.txt"
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: thermo report requires beta <= {thermo.MAX_BETA!r} "
            "at every grid point, so that beta**2 is finite\n")

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


def test_exact_commands_read_merge_tol(tmp_path, capsys):
    """At merge_tol 0.1 the levels 0 and 0.05 are one line of g = 2 at 0.025, for
    spectrum, sample, thermo and a beta sweep alike, so thermo's line indices
    count spectrum's rows."""
    config = {"system": {"diagonal": [0.0, 0.05, 1.0]}, "state": {"maximally_mixed": True},
              "probe": {"mode": "ideal"}, "sampling": {"n": 50, "seed": 1},
              "thermo": {"line1": 2}, "sweep": {"kind": "beta", "values": [1.0]},
              "merge_tol": 0.1}
    code, text = run(tmp_path, "spectrum", config)
    assert code == 0
    assert [(row["E"], row["g"]) for row in parse_rows(text)[1]] == [(0.025, 2), (1.0, 1)]
    code, text = run(tmp_path, "sample", config)
    assert code == 0
    assert set(record_from_text(text)[0].samples.tolist()) == {-0.025, -1.0}
    assert run(tmp_path, "thermo", config, out_name="thermo.txt") == (EXIT_CONFIG, "")
    assert capsys.readouterr().err == (
        "config error: thermo.line1 index 2 out of range for 2 lines\n")
    code, text = run(tmp_path, "sweep", config)
    assert code == 0
    assert parse_rows(text)[1][0]["Z"] == pytest.approx(2 * np.exp(-0.025) + np.exp(-1.0))


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
        """Either system's ground state may be the degenerate one."""
        for system, system_b in (([0.0, 0.0, 1.0], [0.0, 1.0, 2.0]),
                                 ([0.0, 1.0, 2.0], [3.0, 1.0, 1.0])):
            config = {"system": {"diagonal": system},
                      "overlap": {"system_b": {"diagonal": system_b}}}
            code, _ = run(tmp_path, "overlap", config)
            assert code == 4
            assert capsys.readouterr().err == (
                "contract violation: ground-state gap 0 is within the resolution bound 1e-08\n")

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
        # sigma_x is not diagonal, so it goes to the LAPACK eigensolver
        code, _ = run(tmp_path, "spectrum", {"system": {"model": "rabi"}})
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_diagonal_system_needs_no_eigensolver(self, tmp_path, capsys, monkeypatch):
        """A diagonal system is decomposed by sorting its diagonal, so a failing
        LAPACK eigensolver changes no output."""
        energies = np.sort(np.random.default_rng(12).uniform(0.0, 100.0, DIMENSION_CAP))
        config = {"system": {"diagonal": energies.tolist()}, "state": {"thermal_beta": 0.02},
                  "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": {"kind": "bin", "L": 0.05}},
                  "sampling": {"n": 1000, "seed": 4},
                  "sweep": {"kind": "beta", "values": [0.01, 0.1, 1.0]}}
        commands = ["spectrum", "sample", "thermo", "sweep"]
        expected = [run(tmp_path, command, config) for command in commands]

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        for command, want in zip(commands, expected):
            assert run(tmp_path, command, config) == want, command
            assert want[0] == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("diagonal", [
        pytest.param([1.0, True], id="boolean"),
        pytest.param([[0.0, 1.0], [1.0, 0.0]], id="nested"),
        pytest.param([0.0, "1"], id="string"),
        pytest.param([0.0, None], id="null"),
        pytest.param(1.0, id="scalar"),
        pytest.param({"0": 1.0}, id="object"),
        pytest.param([0.0, 10 ** 400], id="integer-beyond-float64"),
        pytest.param([0.0] * (DIMENSION_CAP + 1), id="over-the-cap"),
    ])
    def test_bad_diagonal(self, tmp_path, capsys, diagonal):
        code, text = run(tmp_path, "spectrum", {"system": {"diagonal": diagonal}})
        assert code == EXIT_CONFIG
        assert text == ""
        # a long list is abbreviated in the message
        assert capsys.readouterr().err == (
            f"config error: system.diagonal must be a list of 1 to {DIMENSION_CAP} numbers, "
            f"got {reprlib.repr(diagonal)}\n")

    def test_integer_diagonal_entries_are_numbers(self, tmp_path):
        (code, text), (_, floats) = (run(tmp_path, "spectrum", {"system": {"diagonal": d}})
                                     for d in ([0, 1], [0.0, 1.0]))
        assert code == 0
        # the '# config=' header echoes each list as given
        assert text.splitlines()[1:] == floats.splitlines()[1:]

    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_record_sample(self, tmp_path, capsys, recwarn, command, bad):
        bits = {"nan": b"7ff8000000000000", "inf": b"7ff0000000000000"}[bad]
        record = record_file(tmp_path, b"0000000000000000\n" + bits + b"\n3ff0000000000000\n")
        code, _ = run(tmp_path, command, QUBIT, extra=["--record", record])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: record has non-finite samples\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("matrix, message", [
        pytest.param({"dim": 0, "entries": []},
                     "{key}.dim must be an integer from 1 to 1024, got 0",
                     id="matrix0-matrix dim must be at least 1, got 0"),
        pytest.param({"dim": -1, "entries": [[1.0, 0.0]]},
                     "{key}.dim must be an integer from 1 to 1024, got -1",
                     id="matrix1-matrix dim must be at least 1, got -1"),
        *(pytest.param(matrix, "{key}.entries must be a list of 1 to 1048576 [re, im] pairs of "
                       f"numbers, got {matrix['entries']}",
                       id=f"matrix{i}-matrix entries must be [re, im] pairs")
          for i, matrix in enumerate([
              {"dim": 1, "entries": [[1.0]]},
              {"dim": 1, "entries": [1.0]},
              {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], 3, [1.0, 0.0]]},
              {"dim": 1, "entries": [[1.0, 0.0, 0.0]]}], start=2)),
        pytest.param({"dim": 2, "entries": [[1.0, 0.0]]},
                     "{key}.entries must hold dim**2 = 4 pairs, got 1",
                     id="matrix6-expected 4 matrix entries, got 1"),
        pytest.param({"entries": [[1.0, 0.0]]}, "{key} requires 'dim'",
                     id="matrix7-matrix literal must be {dim, entries"),
        pytest.param({"dim": 2.5, "entries": [[1.0, 0.0]] * 4},
                     "{key}.dim must be an integer from 1 to 1024, got 2.5",
                     id="matrix8-matrix dim must be an integer, got 2.5"),
        pytest.param({"dim": True, "entries": [[1.0, 0.0]]},
                     "{key}.dim must be an integer from 1 to 1024, got True",
                     id="matrix9-matrix dim must be an integer, got True"),
    ])
    @pytest.mark.parametrize("section", ["system", "state", "linear_family"])
    def test_bad_matrix_literal(self, tmp_path, capsys, matrix, message, section):
        """The ids keep the names these cases had when the messages were worded
        without the key."""
        identity = {"dim": 1, "entries": [[1.0, 0.0]]}
        if section == "system":
            config, command, key = {"system": {"matrix": matrix}}, "spectrum", "system.matrix"
        elif section == "state":
            config = {"system": {"diagonal": [0.0]}, "state": {"matrix": matrix}}
            command, key = "spectrum", "state.matrix"
        else:
            config = {"sweep": {"kind": "lambda", "family": "linear", "values": [0.0],
                                "base": identity, "coupling": matrix}}
            command, key = "sweep", "sweep.coupling"
        code, text = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == f"config error: {message.format(key=key)}\n"

    @pytest.mark.parametrize("key", ["line0", "line1", "anchor"])
    @pytest.mark.parametrize("index", [2, 5, -1, -3])
    def test_thermo_line_index_out_of_range(self, tmp_path, capsys, key, index):
        """-1 is out of range too: it must not pick the last line."""
        config = dict(QUBIT, thermo={key: index, "beta_grid": [1.0]})
        code, text = run(tmp_path, "thermo", config)
        assert code == EXIT_CONFIG
        assert text == ""
        err = capsys.readouterr().err
        if key == "anchor":
            assert err == f"config error: anchor index {index} out of range\n"
        else:
            assert err == f"config error: thermo.{key} index {index} out of range for 2 lines\n"

    @pytest.mark.parametrize("command, config, key, cap, got", [
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": [[1, 2], [3, 4]]}},
                     "sweep.values", 100000, "[[1, 2], [3, 4]]", id="beta-sweep-2d"),
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": 1.0}},
                     "sweep.values", 100000, "1.0", id="beta-sweep-scalar"),
        pytest.param("sweep", {"system": {"diagonal": [0.0, 1.0]},
                               "sweep": {"kind": "beta", "values": []}},
                     "sweep.values", 100000, "[]", id="beta-sweep-empty"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": [[1, 2]]}),
                     "thermo.beta_grid", 100000, "[[1, 2]]", id="thermo-2d"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": [[1], [2, 3]]}),
                     "thermo.beta_grid", 100000, "[[1], [2, 3]]", id="thermo-ragged"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": "1.0"}),
                     "thermo.beta_grid", 100000, "'1.0'", id="thermo-string"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": 1.0}},
                     "sweep.values", "256 finite", "1.0", id="lambda-sweep-scalar"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": [[1.0, 2.0]]}},
                     "sweep.values", "256 finite", "[[1.0, 2.0]]", id="lambda-sweep-2d"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": []}},
                     "sweep.values", "256 finite", "[]", id="lambda-sweep-empty"),
        pytest.param("sweep", {"sweep": {"kind": "lambda", "values": None}},
                     "sweep.values", "256 finite", "None", id="lambda-sweep-null"),
    ])
    def test_grid_must_be_a_flat_list(self, tmp_path, capsys, command, config, key, cap, got):
        code, text = run(tmp_path, command, config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == (
            f"config error: {key} must be a list of 1 to {cap} numbers, got {got}\n")

    def test_empty_system(self, tmp_path, capsys):
        code, _ = run(tmp_path, "spectrum", {"system": {"diagonal": []}})
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: system.diagonal must be a list of 1 to 1024 numbers, got []\n")

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("sample", dict(QUBIT, sampling=[1]), "sampling must be an object",
                     id="sampling-list"),
        pytest.param("thermo", dict(QUBIT, thermo=[1]), "thermo must be an object",
                     id="thermo-list"),
        pytest.param("reconstruct", dict(QUBIT, reconstruct={"bin_width": "wide"}),
                     "reconstruct.bin_width must be a finite number > 0, got 'wide'",
                     id="bin-width-string"),
        pytest.param("reconstruct", dict(QUBIT, reconstruct={"bin_width": 0}),
                     "reconstruct.bin_width must be a finite number > 0, got 0",
                     id="bin-width-zero"),
        pytest.param("reconstruct", dict(QUBIT, reconstruct={"bin_width": float("inf")}),
                     "reconstruct.bin_width must be a finite number > 0, got inf",
                     id="bin-width-inf"),
    ])
    def test_mistyped_section_names_the_key(self, tmp_path, capsys, command, config, message):
        record = record_file(tmp_path, b"0000000000000000\n3ff0000000000000\n")  # 0.0, 1.0
        code, text = run(tmp_path, command, config, extra=["--seed", "3", "--record", record])
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("sample", dict(QUBIT, sampling={"n": 10, "detector_bin": [1]}),
                     "sampling.detector_bin must be nonnegative and finite, got [1]",
                     id="detector-bin"),
        *(pytest.param("thermo", dict(QUBIT, thermo={name: [1], "beta_grid": [1.0]}),
                       f"thermo.{name} must be {need}, got [1]", id=name)
          for name, need in (("line0", ANY_INDEX), ("line1", ANY_INDEX), ("anchor", ANY_INDEX),
                             ("anchor_g", POSITIVE_INT))),
        pytest.param("spectrum", dict(QUBIT, merge_tol=[1]),
                     "merge_tol must be nonnegative and finite, got [1]", id="merge-tol"),
        pytest.param("quench", dict(QUBIT, quench={"system2": {"diagonal": [1.0, 0.0]},
                                                   "beta": [1]}),
                     "quench.beta must be a finite number > 0, got [1]", id="quench-beta"),
        pytest.param("reconstruct", dict(QUBIT, reconstruct={"min_mass": "x"}),
                     "reconstruct.min_mass must be a number in (0, 1), got 'x'", id="min-mass"),
        pytest.param("sample", dict(QUBIT, sampling={"n": 10.9}),
                     "sampling.n must be an integer from 1 to 10000000, got 10.9",
                     id="n-fraction"),
        pytest.param("sample", dict(QUBIT, sampling={"n": 10, "seed": 1.7}),
                     f"sampling.seed must be an integer from 0 to {2 ** 128 - 1}, got 1.7",
                     id="seed-fraction"),
        pytest.param("sample", dict(QUBIT, sampling={"n": True}),
                     "sampling.n must be an integer from 1 to 10000000, got True", id="n-bool"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": {"num": 2.5}}),
                     "thermo.beta_grid.num must be an integer from 1 to 100000, got 2.5",
                     id="beta-grid-num-fraction"),
        *(pytest.param("thermo", dict(QUBIT, thermo={name: 0.5, "beta_grid": [1.0]}),
                       f"thermo.{name} must be {need}, got 0.5", id=f"{name}-fraction")
          for name, need in (("line0", ANY_INDEX), ("line1", ANY_INDEX), ("anchor", ANY_INDEX),
                             ("anchor_g", POSITIVE_INT))),
        pytest.param("thermo", dict(QUBIT, thermo={"line1": False, "beta_grid": [1.0]}),
                     f"thermo.line1 must be {ANY_INDEX}, got False", id="line1-bool"),
        pytest.param("spectrum", {"system": {"model": "dicke", "n_atoms": 2.9}},
                     f"system.n_atoms must be {POSITIVE_INT}, got 2.9", id="n-atoms-fraction"),
        pytest.param("spectrum", {"system": {"model": "dicke"}},
                     "system requires 'n_atoms'", id="n-atoms-missing"),
        pytest.param("spectrum", {"system": {"model": "rabi", "n_sites": 1.5}},
                     f"system.n_sites must be {POSITIVE_INT}, got 1.5", id="n-sites-fraction"),
        pytest.param("spectrum", {"system": {"diagonal": [0.0, 1.0]},
                                  "state": {"random_populations": 2.7}},
                     f"state.random_populations must be an integer from 0 to {2 ** 128 - 1}, "
                     "got 2.7", id="random-populations-fraction"),
        *(pytest.param("sweep", {"sweep": {"kind": "lambda", "family": "dicke",
                                           "values": [0.5], key: value}},
                       f"sweep.{key} must be {need}, got {value!r}", id=f"sweep-{key}-{label}")
          for key, value, need, label in (
              ("n_atoms", [1], POSITIVE_INT, "list"), ("n_atoms", 2.9, POSITIVE_INT, "fraction"),
              ("lambda_ref", [1], "a finite number", "list"),
              ("lambda_ref", float("nan"), "a finite number", "nan"))),
        pytest.param("quench", dict(QUBIT, quench={"system2": {"diagonal": [1.0, 0.0]},
                                                   "beta": True}),
                     "quench.beta must be a finite number > 0, got True", id="quench-beta-bool"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": {"lo": True}}),
                     "thermo.beta_grid.lo must be a finite number > 0, got True",
                     id="beta-grid-lo-bool"),
        pytest.param("sample", dict(QUBIT, probe={"p0": True, "mode": "ideal"}),
                     "probe.p0 must be a finite number, got True", id="probe-p0-bool"),
        pytest.param("sample", dict(QUBIT, probe={"mode": {"kind": "bin", "L": True}}),
                     "probe.mode.L must be a finite number > 0, got True", id="probe-mode-L-bool"),
        pytest.param("spectrum", dict(QUBIT, state={"thermal_beta": True}),
                     "state.thermal_beta must be nonnegative and finite, got True",
                     id="thermal-beta-bool"),
    ])
    def test_mistyped_key_names_the_key(self, tmp_path, capsys, command, config, message):
        record = record_file(tmp_path, b"0000000000000000\n3ff0000000000000\n")  # 0.0, 1.0
        code, text = run(tmp_path, command, config, extra=["--record", record])
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("probe, message", [
        pytest.param({"p0": float("nan"), "mode": "ideal"},
                     "probe.p0 must be a finite number, got nan", id="p0-nan"),
        pytest.param({"g": float("inf"), "mode": "ideal"},
                     "probe.g must be a finite number > 0, got inf", id="g-inf"),
        pytest.param({"tau": float("inf"), "mode": "ideal"},
                     "probe.tau must be a finite number > 0, got inf", id="tau-inf"),
        pytest.param({"mode": {"kind": "bin", "L": float("nan")}},
                     "probe.mode.L must be a finite number > 0, got nan", id="L-nan"),
        pytest.param({"mode": {"kind": "squeezed", "s": float("inf")}},
                     "probe.mode.s must be a finite number > 0, got inf", id="s-inf"),
    ])
    def test_non_finite_probe_parameter(self, tmp_path, capsys, probe, message):
        code, text = run(tmp_path, "sample", dict(QUBIT, probe=probe))
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_beta_grid_object(self, tmp_path):
        config = dict(QUBIT, thermo={"beta_grid": {"lo": 0.5, "hi": 2.0, "num": 3}})
        code, text = run(tmp_path, "thermo", config)
        assert code == 0
        _, rows = parse_rows(text)
        assert [r["beta"] for r in rows] == pytest.approx([0.5, 1.0, 2.0], rel=1e-15)

    @pytest.mark.parametrize("grid, message", [
        ({"num": 0}, "thermo.beta_grid.num must be an integer from 1 to 100000, got 0"),
        ({"num": thermo.MAX_BETA_GRID + 1},
         "thermo.beta_grid.num must be an integer from 1 to 100000, got 100001"),
        ({"num": "many"}, "thermo.beta_grid.num must be an integer from 1 to 100000, "
                          "got 'many'"),
        ({"lo": 0}, "thermo.beta_grid.lo must be a finite number > 0, got 0"),
        ({"lo": -1.0, "hi": -0.5}, "thermo.beta_grid.lo must be a finite number > 0, got -1.0"),
        ({"hi": float("inf")}, "thermo.beta_grid.hi must be a finite number > 0, got inf"),
        ({"lo": [1]}, "thermo.beta_grid.lo must be a finite number > 0, got [1]"),
        ({"lo": 2.0, "hi": 1.0}, "thermo.beta_grid needs lo <= hi, got lo=2.0, hi=1.0"),
    ], ids=["num-zero", "num-over-cap", "num-string", "lo-zero", "negative", "hi-inf",
            "lo-list", "lo-above-hi"])
    def test_beta_grid_object_checked(self, tmp_path, capsys, grid, message):
        code, text = run(tmp_path, "thermo", dict(QUBIT, thermo={"beta_grid": grid}))
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == f"config error: {message}\n"

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


def test_cli_calls_load_no_scipy_module(tmp_path):
    """No command needs scipy, detector-binning a squeezed probe included: scipy
    is a test dependency only."""
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
    squeezed_binned = dict(squeezed, sampling={"n": 1000, "seed": 3, "detector_bin": 0.05})
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
        ("sample-squeezed-binned", squeezed_binned, []),
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
    assert loaded == {name: [] for name in ["import", *(step[0] for step in steps)]}


SQUEEZED_PAIR = {"system": {"diagonal": [0.0, 1.0]}, "state": {"thermal_beta": 1.0},
                 "probe": {"p0": 0.0, "g": 1.0, "tau": 1.0,
                           "mode": {"kind": "squeezed", "s": 20.0}},
                 "sampling": {"n": 20_000, "seed": 5}, "thermo": {"beta_grid": [0.5, 1.0]}}


@pytest.mark.parametrize("command, config, code, err", [
    pytest.param("quench", dict(QUBIT, quench={"system2": {"diagonal": [1.0, 0.0]},
                                               "beta": 1e308}), 0, "", id="quench-beta"),
    pytest.param("quench", {"system": {"model": "dicke", "n_atoms": 2},
                            "quench": {"system2": {"model": "dicke", "n_atoms": 2},
                                       "beta": 1e308}}, 0, "", id="quench-beta-dense"),
    pytest.param("sample", dict(SQUEEZED_PAIR, sampling={"n": 10, "detector_bin": 1e308}),
                 0, "", id="squeezed-detector-bin"),
    pytest.param("sample", dict(QUBIT, probe={"mode": {"kind": "bin", "L": 0.5}},
                                sampling={"n": 10, "detector_bin": 1e308}),
                 0, "", id="bin-detector-bin"),
    pytest.param("sweep", {"sweep": {"kind": "lambda", "values": [float("inf")]}}, EXIT_CONFIG,
                 "config error: sweep.values must be a list of 1 to 256 finite numbers, "
                 "got [inf]\n", id="lambda-inf"),
    pytest.param("sweep", {"sweep": {"kind": "lambda", "n_atoms": 30, "values": [1e308]}},
                 EXIT_CONFIG, "config error: matrix has non-finite entries\n",
                 id="lambda-1e308"),
])
def test_extreme_inputs_print_no_warning(tmp_path, command, config, code, err):
    """An overflow that the code handles prints no numpy warning in a CLI child."""
    child = fresh_cli(tmp_path, command, config)
    assert "Warning" not in child.stderr
    assert (child.returncode, child.stderr) == (code, err)


BAD_BODY = "config error: record body must be lines of 16 hex digits\n"


def record_file(tmp_path, body: bytes, name="rec.txt"):
    path = tmp_path / name
    path.write_bytes(b"# seed=0\n# detector_bin=0.0\n# columns=p_bits\n" + body)
    return str(path)


class TestRecordFormat:
    def test_squeezed_record_bytes_are_pinned(self, tmp_path):
        """The whole ``sample`` output for a squeezed probe, as written before the three
        distribution types became one ``LineMixture``; it rests on numpy's Philox
        stream and Cephes's ``ndtri``, evaluated in numpy."""
        code, text = run(tmp_path, "sample", dict(SQUEEZED_PAIR, sampling={"n": 5000, "seed": 5}))
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "08af5ddcb1211453bad974adcebd00b5649e1c3389345f93f994127490797b91")

    def test_streamed_chunks_match_one_draw(self, tmp_path):
        config = dict(SQUEEZED_PAIR, sampling={"n": SAMPLE_CHUNK + 3, "seed": 11})
        code, text = run(tmp_path, "sample", config)
        assert code == 0
        H = HermitianOperator(np.diag([0.0, 1.0]))
        probe = probe_from_dict(config["probe"])
        dist = distribution_for(spectrum_of(thermal_state(H, 1.0), H), probe)
        record = sample_measurements(dist, SAMPLE_CHUNK + 3, seed=11)
        expected = ("# config=" + json.dumps(config, sort_keys=True) + "\n"
                    + record_to_text(record, probe))
        assert text == expected

    @staticmethod
    def two_column_record(tmp_path, columns="# columns=index p\n"):
        """A SQUEEZED_PAIR record as ``sample`` writes it, and the same record with the
        ``index p`` body that records held before ``p_bits``, written to old.txt."""
        code, text = run(tmp_path, "sample", SQUEEZED_PAIR, out_name="new.txt")
        assert code == 0
        record, _ = record_from_text(text)
        old = tmp_path / "old.txt"
        old.write_text(text[:text.index("# columns=p_bits\n")] + columns + "".join(
            f"{i} {float(p)!r}\n" for i, p in enumerate(record.samples)))
        return text, str(old)

    @pytest.mark.parametrize("columns", ["# columns=index p\n", ""], ids=["index-p", "none"])
    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    def test_two_column_record_exits_2(self, tmp_path, capsys, command, columns):
        """Only p_bits bodies are read; the message says how to redraw the record."""
        _, old = self.two_column_record(tmp_path, columns)
        code, out = run(tmp_path, command, SQUEEZED_PAIR, extra=["--record", old])
        assert code == EXIT_CONFIG
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'# columns=p_bits'" in err and "'qumode-probe sample --config <record>'" in err

    def test_two_column_record_is_redrawn_from_its_config(self, tmp_path):
        """``sample --config`` on an old record redraws it from its ``# config=`` header."""
        text, old = self.two_column_record(tmp_path)
        out = tmp_path / "redrawn.txt"
        assert main(["sample", "--config", old, "--out", str(out)]) == 0
        assert out.read_text() == text

    @pytest.mark.parametrize("body", [
        pytest.param(b"3ff0000000000000\n3ff00000000000\n", id="truncated-last-line"),
        pytest.param(b"3ff0000000000000\n3ff000000000000g\n", id="non-hex"),
        pytest.param(b"3FF0000000000000\n", id="uppercase"),
        pytest.param(b"3ff0000000000000\n3ff0000000000000", id="missing-newline"),
        pytest.param(b"3ff0000000000000 3ff000000000000\n", id="newline-moved"),
        pytest.param("3ff000000000000é\n".encode(), id="non-ascii-utf8"),
        pytest.param(b"3ff00000000000\xff\xfe\n", id="non-ascii-bytes"),
        # whitespace in the digit columns; bytes.fromhex would skip the newlines
        # and read these 8 lines as 7 samples
        pytest.param(b"00000000000000\n\n\n" * 8, id="newlines-in-digits"),
        pytest.param(b"3ff000000000000\r\n", id="carriage-return"),
    ])
    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    def test_malformed_body_exits_2(self, tmp_path, capsys, command, body):
        code, text = run(tmp_path, command, SQUEEZED_PAIR,
                         extra=["--record", record_file(tmp_path, body)])
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == BAD_BODY

    @pytest.mark.parametrize("bits", [b"7ff0000000000000", b"fff0000000000000",
                                      b"7ff8000000000000"])
    def test_non_finite_bits_exit_2(self, tmp_path, capsys, bits):
        path = record_file(tmp_path, b"3ff0000000000000\n" + bits + b"\n")
        code, _ = run(tmp_path, "reconstruct", SQUEEZED_PAIR, extra=["--record", path])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: record has non-finite samples\n"

    def test_bad_probe_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "rec.txt"
        path.write_text("# seed=0\n# probe=[1]\n# columns=p_bits\n3ff0000000000000\n")
        code, _ = run(tmp_path, "reconstruct", SQUEEZED_PAIR, extra=["--record", str(path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad record probe header: ")


class TestPinnedReports:
    """Whole reports, pinned by digest, of the paths that carry spectral lines."""

    RABI = {"system": {"model": "rabi", "n_sites": 2}, "state": {"thermal_beta": 1.0},
            "thermo": {"beta_grid": [0.5, 1.0, 2.0]}}

    @pytest.mark.parametrize("command, digest", [
        ("spectrum",
         "e928714b8391680eafa888f13d7a35f1faed3d78fa8aa5f07fcb79762d7dbe98"),
        ("thermo",
         "8c94a249e3af2bb16f6ee6ed888fc6586180bc58baf05d80007d9eb35c995c1b"),
    ])
    def test_exact_reports(self, tmp_path, command, digest):
        """rabi n_sites=2 has a g = 2 middle line, which thermo recovers from P and beta."""
        code, text = run(tmp_path, command, self.RABI)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, options, digest", [
        ("reconstruct", {},
         "cffa7a51be803d609d4e62255a309eef801463812457853b8a9009d080ef8b58"),
        ("reconstruct", {"min_mass": 0.3},
         "e9a501f0c509da39df834036650ab8bd7f6deb16b6e9220c19d21c40310a84fd"),
        ("thermo", {},
         "858ed82b5d59acda73821a9e15fdf928bb475e0d9d21f4bf6762529c7af47a3d"),
    ])
    def test_record_reports(self, tmp_path, command, options, digest):
        """A two-line record: both lines kept, or the lighter one left in the residual."""
        code, _ = run(tmp_path, "sample", SQUEEZED_PAIR, out_name="rec.txt")
        assert code == 0
        code, text = run(tmp_path, command, dict(SQUEEZED_PAIR, reconstruct=options),
                         extra=["--record", str(tmp_path / "rec.txt")])
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestFileErrors:
    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    @pytest.mark.parametrize("target", ["missing.txt", "."])
    def test_unreadable_record(self, tmp_path, capsys, command, target):
        path = str(tmp_path / target)
        code, _ = run(tmp_path, command, SQUEEZED_PAIR, extra=["--record", path])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read record {path}: ")

    @pytest.mark.parametrize("command", ["reconstruct", "thermo"])
    def test_record_read_error(self, tmp_path, capsys, monkeypatch, command):
        """An error while the body is read exits 2 naming the record, with no output."""
        path = record_file(tmp_path, b"0000000000000000\n3ff0000000000000\n")

        class FailingBody(io.BufferedReader):
            def read(self, size=-1):
                raise OSError(errno.EIO, "Input/output error")

            def readinto(self, buffer):
                raise OSError(errno.EIO, "Input/output error")

        def open_failing(file, mode="r", *args, **kwargs):
            # the config is opened "rb" too, so the record is told apart by its path
            if file == path:
                return FailingBody(io.FileIO(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_failing, raising=False)
        code, text = run(tmp_path, command, SQUEEZED_PAIR, extra=["--record", path])
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err == (
            f"config error: cannot read record {path}: [Errno 5] Input/output error\n")

    @pytest.mark.parametrize("command", ["sample", "spectrum"])
    @pytest.mark.parametrize("target", ["no-such-dir/out.txt", "."])
    def test_unwritable_out(self, tmp_path, capsys, command, target):
        path = str(tmp_path / target)
        argv = [command, "--config", write_config(tmp_path, SQUEEZED_PAIR), "--out", path]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write output {path}: ")


class TestSamplingKeys:
    @pytest.mark.parametrize("key, value", [
        ("n", 0), ("n", MAX_SAMPLES + 1), ("n", 1e10), ("n", None), ("n", "many"),
        ("n", float("inf")), ("seed", -1), ("seed", 2 ** 128), ("seed", [1]),
    ])
    def test_integer_keys_checked(self, tmp_path, capsys, key, value):
        config = dict(SQUEEZED_PAIR, sampling=dict(SQUEEZED_PAIR["sampling"], **{key: value}))
        code, text = run(tmp_path, "sample", config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith(f"config error: sampling.{key} must be an "
                                                  "integer from ")

    def test_integral_floats_accepted(self, tmp_path):
        """JSON has no integer exponent form, so 1e1 and 3.0 count as integers."""
        config = dict(SQUEEZED_PAIR, sampling={"n": 1e1, "seed": 3.0})
        code, text = run(tmp_path, "sample", config)
        assert code == 0
        record, _ = record_from_text(text)
        assert (record.n, record.seed) == (10, 3)

    @pytest.mark.parametrize("value", [-0.1, float("nan")])
    def test_detector_bin_checked(self, tmp_path, capsys, value):
        config = dict(SQUEEZED_PAIR, sampling={"n": 10, "detector_bin": value})
        code, text = run(tmp_path, "sample", config)
        assert code == EXIT_CONFIG
        assert text == ""
        assert capsys.readouterr().err.startswith("config error: sampling.detector_bin must "
                                                  "be nonnegative")

    def test_detector_bin_index_past_2_53_exits_2(self, tmp_path, capsys):
        """At p0 = 1e12 the index of a 1e-8 bin is past 2**53, where a float64 index
        names no one bin; binning lost the line's whole mass there instead."""
        config = {"system": {"diagonal": [0.0]}, "probe": {"p0": 1e12, "mode": "ideal"},
                  "sampling": {"n": 10, "detector_bin": 1e-8}}
        code, text = run(tmp_path, "sample", config)
        assert (code, text) == (EXIT_CONFIG, "")
        assert capsys.readouterr().err == (
            "config error: sampling.detector_bin: line supports lie over 2**53 bins of "
            "width 1e-08 from the bin origin 0.0\n")


CLI_CHILD = """
import resource, sys
cap = int(sys.argv.pop(1))
report_path = sys.argv.pop(1)
if cap:
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from qumode_probe.cli import main
code = main(sys.argv[1:])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open("/proc/self/status") as status, open(report_path, "w") as out:
    peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    out.write(f"{peak} {faults}")
sys.exit(code)
"""


def cli_child_report(tmp_path, argv, address_space=0, env=None):
    """Run the CLI in a child, with ``env`` added to its environment; its exit
    code, stderr, own peak RSS in KiB and own minor page faults, each read by
    the child itself."""
    src = os.path.dirname(os.path.dirname(qumode_probe.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = tmp_path / "report.txt"
    with open(tmp_path / "stderr.txt", "wb") as err:
        code = subprocess.run([sys.executable, "-c", CLI_CHILD, str(address_space), str(report),
                               *argv], env=env, stdout=subprocess.DEVNULL,
                              stderr=err).returncode
    peak, faults = map(int, report.read_text().split())
    return code, (tmp_path / "stderr.txt").read_text(), peak, faults


def cli_child(tmp_path, argv, address_space=0):
    """Run the CLI in a child; its exit code, stderr and own peak RSS in MiB.

    The peak is the child's VmHWM, read by the child itself: ``wait4``'s
    ``ru_maxrss`` would carry over this process's peak, since the child
    starts as a copy of it.  A nonzero ``address_space`` caps the child's
    virtual memory (RLIMIT_AS), in the child only, so an oversized
    allocation fails fast there.
    """
    code, err, peak, _ = cli_child_report(tmp_path, argv, address_space)
    return code, err, peak / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status and RLIMIT_AS")
class TestBoundedChildren:
    ADDRESS_SPACE = 2 * 2 ** 30

    @pytest.mark.parametrize("command, config, message", [
        pytest.param("sample", dict(SQUEEZED_PAIR, sampling={"n": 1e10}),
                     "sampling.n must be an integer from 1 to 10000000", id="sampling-n"),
        pytest.param("spectrum", {"system": {"model": "dicke", "n_atoms": 100_000}},
                     "dimension 100001 exceeds cap 1024", id="dicke-n-atoms"),
        pytest.param("thermo", dict(QUBIT, thermo={"beta_grid": {"num": 1e11}}),
                     "thermo.beta_grid.num must be an integer from 1 to 100000",
                     id="beta-grid-num"),
        pytest.param("spectrum", {"system": {"model": "rabi", "n_sites": 1e12}},
                     "exceeds cap 1024", id="rabi-n-sites"),
        pytest.param("spectrum", {"system": {"diagonal": [0.0] * 30_000}},
                     "system.diagonal must be a list of 1 to 1024 numbers",
                     id="diagonal-length"),
    ])
    def test_oversized_input_exits_2(self, tmp_path, command, config, message):
        record = record_file(tmp_path, b"0000000000000000\n41cdcd6500000000\n")  # 0.0, 1e9
        argv = [command, "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out.txt"), "--record", record]
        code, err, _ = cli_child(tmp_path, argv, address_space=self.ADDRESS_SPACE)
        assert "MemoryError" not in err
        assert code == EXIT_CONFIG, err
        assert message in err

    @pytest.mark.parametrize("config", [
        pytest.param(dict(QUBIT, probe={"p0": 0.0, "g": 1.0, "tau": 1.0,
                                        "mode": {"kind": "bin", "L": 0.1}},
                          sampling={"n": 10, "detector_bin": 1e-12}),
                     id="detector-bin-span"),
        # 1024 lines, each reaching 10**7 bins
        pytest.param({"system": {"diagonal": np.linspace(0.0, 1.0, DIMENSION_CAP).tolist()},
                      "state": {"maximally_mixed": True},
                      "probe": {"mode": {"kind": "bin", "L": 1000.0}},
                      "sampling": {"n": 10, "detector_bin": 1e-4}},
                     id="detector-bin-work"),
        # one line reaching 1.66e7 bins, read 2**16 draws at a time
        pytest.param({"system": {"diagonal": [0.0]},
                      "probe": {"mode": {"kind": "bin", "L": 1660.0}},
                      "sampling": {"n": 2 ** 16, "detector_bin": 1e-4}},
                     id="detector-bin-one-line"),
    ])
    def test_detector_binning_is_bounded(self, tmp_path, config):
        """Binning reads each draw into its bin and builds no per-bin array, so the
        number of bins the lines reach sets no array's size."""
        argv = ["sample", "--config", write_config(tmp_path, config),
                "--out", str(tmp_path / "out.txt")]
        code, err, rss = cli_child(tmp_path, argv, address_space=self.ADDRESS_SPACE)
        assert code == 0, err
        assert rss < 100, rss

    def test_far_outlier_record_reconstructs(self, tmp_path):
        """The histogram holds its two occupied bins, not the 10**15 bins between them."""
        record = record_file(tmp_path, b"0000000000000000\n41cdcd6500000000\n")  # 0.0, 1e9
        out = tmp_path / "out.txt"
        argv = ["reconstruct", "--config", write_config(tmp_path, dict(QUBIT, reconstruct={
            "min_mass": 0.1})), "--out", str(out), "--record", record]
        code, err, _ = cli_child(tmp_path, argv, address_space=self.ADDRESS_SPACE)
        assert code == 0, err
        _, rows = parse_rows(out.read_text())
        assert [(row["P_hat"], row["count"]) for row in rows] == [(0.5, 1), (0.5, 1)]

    def test_oversized_cluster_exits_2(self, tmp_path):
        """At width 1e-9 each line of a squeezed pair spans some 10**8 bins, which
        are laid out to find the line's valleys: the cluster is refused."""
        config = write_config(tmp_path, dict(SQUEEZED_PAIR, reconstruct={"bin_width": 1e-9}))
        record = str(tmp_path / "rec.txt")
        assert main(["sample", "--config", config, "--out", record]) == 0
        argv = ["reconstruct", "--config", config, "--out", str(tmp_path / "out.txt"),
                "--record", record]
        code, err, _ = cli_child(tmp_path, argv, address_space=self.ADDRESS_SPACE)
        assert "MemoryError" not in err
        assert code == EXIT_CONFIG, err
        assert "a cluster of the histogram spans" in err
        assert "bins of width 1e-09 from p = " in err and "over the cap of 16777216" in err

    def test_sample_memory_does_not_grow_with_n(self, tmp_path):
        """The record is written as it is drawn, SAMPLE_CHUNK draws at a time."""
        peaks = []
        for n in (2 ** 20, 2 ** 22):
            config = dict(QUBIT, probe={"p0": 0.0, "g": 1.0, "tau": 1.0,
                                        "mode": {"kind": "ideal"}},
                          sampling={"n": n, "seed": 1})
            out = tmp_path / "rec.txt"
            code, err, rss = cli_child(tmp_path, ["sample", "--config",
                                                  write_config(tmp_path, config),
                                                  "--out", str(out)])
            assert code == 0, err
            assert out.stat().st_size > 17 * n
            peaks.append(rss)
        # holding the 2**22 draws at once would add 32 MiB of samples and 68 MiB of text
        assert peaks[1] - peaks[0] < 40, peaks

    def test_record_chain_memory_does_not_grow_with_n(self, tmp_path):
        """``sample`` writes and ``reconstruct`` and ``thermo --record`` read the record
        one block at a time, so each command peaks alike at n = 2**20 and 2**22."""
        peaks = {"sample": [], "reconstruct": [], "thermo": []}
        record = str(tmp_path / "rec.txt")
        for n in (2 ** 20, 2 ** 22):
            config = write_config(tmp_path, dict(QUBIT, probe={"mode": "ideal"},
                                                 sampling={"n": n, "seed": 1},
                                                 thermo={"beta_grid": [1.0]}))
            for command in peaks:
                argv = [command, "--config", config, "--out", str(tmp_path / "out.txt")]
                if command == "sample":
                    argv[-1] = record
                else:
                    argv += ["--record", record]
                code, err, rss = cli_child(tmp_path, argv)
                assert code == 0, err
                peaks[command].append(rss)
        # the 2**22 record is 68 MiB of text holding 32 MiB of samples
        assert all(abs(b - a) < 8 for a, b in peaks.values()), peaks


# glibc serves freed memory back from its heap under these thresholds, so a
# child's page faults there do not depend on what it allocated before
KEEP_FREED_MEMORY = {"MALLOC_MMAP_THRESHOLD_": "67108864", "MALLOC_TRIM_THRESHOLD_": "268435456"}


@pytest.mark.skipif(not sys.platform.startswith("linux") or not os.path.exists("/proc/self/status"),
                    reason="counts glibc's page faults on Linux")
def test_record_chain_faults_do_not_follow_heap_history(tmp_path):
    """``sample`` and ``reconstruct`` draw, write and read the record through arrays
    allocated once, so their page faults stay near those of a heap that keeps
    freed memory, whatever the length of an argument that shifts the heap."""
    config = write_config(tmp_path, dict(SQUEEZED_PAIR, sampling={"n": 2 ** 20, "seed": 1}))
    record = str(tmp_path / "rec.txt")

    def faults(argv, env=None):
        code, err, _, count = cli_child_report(tmp_path, argv, env=env)
        assert code == 0, err
        return count

    sample = ["sample", "--config", config, "--out"]
    floor = faults(sample + [record], KEEP_FREED_MEMORY)
    for length in (1, 6, 11, 16):
        out = str(tmp_path / ("o" * length + ".txt"))
        assert faults(sample + [out]) <= 1.15 * floor, length
    read = ["reconstruct", "--config", config, "--out", str(tmp_path / "out.txt"),
            "--record", record]
    assert faults(read) <= 1.15 * faults(read, KEEP_FREED_MEMORY)


FUZZ_CONFIG = dict(SQUEEZED_PAIR, sampling={"n": 2 * SAMPLE_CHUNK + 37, "seed": 3},
                   reconstruct={"bin_width": 0.05})  # three body blocks


@pytest.fixture(scope="module")
def fuzz_record(tmp_path_factory):
    """A three-block record as ``sample`` writes it, its config path, and the
    ``reconstruct`` rows that the whole-array histogram and peak scan give."""
    work = tmp_path_factory.mktemp("fuzz")
    config = write_config(work, FUZZ_CONFIG)
    assert main(["sample", "--config", config, "--out", str(work / "rec.txt")]) == 0
    data = (work / "rec.txt").read_bytes()
    record, probe = record_from_text(data.decode())
    recon = detect_peaks(histogram(record, 0.05, origin=probe.p0), probe)
    rows = [f"{line.E_hat!r} {line.P_hat!r} {line.count}" for line in recon.lines]
    return work, config, data, rows, f"# residual_mass={recon.residual_mass!r}"


def _mutate(data: bytes, mutation: tuple) -> bytes:
    kind, at, byte = mutation
    at %= len(data)
    if kind == "truncate":
        return data[:at]
    if kind == "overwrite":
        return data[:at] + bytes([byte]) + data[at + 1:]
    if kind == "insert-cr":
        return data[:at] + b"\r" + data[at:]
    if kind == "drop-final-newline":
        return data[:-1]
    if kind == "nan-late":
        # a NaN bit pattern on a body line in the last block
        line = len(data) - 17 * (1 + at % 30)
        return data[:line] + b"7ff8%012x" % byte + data[line + 16:]
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutation=st.tuples(st.sampled_from(["none", "truncate", "overwrite", "insert-cr",
                                           "drop-final-newline", "nan-late"]),
                          st.integers(0, 2 ** 31), st.integers(0, 255)))
def test_record_fuzz_exits_0_or_2(fuzz_record, mutation):
    """A mutated multi-block record reconstructs or exits 2; an intact one gives the
    whole-array histogram's lines."""
    work, config, data, rows, residual = fuzz_record
    (work / "mutated.txt").write_bytes(_mutate(data, mutation))
    out = work / "out.txt"
    out.unlink(missing_ok=True)
    code = main(["reconstruct", "--config", config, "--record", str(work / "mutated.txt"),
                 "--out", str(out)])
    assert code in (0, EXIT_CONFIG)
    assert out.exists() == (code == 0)
    if mutation[0] == "none":
        lines = out.read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")][1:] == rows
        assert residual in lines
