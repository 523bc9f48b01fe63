"""Workload chains run in-process, with a span around every layer call.

Each step repeats, call for call, what the matching ``qumode_probe.cli``
subcommand does, building a fresh system per step as each CLI child
does.  The eigensolve runs in its own span right after the system is
built, so the later calls that hit the cached decomposition
(``thermal_state``, ``spectrum_of``, ``quench_work``, ...) are timed
for their own work only.  Health figures are computed after the chain,
outside every span.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qumode_probe import models, reconstruct, serialize, thermo
from qumode_probe.operators import HermitianOperator, Spectrum, spectrum_of, thermal_state
from qumode_probe.probe import apply_detector_binning, distribution_for, distribution_numeric_oracle
from qumode_probe.sampling import sample_measurements

from checks import json_digest, record_digest
from tracing import Tracer

# a cluster holds at least one sample, so this floor keeps every cluster
KEEP_ALL_CLUSTERS = 1e-300


def _components(dist) -> int:
    for attr in ("points", "segments", "components"):
        if hasattr(dist, attr):
            return len(getattr(dist, attr))
    raise TypeError(f"unknown distribution {type(dist).__name__}")


class Chain:
    def __init__(self, inputs: dict, workdir: Path, tracer: Tracer):
        self.inputs = inputs
        self.config = inputs["config"]
        self.tr = tracer
        self.record_path = Path(workdir) / "inproc_record.txt"
        self.outputs: dict[str, dict] = {}  # per completed step, kept if a later step raises
        self._eigs: dict[bytes, tuple] = {}
        self._hists: list[tuple] = []

    def run(self) -> dict:
        for command in self.inputs["steps"]:
            with self.tr.step(command):
                self.outputs[command] = getattr(self, command)()
        return self.outputs

    # -- layer calls ---------------------------------------------------------

    def _system(self, spec: dict) -> HermitianOperator:
        with self.tr.span("models.build"):
            if "matrix" in spec:
                payload = spec["matrix"]
                flat = np.array([complex(re, im) for re, im in payload["entries"]])
                H = HermitianOperator(flat.reshape(payload["dim"], payload["dim"]))
            elif "diagonal" in spec:
                H = HermitianOperator(np.diag(np.asarray(spec["diagonal"], dtype=float)))
            else:
                H = models.dicke_interaction(int(spec["n_atoms"]))
        with self.tr.span("jacobi.eigh"):
            dec = H.eig()
        self.tr.count("jacobi.calls")
        self._eigs[H.entries.tobytes()] = (H.entries, dec)
        return H

    def _state(self, H: HermitianOperator):
        with self.tr.span("operators.thermal_state"):
            return thermal_state(H, float(self.config["state"]["thermal_beta"]))

    def _spectrum(self, state, H: HermitianOperator, **kwargs) -> Spectrum:
        with self.tr.span("operators.spectrum_of"):
            spec = spectrum_of(state, H, **kwargs)
        self.tr.count("operators.lines", len(spec.lines))
        return spec

    def _reconstruct_record(self):
        text = self.record_path.read_text()
        with self.tr.span("serialize.record_read"):
            record, probe = serialize.record_from_text(text)
        self.tr.count("serialize.record_bytes", len(text))
        probe = probe or serialize.probe_from_dict(self.config["probe"])
        # reconstruct_record's default bin width, split so each half gets a span
        sigma_p = probe.momentum_std()
        bin_width = sigma_p / 4 if sigma_p > 0 else max(record.detector_bin, 1e-6)
        with self.tr.span("reconstruct.histogram"):
            hist = reconstruct.histogram(record, bin_width, origin=probe.p0)
        with self.tr.span("reconstruct.peaks"):
            recon = reconstruct.detect_peaks(hist, probe)
        self.tr.count("reconstruct.bins", len(hist.counts))
        self.tr.count("reconstruct.lines", len(recon.lines))
        self._hists.append((hist, probe))
        return recon

    # -- chain steps, one per CLI subcommand ---------------------------------

    def spectrum(self) -> dict:
        H = self._system(self.config["system"])
        spec = self._spectrum(self._state(H), H,
                              merge_tol=float(self.config.get("merge_tol", 1e-8)))
        return {"lines": np.array([[line.E, line.P, line.g] for line in spec.lines])}

    def sample(self) -> dict:
        H = self._system(self.config["system"])
        state = self._state(H)
        probe = serialize.probe_from_dict(self.config["probe"])
        options = self.config["sampling"]
        n, seed = int(options["n"]), int(options["seed"])
        detector_bin = float(options.get("detector_bin", 0.0))
        spec = self._spectrum(state, H)
        with self.tr.span("probe.distribution"):
            dist = distribution_for(spec, probe)
        if detector_bin > 0:
            with self.tr.span("probe.detector_binning"):
                dist = apply_detector_binning(dist, detector_bin)
        self.tr.count("probe.components", _components(dist))
        with self.tr.span("sampling.draw"):
            record = sample_measurements(dist, n, seed, detector_bin=detector_bin)
        self.tr.count("sampling.samples", n)
        with self.tr.span("serialize.record_write"):
            body = serialize.record_to_text(record, probe)
        self.tr.count("serialize.record_bytes", len(body))
        header = "# config=" + json.dumps(self.config, sort_keys=True) + "\n"
        self.record_path.write_text(header + body)
        return record_digest(self.record_path)

    def reconstruct(self) -> dict:
        recon = self._reconstruct_record()
        return {"lines": np.array([[line.E_hat, line.P_hat, line.count]
                                   for line in recon.lines])}

    def thermo(self) -> dict:
        if self.inputs.get("thermo_from_record"):
            recon = self._reconstruct_record()
            pops = recon.populations / recon.populations.sum()
            spec = Spectrum.from_lines((e, p, 1) for e, p in zip(recon.energies, pops))
        else:
            H = self._system(self.config["system"])
            spec = self._spectrum(self._state(H), H)
        with self.tr.span("thermo.report"):
            beta_hat = thermo.estimate_beta(spec.lines[0], spec.lines[1])
            with_g = thermo.recover_degeneracies(
                Spectrum.from_lines((line.E, line.P, 1) for line in spec.lines),
                beta_hat, anchor=0)
            report = thermo.thermo_report(with_g, beta_hat, thermo.default_beta_grid())
        grid = [(b, z, f, c, s) for (b, z), (_, f), (_, c), (_, s) in
                zip(report.Z_grid, report.F_grid, report.C_grid, report.S_grid)]
        return {"beta_hat": report.beta_hat, "grid": np.array(grid)}

    def quench(self) -> dict:
        H0 = self._system(self.config["system"])
        H1 = self._system(self.config["quench"]["system2"])
        with self.tr.span("thermo.quench"):
            report = thermo.quench_work(H0, H1, float(self.config["quench"].get("beta", 1.0)))
        return {"W_avg": report.W_avg, "dF": report.dF, "W_irr": report.W_irr}

    def overlap(self) -> dict:
        H_a = self._system(self.config["system"])
        H_b = self._system(self.config["overlap"]["system_b"])
        with self.tr.span("thermo.overlap"):
            return {"P0": thermo.ground_state_overlap(H_a, H_b)}

    def oracle(self) -> dict:
        H = self._system(self.config["system"])
        state = self._state(H)
        densities = []
        for job in self.inputs["oracle_jobs"]:
            mode = {key: job[key] for key in ("kind", "s", "L") if key in job}
            probe = serialize.probe_from_dict({"p0": 0.0, "g": 1.0, "tau": 1.0, "mode": mode})
            with self.tr.span(f"probe.oracle_{job['kind']}"):
                density = distribution_numeric_oracle(state, H, probe, job["grid"])
            self.tr.count("probe.oracle_points", len(job["grid"]))
            densities.append(density.tolist())
        return {"densities": densities, "digest": json_digest(densities)}

    # -- health, computed after the chain ------------------------------------

    def health(self) -> dict:
        """Eigen-residual and orthogonality error per distinct eigensolve,
        and the share of reconstructed clusters kept as lines."""
        residual = orth = 0.0
        for entries, dec in self._eigs.values():
            V, lam = dec.eigenvectors, dec.eigenvalues
            scale = max(np.linalg.norm(entries), np.finfo(float).tiny)
            residual = max(residual, np.linalg.norm(entries @ V - V * lam) / scale)
            orth = max(orth, np.linalg.norm(V.conj().T @ V - np.eye(len(lam))))
        out = {"jacobi.residual": float(residual), "jacobi.orth_err": float(orth)}
        if self._hists:
            clusters = sum(len(reconstruct.detect_peaks(hist, probe,
                                                        min_mass=KEEP_ALL_CLUSTERS).lines)
                           for hist, probe in self._hists)
            out["reconstruct.clusters"] = clusters
            out["reconstruct.kept_ratio"] = self.tr.counts["reconstruct.lines"] / clusters
        return out
