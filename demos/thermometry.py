"""Thermometry walkthrough: temperature and thermodynamics from two lines.

For a thermal system the line populations follow the Boltzmann pattern
P_n ∝ g_n exp(-beta E_n), so the ratio of any two lines fixes beta.
Once beta and the degeneracies are known, the full partition function
Z(beta) = sum_n g_n exp(-beta E_n) — and with it free energy, heat
capacity, and entropy — can be tabulated from a single measured
spectrum.  This script runs that pipeline end to end, first on exact
populations, then on a sampled-and-reconstructed record.

Run:  python3 demos/thermometry.py
"""

import numpy as np

from qumode_probe.operators import HermitianOperator, Spectrum, spectrum_of, thermal_state
from qumode_probe.probe import ProbeConfig, Squeezed, distribution_for
from qumode_probe.reconstruct import reconstruct_record
from qumode_probe.sampling import sample_measurements
from qumode_probe.thermo import estimate_beta, recover_degeneracies, thermo_report

beta_true = 0.9
H = HermitianOperator(np.diag([0.0, 0.7, 1.1, 1.1, 3.0]))
spec = spectrum_of(thermal_state(H, beta_true), H)

# --- exact pipeline --------------------------------------------------------
beta_hat = estimate_beta(spec.lines[0], spec.lines[1])
with_g = recover_degeneracies(spec, beta_hat)
print(f"True beta = {beta_true}, estimated from the first two lines: "
      f"{beta_hat:.6f}")
print("Recovered degeneracies:", [line.g for line in with_g.lines],
      "(the doubled level at E = 1.1 shows up as g = 2)")

report = thermo_report(with_g, beta_hat, beta_grid=np.geomspace(0.2, 5.0, 7))
print("\n beta       Z          F          C          S")
for (b, z), (_, f), (_, c), (_, s) in zip(report.Z_grid, report.F_grid,
                                          report.C_grid, report.S_grid):
    print(f"{b:6.3f}  {z:9.4f}  {f:+9.4f}  {c:9.4f}  {s:9.4f}")

# --- sampled pipeline ------------------------------------------------------
probe = ProbeConfig(p0=0.0, g=1.0, tau=1.0, mode=Squeezed(40.0))
record = sample_measurements(distribution_for(spec, probe), 500_000, seed=3)
recon = reconstruct_record(record, probe)
pops = recon.populations / recon.populations.sum()
est_spec = Spectrum.from_lines((e, p, 1) for e, p in zip(recon.energies, pops))
beta_sampled = estimate_beta(est_spec.lines[0], est_spec.lines[1])
with_g_sampled = recover_degeneracies(est_spec, beta_sampled)

print(f"\nFrom 500k samples: beta_hat = {beta_sampled:.4f} "
      f"(error {abs(beta_sampled - beta_true) / beta_true:.2%})")
print("Sampled-pipeline degeneracies:",
      [line.g for line in with_g_sampled.lines])
