"""Spectroscopy walkthrough: read a spectrum off a probe's momentum record.

A continuous-variable probe coupled to a system through x * H_int picks
up momentum kicks proportional to the eigenvalues of H_int.  Measuring
the probe momentum many times therefore samples a distribution whose
peaks sit at p = p0 - g * tau * E_n, weighted by the occupation P_n of
each eigenspace.  This script builds a three-site spin chain, inspects
the exact line spectrum, draws seeded measurement samples for probes of
increasing squeezing, and reconstructs the spectrum from each record.

Run:  python3 demos/spectroscopy.py
"""

import numpy as np

from qumode_probe.models import rabi_interaction
from qumode_probe.operators import spectrum_of, thermal_state
from qumode_probe.probe import ProbeConfig, Squeezed, distribution_for
from qumode_probe.reconstruct import reconstruct_record, resolution_params
from qumode_probe.sampling import sample_measurements

# --- the system: three sigma_x sites, thermal at beta = 0.5 ----------------
H = rabi_interaction(3)
state = thermal_state(H, beta=0.5)
spec = spectrum_of(state, H)

print("Exact spectral lines of the three-site chain (E, P, g):")
for line in spec.lines:
    print(f"  E = {line.E:+.3f}   P = {line.P:.4f}   g = {line.g}")

# --- sweep the probe squeezing ---------------------------------------------
# sigma_E = 1 / (sqrt(2) s g tau): more squeezing or longer interaction
# sharpens the lines.  The spacing here is 2, so s = 0.2 blurs everything
# into one blob while s = 5 resolves all four lines cleanly.
g, tau, n = 1.0, 1.0, 200_000
for s in (0.2, 1.0, 5.0):
    probe = ProbeConfig(p0=0.0, g=g, tau=tau, mode=Squeezed(s))
    res = resolution_params(probe)
    record = sample_measurements(distribution_for(spec, probe), n, seed=11)
    recon = reconstruct_record(record, probe)
    print(f"\nSqueezing s = {s}: sigma_E = {res.sigma_E:.3f}, "
          f"spacing/sigma_E = {res.resolvability(2.0):.1f}")
    print(f"  reconstructed {len(recon.lines)} line(s) from {n} samples:")
    for line in recon.lines:
        print(f"    E_hat = {line.E_hat:+.3f}   P_hat = {line.P_hat:.4f}")

# --- sanity check: moments survive the pipeline ----------------------------
probe = ProbeConfig(0.0, g, tau, Squeezed(5.0))
record = sample_measurements(distribution_for(spec, probe), n, seed=11)
recon = reconstruct_record(record, probe)
est = float(np.sum(recon.populations * recon.energies))
exact = float(np.trace(state.rho @ H.entries).real)
print(f"\n<H_int> exact = {exact:+.4f}, from reconstruction = {est:+.4f}")
