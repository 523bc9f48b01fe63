"""Work statistics and ground-state overlap without destroying the system.

Two protocols that reuse the probe's non-destructive line readout:

1. Sudden quench H0 -> H1 from a thermal state.  The average work is
   the difference of first moments of the same state's line spectra
   under H1 and H0, and the irreversible part <W> - dF is nonnegative
   by the second law.

2. Ground-state overlap |<u0_a | u0_b>|^2 via two probe circuits: the
   first post-selects the ground line of H_a from a maximally mixed
   input, the second reads the ground-line population of H_b.  Swept
   across a coupling family this fidelity dips sharply where the ground
   state reorganizes, a standard phase-transition signature.

Run:  python3 demos/quench_and_overlap.py
"""

import numpy as np

from qumode_probe.models import dicke_interaction, linear_family
from qumode_probe.operators import HermitianOperator, sigma_x, sigma_z
from qumode_probe.thermo import ground_state_overlap, quench_work

# --- 1. sudden quench ------------------------------------------------------
print("Quench sigma_z -> sigma_x at beta = 1:")
rep = quench_work(sigma_z(), sigma_x(), beta=1.0)
print(f"  <W>   = {rep.W_avg:.6f}   (tanh(1) = {np.tanh(1.0):.6f})")
print(f"  dF    = {rep.dF:+.2e}  (same spectrum before and after)")
print(f"  W_irr = {rep.W_irr:.6f}   (>= 0)")

print("\nQuench strength sweep, H0 = sigma_z -> H1 = sigma_z + k * sigma_x:")
print("  k      <W>       dF        W_irr")
for k in (0.25, 0.5, 1.0, 2.0):
    H1 = HermitianOperator(sigma_z().entries + k * sigma_x().entries)
    rep = quench_work(sigma_z(), H1, beta=1.0)
    print(f"  {k:4.2f}  {rep.W_avg:+.4f}   {rep.dF:+.4f}   {rep.W_irr:.4f}")

# --- 2. ground-state overlap across a coupling family ----------------------
n_atoms = 8
base = HermitianOperator(np.diag(np.arange(n_atoms + 1, dtype=float)))
build = linear_family(base, dicke_interaction(n_atoms))

print(f"\nGround-state overlap with the lambda = 0 ground state "
      f"({n_atoms} collective atoms):")
print("  lambda   |<u0(0)|u0(lambda)>|^2")
H_ref = build(0.0)
for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    p0 = ground_state_overlap(H_ref, build(lam))
    bar = "#" * int(round(40 * p0))
    print(f"  {lam:6.2f}   {p0:8.4f}  {bar}")
print("The fidelity decays as the transverse coupling reorganizes the "
      "ground state away from the lambda = 0 configuration.")
