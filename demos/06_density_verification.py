"""Fit-then-verify: checking two-sided bounds against simulated densities.

The bound constants of the two-sided estimates exist but are not given, so
each verification fits (amplitude, rate) per side on one random seed and
then verifies the envelopes on a batch from a disjoint seed, counting a cell
as a violation only when its 99% confidence interval excludes the envelope.
Everything is chunk-deterministic: the same seed gives the same batch no
matter how many worker threads produced it.
"""

import numpy as np

import hypoflow as hf
from hypoflow.verify import verify_heat, verify_heisenberg, verify_kolmogorov

print("== exact Langevin batch against the closed-form kernel ==")
report = verify_kolmogorov(n=200_000, seed=42)
print(f"cells checked {report.cells_checked}, lower violations "
      f"{report.lower_violations}, upper violations {report.upper_violations}")
print(f"violation fraction = {report.violation_fraction:.4f}  (policy: {report.policy})")

print("\n== exact 1-D heat batch (the EM law), Gaussian envelopes fitted then verified ==")
report = verify_heat(n=150_000, seed=42)
print(f"violation fraction = {report.violation_fraction:.4f} over "
      f"{report.cells_checked} cells")

print("\n== Heisenberg kernel, sub-Riemannian envelopes, window d^2/gap <= 8 ==")
report = verify_heisenberg(n=200_000, seed=2020, fit_seed=3030)
print(f"violation fraction = {report.violation_fraction:.4f} over "
      f"{report.cells_checked} cells")

print("\n== determinism ==")
b1 = hf.euler_maruyama(hf.HEISENBERG, [0, 0, 0], 1.0, 5e-3, 50_000, seed=9, threads=1)
b4 = hf.euler_maruyama(hf.HEISENBERG, [0, 0, 0], 1.0, 5e-3, 50_000, seed=9, threads=4)
print(f"1 vs 4 worker threads, identical endpoints: "
      f"{np.array_equal(b1.endpoints, b4.endpoints)}")

print("\nThe same pipelines run from the command line, e.g.")
print('  hypoflow --config verify.json --output out --threads 8')
print('with verify.json = {"command": "verify", "parameters": '
      '{"target": "kolmogorov", "n": 1000000, "seed": 42}}')
