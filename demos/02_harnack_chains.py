"""Harnack chains: from a one-step inequality to a global lower bound.

A positive solution of a parabolic equation obeys sup_P u <= M u(top) on
paraboloid slices.  Chaining k+1 slices along a segment (or an admissible
path, for the degenerate models) multiplies the constants, giving

    u(end) >= u(start) / M^(k+1),

and controlling k -- by the segment slope, or by the path's control cost --
turns this into a Gaussian-type lower envelope for the fundamental solution.
"""

import numpy as np

import hypoflow as hf

params = hf.ChainParams()  # M=8, h=1, c=theta=1/2 (working constants)

print("== segment chain for the heat equation ==")
chain = hf.build_parabolic_chain([0.0], 1.0, [1.4], 0.55, params)
print(f"from (0, 1.0) to (1.4, 0.55): k = {chain.k} intermediate links")
print(f"classical bound ceil(|dx|^2/dt) + 1 = {int(np.ceil(1.4**2 / 0.45)) + 1}")
print("chain points (x, t):")
for pt in chain.points:
    print(f"   ({pt[0]: .4f}, {pt[1]: .4f})")

u_start = (4 * np.pi) ** -0.5  # heat kernel value at the chain start
bound = hf.chain_lower_bound(chain, params, u_start)
true_end = (4 * np.pi * 0.55) ** -0.5 * np.exp(-1.4**2 / (4 * 0.55))
print(f"certified lower bound  {bound:.3e}  <=  true kernel value {true_end:.3e}")

print("\n== path chain for the Kolmogorov model ==")
z0, z1 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.5, 0.0])
ctrl = hf.optimal_control_kolmogorov(z0, z1, n_intervals=512)
path = hf.integrate_path(hf.KOLMOGOROV, z0, ctrl, 1.0 / 512)
print(f"optimal path cost Phi = {hf.path_cost(ctrl):.4f} = psi0(z0; z1)")
for h in (1.0, 0.5, 0.25):
    chain = hf.build_path_chain(hf.KOLMOGOROV, path, hf.ChainParams(h=h))
    print(f"  cost granularity h = {h}: k = {chain.k}  (bound Phi/h + 1 = "
          f"{hf.path_cost(ctrl) / h + 1:.1f}), exponent k+1 = {chain.bound_exponent}")

print("\n== chain points and running cost (h = 0.5) ==")
chain = hf.build_path_chain(hf.KOLMOGOROV, path, hf.ChainParams(h=0.5))
print("step       x        y        t   cumulative cost")
for j, (pt, cc) in enumerate(zip(chain.points, chain.cum_costs)):
    print(f"{j:4d} {pt[0]: .4f} {pt[1]: .4f} {pt[2]: .4f}   {cc:.4f}")
