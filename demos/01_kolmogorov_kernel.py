"""Closed forms for the kinetic Kolmogorov operator dxx + x dy - dt.

The degenerate diffusion behind this operator is the Langevin pair
(velocity, position): dX = sqrt(2) dW, dY = X dt.  Its transition law is an
explicit Gaussian, so the fundamental solution gamma0 and the optimal-control
value function psi0 are available in closed form and linked by

    gamma0 = sqrt(3)/(2 pi s^2) * exp(-psi0 / 4),       s = t - tau.

This script walks through the identity, the group invariances, and the
agreement between the exact sampler and the kernel.
"""

import numpy as np

import hypoflow as hf

rng = np.random.default_rng(1)

print("== the closed-form pair ==")
print(f"gamma0 on the diagonal (elapsed 1):   {hf.gamma0(0, 0, 1, 0, 0, 0):.6f}")
print(f"sqrt(3)/(2 pi)                      = {np.sqrt(3) / (2 * np.pi):.6f}")

z0 = np.array([0.0, 0.0, 1.0])   # start: x=0, y=0 at time 1
z1 = np.array([1.0, 0.5, 0.0])   # target: x=1, y=0.5 at time 0
print(f"\nminimal steering energy psi0(z0; z1) = {hf.psi0(*z0, *z1):.6f}")
ctrl = hf.optimal_control_kolmogorov(z0, z1)
print(f"cost of the optimal affine control   = {hf.path_cost(ctrl):.6f}")
path = hf.integrate_path(hf.KOLMOGOROV, z0, ctrl, ctrl.grid[1] - ctrl.grid[0])
print(f"endpoint reached by that control     = {np.round(path.endpoint, 9)}")

print("\n== invariances ==")
pt = (0.4, -0.3, 1.7, 0.1, 0.6, 0.2)
base = hf.gamma0(*pt)
shift = np.array([0.8, -1.1, 0.3])
zt = hf.group_compose(hf.KOLMOGOROV, shift, pt[:3])
ct = hf.group_compose(hf.KOLMOGOROV, shift, pt[3:])
print(f"left translation error:  {abs(hf.gamma0(*zt, *ct) - base):.2e}")
rho = 1.7
zd = hf.dilate(hf.KOLMOGOROV, rho, pt[:3])
cd = hf.dilate(hf.KOLMOGOROV, rho, pt[3:])
print(f"dilation: rho^4 * gamma0(delta z) - gamma0 = "
      f"{abs(rho**4 * hf.gamma0(*zd, *cd) - base):.2e}   (Q = 4)")

print("\n== exact sampler vs the kernel ==")
law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
print(f"law after elapsed 1: mean {law.mean}, cov\n{law.cov}")
batch = hf.sample_gaussian_exact(law, 200_000, seed=3)
emp = np.cov(batch.endpoints.T)
print(f"sample covariance (n = 2e5):\n{np.round(emp, 4)}")

print("\n== iterated chain: variance exponents 2j - 1 ==")
times = np.geomspace(0.3, 3.0, 5)
slopes = hf.variance_slope(hf.iterated_kolmogorov(4), times, 50_000, seed=4)
print(f"fitted log-log slopes for N = 4: {np.round(slopes, 3)}  (exact: 1, 3, 5, 7)")
