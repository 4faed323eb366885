"""Carnot-Caratheodory geometry of the Heisenberg group.

Horizontal paths steer (x, y) freely but pick up the vertical coordinate w
only through the area swept; geodesics are circular arcs.  The distance
solver canonicalizes targets by the group symmetries and solves for the arc
in closed form; an independent optimizer over piecewise-constant controls
cross-checks it.  Metric balls scale as r^Q with Q = 4.
"""

import numpy as np

import hypoflow as hf

print("== distances ==")
for target in ([1.0, 0.0, 0.0], [0.3, 0.4, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.5]):
    res = hf.cc_distance(np.zeros(3), np.array(target))
    print(f"d(0, {target}) = {res.distance:.8f}   [{res.solver}, residual {res.residual:.1e}]")
print(f"planar targets give the Euclidean norm; the w-axis value is "
      f"sqrt(4 pi |w|) = {np.sqrt(4 * np.pi):.8f}")

print("\n== the geodesic is a constant-norm rotating control ==")
res = hf.cc_distance(np.zeros(3), np.array([1.0, 1.0, 0.5]))
norms = np.linalg.norm(res.control.values, axis=1)
print(f"control norm spread along the path: {norms.max() - norms.min():.2e}")
print(f"path length = {hf.path_length(res.control):.8f} = distance")
path = hf.integrate_path(hf.HEISENBERG, [0, 0, 0, 1.0], res.control,
                         res.control.grid[1] - res.control.grid[0])
print(f"re-integrated endpoint: {np.round(path.endpoint[:3], 7)}")

print("\n== brute-force oracle agreement ==")
rng = np.random.default_rng(5)
targets = rng.uniform(-1.5, 1.5, size=(5, 3))
d_batch = hf.cc_distance_batch(targets).distance
for tgt, ds in zip(targets, d_batch):
    db, _, cost = hf.cc_distance_brute(np.zeros(3), tgt)
    print(f"  target {np.round(tgt, 2)}: closed form {ds:.5f}  brute {db:.5f}  "
          f"(min energy at T=1: {cost:.5f} ~ d^2)")

print("\n== metric ball volume ==")
vol, ci = hf.estimate_unit_ball_volume(n=20_000, seed=7)
print(f"|B_1(0)| = {vol:.4f} +/- {ci:.4f}  (99% CI, rejection sampling)")
print(f"|B_r| = r^4 |B_1|: at r = 2 -> {hf.ball_volume(2.0, vol):.3f}")
print(f"kernel envelope on the diagonal, gap 1: "
      f"{hf.cc_envelope('upper', (1.0, 0.25), np.zeros(3), 1.0, np.zeros(3), 0.0, unit_volume=vol):.4f}")
