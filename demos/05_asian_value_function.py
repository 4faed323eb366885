"""Value function and exact density for the average-price operator.

For x^2 dxx + x dx + x dy - dt the admissible paths multiply the price by
the control and integrate it into y.  The minimal steering energy has a
closed form through the inverse of g(r) = sinh(sqrt r)/sqrt r (continued by
sin below zero), whose branch point r = -pi^2/4 is exactly where the square
root in the formula vanishes.  The Hamilton-Jacobi-Bellman relation pins
down the convention by elimination against the Kolmogorov closed form, and
Yor's oscillatory integral gives the joint price/average density.
"""

import numpy as np

import hypoflow as hf

print("== the function g and its inverse ==")
print(f"g(0) = {hf.g(0.0)},  g(-pi^2/4) = {hf.g(-np.pi**2 / 4):.6f} = 2/pi")
for v in (0.1, 1.0, 10.0):
    r = hf.g_inverse(v)
    print(f"  g_inverse({v}) = {r: .6f}, round trip error {abs(hf.g(r) - v):.1e}")

print("\n== value function ==")
e0 = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, 1.0, 0.0)
print(f"drift endpoint (q = 1): psi = {hf.value_psi(e0)}")
d = hf.value_psi_details(hf.AsianEndpoints(1.2, 0.0, 1.0, 0.8, 0.6, 0.0))
print(f"generic endpoint: q = {d['q']:.4f}, r = {d['r']:.4f}, "
      f"E = {d['E']:.4f}, psi = {d['psi']:.4f} [{d['branch']} branch]")
q = 1e-4
e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
near = 4 * (1 + 1) ** 2 / q - 4 * np.pi**2
print(f"near asymptotic at q = 1e-4: psi/reference = {hf.value_psi(e) / near:.9f}")

print("\n== HJB convention calibration ==")
winner, table = hf.calibrate_hjb_convention()
print(f"winning convention: derivatives in the {winner[0]} triple, "
      f"drift sign {winner[1]:+d}")
for conv, res in table.items():
    print(f"   {conv}: max residual {res:.2e}")
e = hf.AsianEndpoints(1.1, 0.0, 1.3, 0.9, 1.1, 0.2)
print(f"asian residual at a generic endpoint (fd 1e-4): "
      f"{hf.hjb_residual(e, 1e-4):.2e}")

print("\n== Yor density ==")
print(f"psi integral at (z=1, t=0.5): {hf.yor_psi(1.0, 0.5):.10e}")
print(f"density at (x=1.2, y=0.8, t=1) from (1, 0): "
      f"{hf.yor_density(1.2, 0.8, 1.0, 1.0, 0.0):.6f}")
print(f"off the support (y <= y0): {hf.yor_density(1.2, -0.1, 1.0, 1.0, 0.0)}")
var_x, var_y, small_x, small_y = hf.variance_formulas(1.0, 1.0)
print(f"Var X_1 = {var_x:.4f}, Var Y_1 = {var_y:.4f}")
print(f"small-t forms: 2 x0^2 t and (2/3) x0^2 t^3")

print("\n== density vs simulation (half-rate average pair) ==")
batch = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], 1.0, 1e-3, 50_000, seed=11)
ys = batch.endpoints[:, 1] / 2  # the half-rate average y0 + (y - y0)/2, here y0 = 0
print(f"simulated mean of the averaged coordinate: {ys.mean():.4f} "
      f"(theory (e-1)/2 = {(np.e - 1) / 2:.4f})")
print(f"two-sided envelope at a support point: lower "
      f"{hf.asian_envelope('lower', 0.2, (1, 1), 1.0, -1.0, 1.0, 1.0, 0.5, 0.0):.6f}, "
      f"upper {hf.asian_envelope('upper', 0.2, (1, 1), 1.0, -1.0, 1.0, 1.0, 0.5, 0.0):.6f}")
