"""Value function, Yor density and envelopes for x^2 dxx + x dx + x dy - dt.

The admissible paths of the average-price operator obey x' = omega x,
y' = x > 0, t' = -1, so a path starting at (x1, y1, t1) reaches points with
strictly larger y at strictly smaller t.  ``value_psi`` evaluates the
closed-form minimal energy Psi(start; end) through the strictly increasing
function

    g(r) = sinh(sqrt r)/sqrt r  (r > 0),  1  (r = 0),  sin(sqrt -r)/sqrt -r
    (-pi^2 < r < 0),

branching on r = g^{-1}(q), q = (y0-y1)/((t1-t0) sqrt(x1 x0)): the printed
branch thresholds on E = 4 r/(t1-t0)^2 are dimensionally inconsistent (they
scale as 1/T instead of 1/T^2), and the implemented rule (first branch for
r >= -pi^2/4, second for -pi^2 < r < -pi^2/4) is the unique reading under
which the radicand 4 (r + g(r)^-2)/T^2 vanishes exactly at the switch and
Psi stays continuous; ``value_psi_details`` reports both readings.

The Hamilton-Jacobi-Bellman relation Y Psi + (X Psi)^2 / 4 = 0 holds with
the derivatives acting in one particular argument triple and drift sign;
``calibrate_hjb_convention`` finds it by elimination against the Kolmogorov
closed form (analytic derivatives), and ``hjb_residual`` evaluates the Asian
residual by central differences in the convention it finds, HJB_CONVENTION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "AsianEndpoints",
    "AccuracyError",
    "g",
    "g_prime",
    "g_inverse",
    "value_psi",
    "value_psi_details",
    "HJB_CANDIDATES",
    "HJB_CONVENTION",
    "calibrate_hjb_convention",
    "hjb_residual",
    "yor_psi",
    "yor_density",
    "variance_formulas",
    "asian_envelope",
]

PI_SQ = np.pi**2
_SERIES_CUT = 1e-4


class AccuracyError(ArithmeticError):
    """Result would be dominated by cancellation; refusing to return garbage."""


# ---------------------------------------------------------------------------
# The function g and its inverse
# ---------------------------------------------------------------------------

def g(r: float) -> float:
    """sinh/sin interpolant; strictly increasing from 0 to inf on (-pi^2, inf)."""
    if r <= -PI_SQ:
        raise ValueError(f"g needs r > -pi^2, got {r}")
    if abs(r) < _SERIES_CUT:
        # sum r^k/(2k+1)!: avoids the 0/0 cancellation across the origin
        return 1.0 + r / 6.0 + r**2 / 120.0 + r**3 / 5040.0
    if r > 0:
        u = np.sqrt(r)
        return float(np.sinh(u) / u)
    u = np.sqrt(-r)
    return float(np.sin(u) / u)


def g_prime(r: float) -> float:
    """Derivative of g; positive on the whole domain."""
    if r <= -PI_SQ:
        raise ValueError(f"g needs r > -pi^2, got {r}")
    if abs(r) < _SERIES_CUT:
        return 1.0 / 6.0 + r / 60.0 + r**2 / 1680.0
    if r > 0:
        u = np.sqrt(r)
        return float((u * np.cosh(u) - np.sinh(u)) / (2.0 * r * u))
    u = np.sqrt(-r)
    return float((np.sin(u) - u * np.cos(u)) / (2.0 * u**3))


_G_FLOOR = g(math.nextafter(-PI_SQ, 0.0))  # 1.8e-16: the least value of g on the floats


def _sinhc_root(v, steps):
    """u with sinh(u)/u = v > 1: `steps` Newton steps on the convex log(sinh(u)/u) from above."""
    u = min(math.sqrt(6.0 * (v - 1.0)), 2.0 * math.log(2.0 * v))
    for _ in range(steps if u > 1e-2 else 0):  # below 0.01 the bound is within u^3/20
        f = u + math.log(-math.expm1(-2.0 * u) / (2.0 * u)) - math.log(v)
        u -= f / (1.0 / math.tanh(u) - 1.0 / u)
    return u


def _theta_root(ratio, steps):
    """theta in (0, pi] with (pi - theta)/sin(theta) = ratio >= 1: `steps` Newton steps from below."""
    theta = max(math.pi / (1.0 + ratio), math.pi - math.sqrt(6.0 * (ratio - 1.0)))
    for _ in range(steps):
        theta += (math.pi - theta - ratio * math.sin(theta)) / (1.0 + ratio * math.cos(theta))
    return theta


def g_inverse(v: float) -> float:
    """Unique r in (-pi^2, inf) with g(r) = v, for v > 0.

    Newton from a bound in whichever variable keeps the equation well
    conditioned: r itself for |v - 1| < 1e-3, u = sqrt(r) above that band,
    and eps = pi - sqrt(-r) below it, where sin(eps)/(pi - eps) = v.  The
    result has |g(r) - v| <= 1e-10 v, or, near -pi^2 where consecutive floats
    r give values of g more than 1e-10 v apart, lies within 4 ulps of the
    root.  AccuracyError below g(nextafter(-pi^2, 0)) = 1.8e-16,
    where no float r above -pi^2 brackets v, and whenever the result misses.
    """
    if v <= 0:
        raise ValueError(f"g_inverse needs v > 0, got {v}")
    if v < _G_FLOOR:
        raise AccuracyError(f"g_inverse({v}): below g at the smallest float r above -pi^2")
    if abs(v - 1.0) < 1e-3:
        r = 6.0 * (v - 1.0)
        for _ in range(3):
            r -= (g(r) - v) / g_prime(r)
    elif v > 1.0:
        r = _sinhc_root(v, 6) ** 2
    else:
        r = -((np.pi - _theta_root(1.0 / v, 6)) ** 2)
    if not (r > -PI_SQ and abs(g(r) - v) <= 1e-10 * v + 4.0 * math.ulp(r) * g_prime(r)):
        raise AccuracyError(f"g_inverse({v}): no float r above -pi^2 has g(r) near v")
    return r


# ---------------------------------------------------------------------------
# The value function of Prop.-type closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsianEndpoints:
    """Steering data: start (x1,y1,t1) to end (x0,y0,t0).

    Requires x1, x0 > 0, t0 < t1 and y0 > y1 (paths increase y while the time
    coordinate decreases).
    """

    x1: float
    y1: float
    t1: float
    x0: float
    y0: float
    t0: float

    def __post_init__(self):
        if self.x1 <= 0 or self.x0 <= 0:
            raise ValueError("price coordinates must be positive")
        if not self.t0 < self.t1:
            raise ValueError("need t0 < t1")
        if not self.y0 > self.y1:
            raise ValueError("need y0 > y1")

    @property
    def horizon(self) -> float:
        return self.t1 - self.t0


def value_psi_details(e: AsianEndpoints) -> dict:
    """Psi with its intermediate quantities (q, r, E, branch, both threshold readings)."""
    T = e.horizon
    dy = e.y0 - e.y1
    root = np.sqrt(e.x1 * e.x0)
    q = dy / (T * root)
    r = g_inverse(q)
    E = 4.0 * r / T**2
    # 4 sqrt(r + g(r)^-2) / T = 8 sqrt(x1 x0) |C(r)| / dy with C = cosh sqrt(r)
    # or cos sqrt(-r): the sign of C is the branch, so no radicand cancels
    C = math.cosh(math.sqrt(r)) if r >= 0 else math.cos(math.sqrt(-r))
    psi = E * T + 4.0 * (e.x1 + e.x0 - 2.0 * root * C) / dy
    first_branch = r >= -PI_SQ / 4.0
    return {
        "q": q,
        "r": r,
        "E": E,
        "psi": max(psi, 0.0),
        "branch": "first" if first_branch else "second",
        # threshold readings: implemented rule on r, printed rule on E
        "branch_rule_r": first_branch,
        "branch_rule_printed_E": E >= -PI_SQ / T,
    }


def value_psi(e: AsianEndpoints) -> float:
    """Minimal control energy steering the start endpoint to the end endpoint."""
    return value_psi_details(e)["psi"]


# ---------------------------------------------------------------------------
# HJB residual and its convention calibration
# ---------------------------------------------------------------------------

# (triple, drift_sign): derivatives act in the first or second argument
# triple, Y = drift_sign * x d_y - d_t with that triple's coordinates.
HJB_CANDIDATES = (
    ("first", +1),
    ("first", -1),
    ("second", +1),
    ("second", -1),
)


def _kolm_residual_analytic(conv, pts):
    """max |Y psi0 + (X psi0)^2/4| over pts, via closed-form derivatives."""
    triple, sgn = conv
    worst = 0.0
    for (x, y, t, xi, eta, tau) in pts:
        s = t - tau
        u = x - xi
        w = eta - y - s * (x + xi) / 2.0
        dx = 2 * u / s - 12 * w / s**2
        dy = -24 * w / s**3
        dt = -(u**2) / s**2 - 12 * w * (x + xi) / s**3 - 36 * w**2 / s**4
        dxi = -2 * u / s - 12 * w / s**2
        deta = 24 * w / s**3
        dtau = -dt
        if triple == "first":
            res = sgn * x * dy - dt + 0.25 * dx * dx
        else:
            res = sgn * xi * deta - dtau + 0.25 * dxi * dxi
        worst = max(worst, abs(res))
    return worst


def calibrate_hjb_convention(n_points: int = 200, seed: int = 3, tol: float = 1e-8):
    """Find the argument-triple/drift-sign convention in which the HJB holds.

    Runs all four candidates on the Kolmogorov closed form psi0 at random
    points; exactly one residual vanishes identically.  Returns
    (winning_convention, {convention: max_residual}).
    """
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(n_points):
        x, y, xi, eta = rng.normal(size=4) * 1.5
        t = 1.0 + abs(rng.normal())
        tau = t - (0.3 + abs(rng.normal()))
        pts.append((x, y, t, xi, eta, tau))
    table = {conv: _kolm_residual_analytic(conv, pts) for conv in HJB_CANDIDATES}
    winners = [conv for conv, res in table.items() if res <= tol]
    if len(winners) != 1:
        raise RuntimeError(f"calibration did not isolate one convention: {table}")
    return winners[0], table


# the convention calibrate_hjb_convention isolates
HJB_CONVENTION = ("second", 1)


def hjb_residual(e: AsianEndpoints, fd_step: float, convention=HJB_CONVENTION) -> float:
    """Signed HJB residual Y Psi + (X Psi)^2/4 at the endpoint pair.

    Central differences with step `fd_step` in the given convention
    (X = x d_x, Y = sign * x d_y - d_t acting in the given triple); the
    value is O(fd_step^2) plus the Psi solver tolerance.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    triple, sgn = convention
    base = np.array([e.x1, e.y1, e.t1, e.x0, e.y0, e.t0])
    off = 0 if triple == "first" else 3

    def psi_of(vec):
        return value_psi(AsianEndpoints(*vec))

    def deriv(i):
        step = np.zeros(6)
        step[off + i] = fd_step
        try:
            return (psi_of(base + step) - psi_of(base - step)) / (2.0 * fd_step)
        except ValueError as exc:
            raise ValueError(f"fd stencil leaves the endpoint domain: {exc}") from exc

    xval = base[off]
    X = xval * deriv(0)
    Y = sgn * xval * deriv(1) - deriv(2)
    return float(Y + 0.25 * X * X)


# ---------------------------------------------------------------------------
# Yor's oscillatory integral and joint density
# ---------------------------------------------------------------------------

YOR_T_WINDOW = (0.25, 4.0)
_PATH_SEGMENTS = 4


@lru_cache(maxsize=None)
def _gauss_pair(n):
    """Gauss-Legendre rules with n and 2n nodes on [-1, 1]: all nodes, and a (2, 3n) weight matrix."""
    (x_n, w_n), (x_2n, w_2n) = leggauss(n), leggauss(2 * n)
    weights = np.zeros((2, 3 * n))
    weights[0, :n], weights[1, n:] = w_n, w_2n
    return np.concatenate((x_n, x_2n)), weights


def _yor_contour(z, t, log_scale, tol, rtol=0.0):
    """e^(log_scale + pi^2/2t) yor_psi(z, t), the scale applied before any rounding.

    The polygon follows the zero-phase path of h(u) = -(u - i pi)^2/2t -
    z cosh u, (pi - theta)/sin(theta) = z t sinh(s)/s at u = s + i theta,
    with the lower bound of ``_theta_root`` for theta.  It starts at the saddle, near i theta0
    if z t > 1, else at s0 + i pi with sinh(s0)/s0 = 1/(z t); h0 = Re h
    there.  Estimates with n and 2n nodes per segment must differ by less
    than `tol` (absolute, on the scaled value) plus `rtol` times their size.
    """
    zt = z * t
    s0 = _sinhc_root(1.0 / zt, 6) if zt < 1.0 else 0.0
    theta0 = _theta_root(max(zt, 1.0), 0)  # the bounds are close enough for the path
    h0 = ((math.pi - theta0) ** 2 - s0**2) / (2.0 * t) - z * math.cosh(s0) * math.cos(theta0)
    # once zt sinh(s)/s >= 3 the path lies below pi/3, where Re h <= (pi^2 - s^2)/2t - z cosh(s)/2
    s_max = max(s0, 1.0)
    while (zt * math.sinh(s_max) / s_max < 3.0
           or (PI_SQ - s_max**2) / (2.0 * t) - 0.5 * z * math.cosh(s_max) > h0 - 40.0):
        if s_max > 300.0:  # e^s_max would leave float range
            raise AccuracyError(f"yor_psi({z}, {t}): the integrand decays too slowly for float64")
        s_max *= 1.25
    s = [s0 + (s_max - s0) * (k / _PATH_SEGMENTS) ** 2 for k in range(1, _PATH_SEGMENTS + 1)]
    path = np.array([complex(s0, theta0)]
                    + [complex(v, _theta_root(zt * math.sinh(v) / v, 0)) for v in s])
    half = 0.5 * (path[1:] - path[:-1])
    log_scale += h0
    tol_j = tol * math.exp(min(-log_scale, 700.0))
    n = 16
    while n <= 128:  # Gauss-Legendre nodes per segment, and twice that
        x, weights = _gauss_pair(n)
        u = (path[:-1] + half)[:, None] + half[:, None] * x
        eu, w = np.exp(u), u - 1j * np.pi
        inv = 1.0 / eu
        f = np.exp((-0.5 / t) * (w * w) - (0.5 * z) * (eu + inv) - h0) * (eu - inv)
        coarse, fine = 0.5 * np.imag(half @ f @ weights.T)
        if abs(fine - coarse) < tol_j + rtol * abs(fine):
            return float(np.exp(log_scale) * fine)
        n *= 2
    raise AccuracyError(f"yor_psi({z}, {t}) did not settle to {tol} with {n} nodes per segment")


def yor_psi(z: float, t: float, tol: float = 1e-12) -> float:
    """Oscillatory integral int_0^inf e^{-u^2/2t} e^{-z cosh u} sinh u sin(pi u/t) du.

    With sin(pi u/t) = Im e^{i pi u/t} it is e^{-pi^2/2t} Im of the integral
    of e^{-(u - i pi)^2/2t - z cosh u} sinh u, whose integrand is entire and
    real on the imaginary axis and on Im u = pi.  So the contour runs along
    those to a saddle, and only the steepest-descent path from there adds to
    the imaginary part.  That path does not oscillate, so float64
    Gauss-Legendre on four segments along it works for any t.  The node count
    doubles until two estimates differ by less than `tol`, an absolute
    bound; AccuracyError if they never do, or if the integrand still matters
    past Re u = 300.  Since the value is at most about e^{-pi^2/2t}, at small
    t that bound holds at once and enforces no relative accuracy; spot checks
    against a 200-digit reference found at most 1e-14 relative error at t
    from 0.05 to 0.25 and z from 0.02 to 1, which the stopping rule does not
    guarantee.
    """
    if z <= 0 or t <= 0:
        raise ValueError("yor_psi needs z > 0 and t > 0")
    return _yor_contour(z, t, -PI_SQ / (2.0 * t), tol)


def yor_density(x, y, t, x0, y0):
    """Joint density of (X_t, Y_t) for X = x0 e^{sqrt 2 W}, Y = y0 + (x0/2) int e^{sqrt 2 W}.

    Zero for y <= y0.  Yor's formula with psi at time t/2: its e^{pi^2/t}
    prefactor cancels against the contour form of ``yor_psi`` before any
    arithmetic.  Estimates of the density p with n and 2n nodes per segment
    must agree within 1e-10 (p + 1e-3).  The supported window is t in
    [0.25, 4], where the density is checked against a high-precision
    reference to 1e-9 relative plus 1e-12 absolute; outside it the call
    refuses with AccuracyError.
    """
    if x <= 0 or x0 <= 0:
        raise ValueError("price coordinates must be positive")
    if not (YOR_T_WINDOW[0] <= t <= YOR_T_WINDOW[1]):
        raise AccuracyError(f"yor_density is supported for t in {list(YOR_T_WINDOW)}, got t={t}")
    if y <= y0:
        return 0.0
    dy = y - y0
    log_pref = 0.5 * math.log(x0 / x) - 2.0 * math.log(dy) - (x + x0) / (2.0 * dy)
    log_pref -= math.log(2.0 * np.pi * math.sqrt(np.pi * t))
    return _yor_contour(np.sqrt(x * x0) / dy, 0.5 * t, log_pref, 1e-13, 1e-10)


def variance_formulas(x0: float, t: float):
    """(Var X_t, Var Y_t, small-t Var X, small-t Var Y) for the price pair.

    Var X = x0^2 e^{2t} (e^{2t} - 1) = 2 x0^2 t + o(t);
    Var Y = x0^2 ((e^{4t}-1)/6 - 2(e^t-1)/3 - (e^t-1)^2) = (2/3) x0^2 t^3 + o(t^3).
    """
    if x0 <= 0 or t <= 0:
        raise ValueError("x0 and t must be positive")
    var_x = x0**2 * np.exp(2 * t) * (np.exp(2 * t) - 1.0)
    em1 = np.expm1(t)
    var_y = x0**2 * (np.expm1(4 * t) / 6.0 - 2.0 * em1 / 3.0 - em1**2)
    return var_x, var_y, 2.0 * x0**2 * t, (2.0 / 3.0) * x0**2 * t**3


def asian_envelope(side, eps, consts, x, y, t, x0, y0, t0):
    """Two-sided envelope for the average-price kernel.

    lower: c_eps/(x0^2 (t-t0)^2) * exp(-C * Psi(x, y + x0 eps (t-t0), t - eps (t-t0); x0,y0,t0)),
    valid (and positive) only on y < y0 - x0 eps (t-t0); 0 elsewhere on the
    support complement.  upper: C_eps/(x0^2 (t-t0)^2) * exp(-c * Psi(x, y - x0 eps, t + eps; x0,y0,t0)).
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    if x <= 0 or x0 <= 0 or t <= t0:
        raise ValueError("need x, x0 > 0 and t > t0")
    amplitude, rate = consts
    gap = t - t0
    pref = amplitude / (x0**2 * gap**2)
    if side == "lower":
        if y >= y0 - x0 * eps * gap:
            return 0.0
        e = AsianEndpoints(x, y + x0 * eps * gap, t - eps * gap, x0, y0, t0)
        return pref * np.exp(-rate * value_psi(e))
    if y - x0 * eps >= y0:
        raise ValueError("upper envelope stencil leaves the support")
    e = AsianEndpoints(x, y - x0 * eps, t + eps, x0, y0, t0)
    return pref * np.exp(-rate * value_psi(e))
