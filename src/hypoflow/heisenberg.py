"""Carnot-Caratheodory distance and heat-kernel envelopes on the Heisenberg group.

The distance d(p, q) is the infimal horizontal length between p and q.  It is
computed by left-translating the pair to the origin (d(p,q) = d(0, p^-1 o q)),
canonicalizing the target through the group's isometries (rotation about the
w-axis, the reflection (x,y,w) -> (x,-y,-w), and the dilation normalization,
which make symmetry, left-invariance and homogeneity exact by construction),
and then solving the geodesic boundary problem in closed form (Gaveau, Acta
Math. 139, 1977; Beals-Gaveau-Greiner, J. Math. Pures Appl. 79, 2000).

Along geodesics the control rotates at a constant rate with constant norm r,
so the unit-time geodesic is a circular arc that turns through an angle c
and ends at

    rho = 2 r sin(c/2) / c,    w = r^2 (c - sin c) / (2 c^2).

The aspect ratio w / rho^2 increases in c, so bisection fixes c in
[0, 2 pi], and the distance is r: from the rho equation for c < pi, from the
w equation for c >= pi, where the chord shrinks to the w-axis.  The reported
residual is the gap between the target and that arc's exact endpoint.  An
optimization of the control energy over piecewise-constant controls serves
as the independent brute-force oracle.
"""

from __future__ import annotations

import ctypes
import functools
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.optimize import minimize

from .models import HEISENBERG
from .paths import ControlPath, path_cost

__all__ = [
    "CCResult",
    "CCBatch",
    "cc_distance",
    "cc_distance_batch",
    "cc_distance_brute",
    "ball_volume",
    "estimate_unit_ball_volume",
    "cc_envelope",
    "cc_table_csv",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CCResult:
    """Distance value with the geodesic control that realizes it."""

    distance: float
    control: ControlPath
    solver: str
    residual: float


class CCBatch(NamedTuple):
    """Distances d(0, target) with the endpoint residual of each geodesic arc."""

    distance: np.ndarray
    residual: np.ndarray


def _translate(p, q):
    """Spatial part of p^-1 o q; the time coordinate plays no role."""
    H = HEISENBERG
    return H.compose(H.inverse(np.append(p, 0.0)), np.append(q, 0.0))[:3]


# ---------------------------------------------------------------------------
# Closed-form geodesic arcs
# ---------------------------------------------------------------------------

# Taylor coefficients of (c - sin c) / (2 c^3) in powers of c^2, highest first
_AREA_SERIES = [(-1) ** k / (2.0 * math.factorial(2 * k + 3)) for k in range(6, -1, -1)]


def _area(c):
    """w-factor (c - sin c) / (2 c^2) of the arc endpoint, for c > 0.

    Below c = 0.5 a Taylor series avoids the cancellation in c - sin c.
    """
    c2 = c * c
    series = 0.0
    for coef in _AREA_SERIES:
        series = series * c2 + coef
    return np.where(c < 0.5, c * series, (c - np.sin(c)) / (2.0 * c2))


def _chord(c):
    """rho-factor 2 sin(c/2) / c of the arc endpoint, for c > 0."""
    return 2.0 * np.sin(0.5 * c) / c


def _mu(c):
    """Aspect ratio w / rho^2 of the arc endpoint, increasing on (0, 2 pi)."""
    return _area(c) / _chord(c) ** 2


def _solve_arcs(targets):
    """Closed-form geodesics to an (n, 3) array of (x, y, w) targets.

    Returns (distance, residual, c, r, angle, lam): the turning angle c and
    control norm r of the arc to the canonical target (rho, 0, |w|) / lam in
    the dilation-normalized frame, the target's planar angle and lam.  The
    residual is that arc's endpoint gap, scaled back by lam.
    """
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    x, y, w = t[:, 0], t[:, 1], t[:, 2]
    angle = np.arctan2(y, x)
    rho = np.hypot(x, y)
    wabs = np.abs(w)
    lam = np.maximum(np.maximum(rho, 2.0 * np.sqrt(wabs)), 1e-150)
    rho_n, w_n = rho / lam, wabs / lam**2

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rho_n > 0, w_n / rho_n**2, np.inf)
    lo = np.zeros_like(ratio)
    hi = np.full_like(ratio, TWO_PI)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        take = _mu(mid) < ratio
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    c = 0.5 * (lo + hi)
    # the chord equation degenerates on the w-axis, the area one at c -> 0
    r = np.where(c < np.pi, rho_n / _chord(c), np.sqrt(w_n / _area(c)))
    gap = np.hypot(r * _chord(c) - rho_n, r * r * _area(c) - w_n)
    return r * lam, gap * lam, c, r, angle, lam


def cc_distance_batch(targets) -> CCBatch:
    """Distances d(0, target) for an (n, 3) array of (x, y, w) targets.

    Canonicalization makes the rotation/reflection/dilation symmetries exact;
    the residual is the gap between each target and its arc's exact endpoint.
    """
    return CCBatch(*_solve_arcs(targets)[:2])


def _geodesic_control(c, r, angle, reflected, n_intervals=4096):
    """Rotating geodesic control, de-canonicalized, sampled pc at midpoints.

    The canonical solve targets (rho, 0, |w|); the original target is
    recovered by the x-axis reflection (x,y,w) -> (x,-y,-w) when w < 0
    (control map (c1,c2) -> (c1,-c2)) followed by the rotation to the
    target's planar angle.
    """
    mids = (np.arange(n_intervals) + 0.5) / n_intervals
    base = c * (mids - 0.5)
    c1 = r * np.cos(base)
    c2 = r * np.sin(base)
    if reflected:
        c2 = -c2
    ca, sa = np.cos(angle), np.sin(angle)
    vals = np.stack([ca * c1 - sa * c2, sa * c1 + ca * c2], axis=1)
    grid = np.linspace(0.0, 1.0, n_intervals + 1)
    return ControlPath(grid, vals)


def cc_distance(p, q) -> CCResult:
    """Carnot-Caratheodory distance between 3-points p and q.

    Left-translates to the origin and solves the geodesic arc in closed form;
    the result carries the rotating geodesic control, solver="closed-form" and
    the gap between the target and the arc's exact endpoint as residual.
    """
    target = _translate(p, q)
    dist, resid, c, r, angle, lam = (v[0] for v in _solve_arcs(target))
    ctrl = _geodesic_control(c, r * lam, angle, target[2] < 0)
    return CCResult(float(dist), ctrl, "closed-form", float(resid))


# ---------------------------------------------------------------------------
# Brute-force oracle: minimize the control energy over pc controls
# ---------------------------------------------------------------------------

def _pc_endpoint(vals, dt):
    """Exact endpoint of the pc-control horizontal path from the origin, with
    its (3, 2m) Jacobian in the flattened controls.

    x and y move linearly on each interval, so w = dt/2 sum(xbar v - ybar u)
    over the interval midpoints (xbar, ybar).
    """
    m = vals.shape[0]
    x, y = np.sum(vals, axis=0) * dt
    mids = (np.cumsum(vals, axis=0) - 0.5 * vals) * dt
    w = 0.5 * dt * np.sum(mids[:, 0] * vals[:, 1] - mids[:, 1] * vals[:, 0])
    jac = np.zeros((3, m, 2))
    jac[0, :, 0] = jac[1, :, 1] = dt
    jac[2, :, 0] = 0.5 * dt * (y - 2.0 * mids[:, 1])
    jac[2, :, 1] = 0.5 * dt * (2.0 * mids[:, 0] - x)
    return np.array([x, y, w]), jac.reshape(3, 2 * m)


@functools.cache
def _scipy_blas_threads():
    """(get, set) of the thread count of scipy's bundled OpenBLAS (no-ops if absent).

    SLSQP does its linear algebra there.  On the oracle's small problems extra
    threads buy nothing, and they keep spinning on another core after each call.
    """
    for path in Path(scipy.__file__).parent.parent.glob("scipy.libs/libscipy_openblas*"):
        with suppress(OSError, AttributeError):
            lib = ctypes.CDLL(str(path))
            return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    return (lambda: None), (lambda count: None)


@contextmanager
def _one_blas_thread():
    """Run scipy's BLAS on the calling thread only, restoring the count after."""
    get, set_ = _scipy_blas_threads()
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def cc_distance_brute(
    p, q, n_intervals: int = 20, seed: int = 0, restarts: int = 3, horizon: float = 1.0
):
    """Independent oracle: minimize Phi over pc controls steering p to q.

    Returns (length, control, cost) with length = sqrt(Phi * T) at the
    constant-norm reparametrization (Cauchy-Schwarz is an equality at the
    optimum), so cost approximates d^2 / horizon.
    """
    target = _translate(p, q)
    m = n_intervals
    dt = horizon / m

    def energy(flat):
        return float(np.sum(flat**2) * dt), 2.0 * dt * flat

    constraint = {
        "type": "eq",
        "fun": lambda flat: _pc_endpoint(flat.reshape(m, 2), dt)[0] - target,
        "jac": lambda flat: _pc_endpoint(flat.reshape(m, 2), dt)[1],
    }
    rng = np.random.default_rng(seed)
    best = None
    # straight-line start plus randomized restarts
    starts = [np.tile(target[:2] / horizon, (m, 1)).ravel()]
    for _ in range(restarts - 1):
        starts.append(starts[0] + rng.normal(scale=0.8, size=2 * m))
    with _one_blas_thread():
        for s0 in starts:
            res = minimize(
                energy,
                s0,
                jac=True,
                method="SLSQP",
                constraints=[constraint],
                options={"maxiter": 400, "ftol": 1e-14},
            )
            if res.success and (best is None or res.fun < best.fun):
                best = res
    if best is None:
        raise RuntimeError("brute-force control optimization failed to converge")
    vals = best.x.reshape(m, 2)
    ctrl = ControlPath(np.linspace(0.0, horizon, m + 1), vals)
    cost = path_cost(ctrl)
    return float(np.sqrt(cost * horizon)), ctrl, cost


# ---------------------------------------------------------------------------
# Metric balls and envelopes
# ---------------------------------------------------------------------------

def ball_volume(r: float, unit_volume: float) -> float:
    """|B_r| = unit_volume * r^Q with homogeneous dimension Q = 4."""
    if r <= 0 or unit_volume <= 0:
        raise ValueError("radius and unit volume must be positive")
    return unit_volume * r**4


def estimate_unit_ball_volume(n: int = 60000, seed: int = 7, chunk: int = 8192):
    """Monte Carlo rejection estimate of |B_1(0)| with a 99% CI half-width.

    Samples the cylinder rho <= 1, |w| <= 1/(2 pi), which contains the unit
    ball: d >= rho, and |w| on the unit sphere peaks at 1/(2 pi), the area
    under the half-circle geodesic (rho = 2/pi).
    Returns (volume, ci99).
    """
    rng = np.random.default_rng(seed)
    wcap = 1.0 / TWO_PI
    box_vol = np.pi * 2.0 * wcap
    hits = 0
    total = 0
    while total < n:
        k = min(chunk, n - total)
        u = rng.random(k)
        phi = rng.random(k) * TWO_PI
        rho = np.sqrt(u)
        pts = np.stack(
            [rho * np.cos(phi), rho * np.sin(phi), (2 * rng.random(k) - 1) * wcap],
            axis=1,
        )
        hits += int(np.sum(cc_distance_batch(pts).distance <= 1.0))
        total += k
    p_hat = hits / total
    vol = p_hat * box_vol
    ci = 2.5758 * box_vol * np.sqrt(p_hat * (1 - p_hat) / total)
    return vol, ci


def cc_envelope(side, consts, x, t, xi, tau, unit_volume, distance=None):
    """Heat-kernel envelope amplitude/|B_sqrt(t-tau)| * exp(-rate d^2/(t-tau)).

    The prefactor scales as (t-tau)^(-Q/2) with Q = 4, like the kernel:
    p_{lambda^2 t}(delta_lambda z) = lambda^(-4) p_t(z).  `distance`
    short-circuits the d(x, xi) solve when the caller has it.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    amplitude, rate = consts
    if t <= tau:
        raise ValueError("cc_envelope requires t > tau")
    gap = t - tau
    if distance is None:
        distance = cc_distance(np.asarray(x, float), np.asarray(xi, float)).distance
    vol = ball_volume(np.sqrt(gap), unit_volume)
    return amplitude / vol * np.exp(-rate * distance**2 / gap)


def cc_table_csv(pairs, results) -> str:
    """CSV rows: both points of each pair, distance, solver, residual."""
    lines = ["px,py,pw,qx,qy,qw,distance,solver,residual"]
    for (p, q), res in zip(pairs, results):
        vals = [f"{float(v):.17g}" for v in [*p, *q]]
        lines.append(
            ",".join(vals + [f"{res.distance:.17g}", res.solver, f"{res.residual:.17g}"])
        )
    return "\n".join(lines) + "\n"
