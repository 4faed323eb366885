"""Regime classification and bound envelopes for dxx + x^2 dy - dt.

The fundamental solution Gamma(x,y,t; xi,eta,tau) of the quadratic-drift
operator is the transition density from (x,y) to (xi,eta) over t - tau;
since the Y-component integrates a square it only moves upward, so the
kernel vanishes for eta - y <= 0 and the two-sided bounds split into a far
regime (Gaussian-like tail in (eta-y)/(t-tau)^2) and a near regime
(small-ball factor exp(-C (x^4+xi^4+(t-tau)^2)/(eta-y))).  The band between
the printed far and near windows carries no stated bound and is reported
as UNCLASSIFIED.

Coordinate note: the lifted model state is (x, y, w, t) while the attainable
set of the origin is printed, and implemented, in the order (x, w, y, t);
`reachable_cloud` below is the brute-force oracle for that predicate.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "Regime",
    "regime_classify",
    "regime_envelope",
    "support_fraction",
    "reachable_cloud",
    "certify_grid_reachability",
    "far_near_shape_fits",
]

BOX = 1.0  # the reachability sweep keeps the open box ]-1, 1[^3 of `attainable_quadratic`
# the histogram of `far_near_shape_fits`
X_BAND, MIN_COUNT, Y_MAX, NEAR_HI, NEAR_WIDTH = 0.15, 25, 8.0, 0.12, 0.006


class Regime(Enum):
    ZERO = "zero"
    FAR = "far"
    NEAR = "near"
    UNCLASSIFIED = "unclassified"


def regime_classify(x, y, t, xi, eta, tau) -> Regime:
    """Classify a kernel argument pair into the bound regimes.

    ZERO iff eta - y <= 0 (or t <= tau); FAR if the normalized upward drift
    (eta-y)/(t-tau)^2 exceeds (x^2+xi^2)/(t-tau) + 1; NEAR if it lies in
    (0, 1/2); UNCLASSIFIED in the remaining band.
    """
    if eta - y <= 0 or t <= tau:
        return Regime.ZERO
    gap = t - tau
    ratio = (eta - y) / gap**2
    if ratio > (x * x + xi * xi) / gap + 1.0:
        return Regime.FAR
    if ratio < 0.5:
        return Regime.NEAR
    return Regime.UNCLASSIFIED


def regime_envelope(regime: Regime, consts, x, y, t, xi, eta, tau):
    """Envelope value amplitude * (t-tau)^(-5/2) * exp(-rate * shape).

    shape is (x-xi)^2/(t-tau) + (eta-y)/(t-tau)^2 in the FAR regime and
    (x^4 + xi^4 + (t-tau)^2)/(eta-y) in the NEAR regime; ZERO returns 0.
    """
    if regime is Regime.ZERO:
        return 0.0
    if regime is Regime.UNCLASSIFIED:
        raise ValueError("no bound is stated for the unclassified band")
    amplitude, rate = consts
    gap = t - tau
    if gap <= 0:
        raise ValueError("regime_envelope requires t > tau")
    if regime is Regime.FAR:
        shape = (x - xi) ** 2 / gap + (eta - y) / gap**2
    else:
        shape = (x**4 + xi**4 + gap**2) / (eta - y)
    return amplitude * gap ** (-2.5) * np.exp(-rate * shape)


def support_fraction(endpoints, y0: float) -> float:
    """Fraction of sampled endpoints whose Y coordinate fell to y0 or below.

    The Y component integrates (x0 + W)^2, so for genuine samples this is 0;
    the operation exists to audit sampler output.
    """
    endpoints = np.atleast_2d(np.asarray(endpoints, dtype=float))
    if endpoints.shape[0] == 0:
        raise ValueError("empty endpoint batch")
    return float(np.mean(endpoints[:, 1] <= y0))


# ---------------------------------------------------------------------------
# Brute-force reachability oracle for the lifted system
# ---------------------------------------------------------------------------

def _dedup(states, dedup, box):
    """Lattice dedup, keeping the first-visited state of each cell, in visit order.

    The states lie in the open box ]-box, box[^3 (or at the origin), so each
    lattice coordinate k = round(state/dedup) has |k| < H = ceil(box/dedup) + 1
    and the cell packs into one int64 ((kx+H) B + (kw+H)) B + (ky+H) with
    B = 2H + 1.  ValueError when B^3 does not fit in an int64.

    One unstable argsort groups equal keys, and a minimum reduce over each
    group gives the cell's first visit.  np.unique(..., return_index=True)
    returns the same indices but pays for a stable sort.
    """
    half = math.ceil(box / dedup) + 1
    base = 2 * half + 1
    if base**3 > np.iinfo(np.int64).max:
        raise ValueError(f"box/dedup = {box / dedup:g} is too fine a lattice to pack")
    if states.shape[0] == 0:
        return states
    kx, kw, ky = (np.round(states / dedup).astype(np.int64) + half).T
    keys = (kx * base + kw) * base + ky
    order = np.argsort(keys)
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    first = np.minimum.reduceat(order, starts)
    first.sort()
    return states[first]


def _sweep(duration, n_steps, control_mag, dedup):
    """Layered control sweep of the lifted system from the origin.

    Yields the origin, then each layer of (x, w, y) states after the box
    pruning and before its lattice dedup; the next layer grows from the
    deduplicated one.
    """
    dt = duration / n_steps
    controls = (-control_mag, 0.0, control_mag)
    states = np.zeros((1, 3))
    yield states
    for _ in range(n_steps):
        x, w, y = _dedup(states, dedup, BOX).T
        # exact constant-control step for this chain of integrators, one
        # column at a time; the control-free terms are shared by all three
        w0 = w + x * dt
        y0 = y + x**2 * dt
        x1 = np.concatenate([x + u * dt for u in controls])
        w1 = np.concatenate([w0 + 0.5 * u * dt**2 for u in controls])
        y1 = np.concatenate([y0 + x * u * dt**2 + u**2 * dt**3 / 3.0 for u in controls])
        keep = (np.abs(x1) < BOX) & (np.abs(w1) < BOX) & (np.abs(y1) < BOX)
        states = np.stack([x1[keep], w1[keep], y1[keep]], axis=1)
        yield states


def reachable_cloud(duration: float, n_steps: int = 40, control_mag: float = 8.0,
                    dedup: float = 0.02):
    """Endpoints reachable from the origin by the lifted control system.

    Explores controls in {-a, 0, +a}^n_steps for the dynamics x' = omega,
    w' = x, y' = x^2 (t' = -1), pruning states that leave the open box
    ]-BOX, BOX[^3 and deduplicating on a lattice of pitch `dedup` (the layered
    sweep visits the same states as the depth-first enumeration).  Returns
    the (n, 3) array of reached (x, w, y) states at path time `duration`,
    i.e. at t = -duration.
    """
    for states in _sweep(duration, n_steps, control_mag, dedup):
        pass
    return _dedup(states, dedup, BOX)


def certify_grid_reachability(duration, axis, eps=5e-3, n_steps=40,
                              control_mag=8.0, dedup=0.02):
    """Grid points provably reachable at t = -duration, by epsilon-witness.

    Runs the same layered control sweep as :func:`reachable_cloud` and marks,
    before each dedup merge, the (x, w, y) grid point of `axis`^3 nearest to
    every visited state when the state lies within Chebyshev distance `eps`
    of it.  A grid point is certified when some state passed within `eps`.
    Since every exact trajectory state satisfies the attainable-set
    inequalities (Cauchy-Schwarz gives w^2 <= duration * y, and
    0 <= y <= duration inside the box), a certified point lies within eps of
    the true attainable set.  `axis` must hold at least two evenly spaced
    points (to 1e-9 of its pitch); ValueError otherwise.
    """
    axis = np.asarray(axis, dtype=float)
    na = axis.size
    if axis.ndim != 1 or na < 2:
        raise ValueError("axis needs at least two points")
    pitch = axis[1] - axis[0]
    lo = axis[0]
    drift = np.max(np.abs(axis - (lo + np.arange(na) * pitch)))
    if not (pitch != 0 and drift <= 1e-9 * abs(pitch)):
        raise ValueError("axis must be evenly spaced")
    hit = np.zeros(na**3, dtype=bool)
    for states in _sweep(duration, n_steps, control_mag, dedup):
        idx = np.clip(np.rint((states - lo) / pitch).astype(np.int64), 0, na - 1)
        dx, dw, dy = np.abs(states - (lo + idx * pitch)).T
        ix, iw, iy = idx.T
        near = np.maximum(np.maximum(dx, dw), dy) <= eps
        hit[((ix * na + iw) * na + iy)[near]] = True
    return hit.reshape(na, na, na)


def _affine_fit(xs, ys):
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = icpt + slope * xs
    ss_res = np.sum((ys - pred) ** 2)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    return slope, 1.0 - ss_res / ss_tot


def far_near_shape_fits(endpoints, gap: float = 1.0):
    """Log-density shape fits in the two bound regimes of the quadratic model.

    Histograms (X, Y)-endpoints started at the origin, restricted to the
    |x| < X_BAND slice.  Far regime: log density against dy/gap^2 over
    dy/gap^2 > 1.  Near regime: log density against 1/dy over the deep
    suppression flank dy/gap^2 <= NEAR_HI of the near window (the affine
    shape of the small-ball factor exp(-C gap^2/dy) is the dy -> 0
    asymptotic; closer to the conditional mode the subexponential terms
    dominate and no affine law can hold).  Far cells end at dy = Y_MAX, near
    cells are NEAR_WIDTH gap^2 wide, and a fit takes the cells holding at
    least MIN_COUNT endpoints.  Returns slopes and R^2 per regime.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    sel = np.abs(endpoints[:, 0]) < X_BAND
    dy = endpoints[sel, 1]
    n_band = dy.size
    out = {}

    far_edges = np.arange(gap**2, Y_MAX + 1e-12, 0.2 * gap**2)
    counts, _ = np.histogram(dy, bins=far_edges)
    centers = 0.5 * (far_edges[:-1] + far_edges[1:])
    dens = counts / (n_band * (far_edges[1] - far_edges[0]))
    good = counts >= MIN_COUNT
    if good.sum() >= 4:
        out["far_slope"], out["far_r2"] = _affine_fit(
            centers[good] / gap**2, np.log(dens[good])
        )

    near_edges = np.arange(0.0, NEAR_HI * gap**2 + 1e-12, NEAR_WIDTH * gap**2)
    counts, _ = np.histogram(dy, bins=near_edges)
    centers = 0.5 * (near_edges[:-1] + near_edges[1:])
    dens = counts / (n_band * (near_edges[1] - near_edges[0]))
    good = counts >= MIN_COUNT
    if good.sum() >= 4:
        out["near_slope"], out["near_r2"] = _affine_fit(
            1.0 / centers[good], np.log(dens[good])
        )
    return out
