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
    "regime_table_csv",
]


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
    """
    half = math.ceil(box / dedup) + 1
    base = 2 * half + 1
    if base**3 > np.iinfo(np.int64).max:
        raise ValueError(f"box/dedup = {box / dedup:g} is too fine a lattice to pack")
    kx, kw, ky = (np.round(states / dedup).astype(np.int64) + half).T
    _, idx = np.unique((kx * base + kw) * base + ky, return_index=True)
    return states[np.sort(idx)]


def _sweep(duration, n_steps, control_mag, box, dedup):
    """Layered control sweep of the lifted system from the origin.

    Yields the origin, then each layer of (x, w, y) states after the box
    pruning and before its lattice dedup; the next layer grows from the
    deduplicated one.
    """
    dt = duration / n_steps
    states = np.zeros((1, 3))
    yield states
    for _ in range(n_steps):
        x, w, y = _dedup(states, dedup, box).T
        nxt = []
        for u in (-control_mag, 0.0, control_mag):
            # exact constant-control step for this chain of integrators
            x1 = x + u * dt
            w1 = w + x * dt + 0.5 * u * dt**2
            y1 = y + x**2 * dt + x * u * dt**2 + u**2 * dt**3 / 3.0
            nxt.append(np.stack([x1, w1, y1], axis=1))
        states = np.concatenate(nxt, axis=0)
        states = states[np.all(np.abs(states) < box, axis=1)]
        yield states


def reachable_cloud(
    duration: float,
    n_steps: int = 40,
    control_mag: float = 8.0,
    box: float = 1.0,
    dedup: float = 0.02,
):
    """Endpoints reachable from the origin by the lifted control system.

    Explores controls in {-a, 0, +a}^n_steps for the dynamics x' = omega,
    w' = x, y' = x^2 (t' = -1), pruning states that leave the open box
    ]-box, box[ and deduplicating on a lattice of pitch `dedup` (the layered
    sweep visits the same states as the depth-first enumeration).  Returns
    the (n, 3) array of reached (x, w, y) states at path time `duration`,
    i.e. at t = -duration.
    """
    for states in _sweep(duration, n_steps, control_mag, box, dedup):
        pass
    return _dedup(states, dedup, box)


def certify_grid_reachability(duration, axis, eps=5e-3, n_steps=40,
                              control_mag=8.0, box=1.0, dedup=0.02):
    """Grid points provably reachable at t = -duration, by epsilon-witness.

    Runs the same layered control sweep as :func:`reachable_cloud` but records,
    before each dedup merge, the smallest Chebyshev distance from any visited
    state to every (x, w, y) grid point of `axis`^3.  A grid point is
    certified when a state passed within `eps`.  Since every exact trajectory
    state satisfies the attainable-set inequalities (Cauchy-Schwarz gives
    w^2 <= duration * y, and 0 <= y <= duration inside the box), a certified
    point lies within eps of the true attainable set.
    """
    axis = np.asarray(axis, dtype=float)
    na = axis.size
    pitch = axis[1] - axis[0]
    lo = axis[0]
    best = np.full(na**3, np.inf)
    for states in _sweep(duration, n_steps, control_mag, box, dedup):
        idx = np.clip(np.rint((states - lo) / pitch).astype(np.int64), 0, na - 1)
        gaps = np.max(np.abs(states - (lo + idx * pitch)), axis=1)
        flat = (idx[:, 0] * na + idx[:, 1]) * na + idx[:, 2]
        np.minimum.at(best, flat, gaps)
    return (best <= eps).reshape(na, na, na)


def _affine_fit(xs, ys):
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = icpt + slope * xs
    ss_res = np.sum((ys - pred) ** 2)
    ss_tot = np.sum((ys - ys.mean()) ** 2)
    return slope, 1.0 - ss_res / ss_tot


def far_near_shape_fits(endpoints, gap: float = 1.0, x_band: float = 0.15,
                        min_count: int = 25, y_max: float = 8.0,
                        near_hi: float = 0.12, near_width: float = 0.006):
    """Log-density shape fits in the two bound regimes of the quadratic model.

    Histograms (X, Y)-endpoints started at the origin, restricted to the
    |x| < x_band slice.  Far regime: log density against dy/gap^2 over
    dy/gap^2 > 1.  Near regime: log density against 1/dy over the deep
    suppression flank dy/gap^2 <= near_hi of the near window (the affine
    shape of the small-ball factor exp(-C gap^2/dy) is the dy -> 0
    asymptotic; closer to the conditional mode the subexponential terms
    dominate and no affine law can hold).  Returns slopes and R^2 per regime.
    """
    endpoints = np.asarray(endpoints, dtype=float)
    sel = np.abs(endpoints[:, 0]) < x_band
    dy = endpoints[sel, 1]
    n_band = dy.size
    out = {}

    far_edges = np.arange(gap**2, y_max + 1e-12, 0.2 * gap**2)
    counts, _ = np.histogram(dy, bins=far_edges)
    centers = 0.5 * (far_edges[:-1] + far_edges[1:])
    dens = counts / (n_band * (far_edges[1] - far_edges[0]))
    good = counts >= min_count
    if good.sum() >= 4:
        out["far_slope"], out["far_r2"] = _affine_fit(
            centers[good] / gap**2, np.log(dens[good])
        )

    near_edges = np.arange(0.0, near_hi * gap**2 + 1e-12, near_width * gap**2)
    counts, _ = np.histogram(dy, bins=near_edges)
    centers = 0.5 * (near_edges[:-1] + near_edges[1:])
    dens = counts / (n_band * (near_edges[1] - near_edges[0]))
    good = counts >= min_count
    if good.sum() >= 4:
        out["near_slope"], out["near_r2"] = _affine_fit(
            1.0 / centers[good], np.log(dens[good])
        )
    return out


def regime_table_csv(rows) -> str:
    """CSV rows: regime, coordinates, envelope value, empirical density."""
    lines = ["regime,x,y,t,xi,eta,tau,envelope,empirical"]
    for regime, coords, env, emp in rows:
        vals = [f"{v:.17g}" for v in coords]
        lines.append(",".join([regime.value] + vals + [f"{env:.17g}", f"{emp:.17g}"]))
    return "\n".join(lines) + "\n"
