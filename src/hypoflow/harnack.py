"""Harnack chains and the lower-bound envelopes they certify.

Two constructions: the segment walk through paraboloid slices used for
uniformly parabolic operators (each link exits the region

    P_r(x_j, t_j) = { (y,s) : 0 < t_j - s <= c r^2 < t_j, |y-x_j|^2 <= t_j - s }

with r = sqrt(t) along the straight segment to the target), and the
path-based construction for the degenerate models, which subdivides an
admissible path at fixed cost increments h.  A chain with k intermediate
links turns an invariant Harnack constant M into the multiplicative bound
u(end) >= u(start) / M^(k+1).

The constants in ChainParams are configuration: the existence results are
non-constructive, so the defaults (M=8, h=1, c=theta=1/2) are working values,
not canonical ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import AdmissiblePath

__all__ = [
    "ChainParams",
    "HarnackChain",
    "build_parabolic_chain",
    "build_path_chain",
    "chain_lower_bound",
]

MAX_PARABOLIC_LINKS = 1_000_000  # a chain has about |x - x0|^2 / (t0 - t) links; 1e5 take 5 ms


@dataclass(frozen=True)
class ChainParams:
    """Harnack-chain configuration: M > 1, h > 0, 0 < c < 1, 0 < theta < 1."""

    M: float = 8.0
    h: float = 1.0
    c: float = 0.5
    theta: float = 0.5

    def __post_init__(self):
        if not self.M > 1:
            raise ValueError("per-step constant M must exceed 1")
        if not self.h > 0:
            raise ValueError("cost granularity h must be positive")
        if not 0 < self.c < 1:
            raise ValueError("paraboloid height fraction c must lie in ]0,1[")
        if not 0 < self.theta < 1:
            raise ValueError("time fraction theta must lie in ]0,1[")


@dataclass(frozen=True)
class HarnackChain:
    """Ordered chain of space-time points from the start to the target.

    k counts the intermediate links, so the certified bound divides by
    M^(k+1); cum_costs carries the running path cost for path-based chains
    (zeros for segment chains).
    """

    points: np.ndarray
    k: int
    source: str
    cum_costs: np.ndarray = field(default=None)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 2:
            raise ValueError("a chain needs at least start and target")
        times = pts[:, -1]
        if not np.all(np.diff(times) < 0):
            raise ValueError("chain times must be strictly decreasing")
        if self.k != pts.shape[0] - 2:
            raise ValueError("k must equal len(points) - 2")
        costs = self.cum_costs
        costs = np.zeros(pts.shape[0]) if costs is None else np.asarray(costs, float)
        if costs.shape != (pts.shape[0],):
            raise ValueError("cum_costs must align with points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cum_costs", costs)

    @property
    def bound_exponent(self) -> int:
        return self.k + 1


def build_parabolic_chain(x0, t0, x, t, params: ChainParams) -> HarnackChain:
    """Walk the straight segment from (x0,t0) to (x,t) through P_r slices.

    Requires 0 < t0 - t < theta * t0.  Every link lies on the boundary of the
    current paraboloid (lateral face |y-x_j|^2 = t_j - s, or the bottom face
    t_j - s = c r^2 when the segment exits through it), with r = sqrt(t).

    The classical chain-length bound k <= ceil(|x-x0|^2/(t0-t)) + 1 is
    guaranteed whenever theta <= 2c/(1+2c) (the default theta = c = 1/2 sits
    exactly on this edge); for larger time fractions the segment can exit
    through the bottom face often enough to exceed it.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x0.shape != x.shape:
        raise ValueError("endpoint dimensions differ")
    dt_total = t0 - t
    if not (0 < dt_total < params.theta * t0):
        raise ValueError(
            f"need 0 < t0 - t < theta*t0, got t0-t={dt_total}, theta*t0={params.theta * t0}"
        )
    r_sq = t  # r = sqrt(t) > 0 since t > (1 - theta) t0 > 0
    d_sq = float(np.sum((x - x0) ** 2))

    # constant parameter step along the segment: lateral exit at dt/D^2,
    # bottom exit at c r^2 / dt (both relative to the full segment)
    lam_steps = [params.c * r_sq / dt_total]
    if d_sq > 0:
        lam_steps.append(dt_total / d_sq)
    dlam = min(lam_steps)
    if 1.0 / dlam > MAX_PARABOLIC_LINKS:
        raise ValueError(f"parabolic chain needs {1.0 / dlam:.3g} links, over {MAX_PARABOLIC_LINKS}")

    # i * dlam for every i whose predecessor is still more than dlam from the end
    lams = np.arange(int(np.ceil(1.0 / dlam)) + 2) * dlam
    lams = np.append(lams[: np.count_nonzero(1.0 - lams > dlam * (1 + 1e-12)) + 1], 1.0)
    pts = np.column_stack([x0 + lams[:, None] * (x - x0), t0 - lams * dt_total])
    return HarnackChain(pts, k=len(pts) - 2, source="segment")


def build_path_chain(model, path: AdmissiblePath, params: ChainParams) -> HarnackChain:
    """Subdivide an admissible path at cost increments h.

    The chain points are path samples taken whenever the running cost
    crosses a multiple of h, so k <= Phi(omega)/h + 1.
    """
    omega = path.control
    times = path.samples[0, -1] - np.arange(path.samples.shape[0]) * path.step
    # running cost at the sample times: piecewise linear between the
    # control breakpoints, so interpolation is exact
    sq = np.sum(omega.values**2, axis=1)
    edges = omega.grid
    cum_edges = np.append(0.0, np.cumsum(sq * np.diff(edges)))
    cum = np.interp(times[0] - times, edges, cum_edges)

    idx = [0]
    level = params.h
    for i in range(1, len(cum)):
        if cum[i] >= level - 1e-15 and i < len(cum) - 1:
            idx.append(i)
            level = cum[i] + params.h
    idx.append(len(cum) - 1)
    idx = sorted(set(idx))
    pts = path.samples[idx]
    return HarnackChain(pts, k=len(idx) - 2, source="control-path", cum_costs=cum[idx])


def chain_lower_bound(chain: HarnackChain, params: ChainParams, u_at_start: float) -> float:
    """Certified lower bound u(start) / M^(k+1) for u at the chain end."""
    if u_at_start <= 0:
        raise ValueError("u_at_start must be positive")
    return u_at_start / params.M ** chain.bound_exponent
