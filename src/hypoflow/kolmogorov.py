"""Closed forms for the Kolmogorov operator dxx + x dy - dt.

Argument convention (used consistently across the package): in
``gamma0(x, y, t, xi, eta, tau)`` and ``psi0(...)`` the *first* triple is the
starting space-time point at the larger time t and the second triple is the
arrival point at time tau < t, i.e. gamma0 is the probability density that
the diffusion started at (x, y) lands at (xi, eta) after elapsed time
s = t - tau.  With this orientation both closed forms are exactly invariant
under the group law of :data:`hypoflow.models.KOLMOGOROV` and homogeneous
under its dilation, and psi0(z0, z1) is the minimal control energy of the
admissible paths steering z0 to z1.

The diffusion normalization is dX = sqrt(2) dW, dY = X dt, matching the
operator written with a clean second derivative.  The exact Gaussian law of
(X, Y) is ``montecarlo.exact_law(KOLMOGOROV, start, s)``: mean
(x0, y0 + s x0) and covariance [[2s, s^2], [s^2, 2 s^3 / 3]], whose density is
gamma0(x0, y0, tau + s, ., ., tau).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import ControlPath

__all__ = [
    "GaussianLaw",
    "gamma0",
    "psi0",
    "optimal_control_kolmogorov",
]

_PREF = np.sqrt(3.0) / (2.0 * np.pi)


@dataclass(frozen=True)
class GaussianLaw:
    """Mean vector and symmetric PSD covariance of a Gaussian vector."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        # eigvalsh is accurate to about dim * eps * |lambda_max|, so a
        # rounding-level negative eigenvalue of a large covariance is not a defect
        eig = np.linalg.eigvalsh(cov)
        tol = max(1e-12, mean.size * np.finfo(float).eps * eig.max())
        if eig.min() < -tol:
            raise ValueError(f"covariance not PSD (min eigenvalue {eig.min():.3e})")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def sqrt_cov(self) -> np.ndarray:
        """Symmetric PSD square root (eigen-decomposition, negatives clipped)."""
        vals, vecs = np.linalg.eigh(self.cov)
        vals = np.clip(vals, 0.0, None)
        return (vecs * np.sqrt(vals)) @ vecs.T


def _quad_terms(x, y, t, xi, eta, tau):
    s = t - tau
    u = x - xi
    w = eta - y - s * (x + xi) / 2.0
    return s, u, w


def gamma0(x, y, t, xi, eta, tau):
    """Fundamental solution: density of arriving at (xi, eta) from (x, y).

    Returns 0 for t <= tau (support convention).  Vectorized over inputs.
    """
    x, y, t, xi, eta, tau = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (x, y, t, xi, eta, tau)]
    )
    s, u, w = _quad_terms(x, y, t, xi, eta, tau)
    out = np.zeros(s.shape)
    pos = s > 0
    sp = s[pos]
    val = _PREF / sp**2 * np.exp(-(u[pos] ** 2) / (4 * sp) - 3.0 * w[pos] ** 2 / sp**3)
    out[pos] = val
    if out.ndim == 0:
        return float(out)
    return out


def psi0(x, y, t, xi, eta, tau):
    """Value function: minimal control energy steering (x,y,t) to (xi,eta,tau).

    Requires t > tau.  gamma0 = sqrt(3)/(2 pi (t-tau)^2) * exp(-psi0/4).
    """
    x, y, t, xi, eta, tau = np.broadcast_arrays(
        *[np.asarray(v, dtype=float) for v in (x, y, t, xi, eta, tau)]
    )
    s, u, w = _quad_terms(x, y, t, xi, eta, tau)
    if np.any(s <= 0):
        raise ValueError("psi0 requires t > tau")
    out = u**2 / s + 12.0 * w**2 / s**3
    if out.ndim == 0:
        return float(out)
    return out


def optimal_control_kolmogorov(z0, z1, n_intervals: int = 32768) -> ControlPath:
    """Energy-minimizing control steering z0 = (x0,y0,t0) to z1 = (x1,y1,t1).

    The optimizer is affine in path time; it is returned as the exact
    least-energy piecewise-constant control on a uniform grid (its values are
    affine in the interval midpoints and the endpoint constraints hold
    exactly), whose cost exceeds psi0(z0, z1) by at most psi0/n_intervals^2.
    """
    z0 = np.asarray(z0, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    x0, y0, t0 = z0
    x1, y1, t1 = z1
    if t0 <= t1:
        raise ValueError("need t0 > t1 (admissible paths run down in time)")
    T = t0 - t1
    grid = np.linspace(0.0, T, n_intervals + 1)
    mids = 0.5 * (grid[:-1] + grid[1:])
    width = T / n_intervals
    # exact pc endpoint maps: x gains sum w_k width, y gains x0 T plus
    # sum w_k width (T - mid_k); least-norm solution is w = A^T lambda
    A = np.stack([np.full(n_intervals, width), width * (T - mids)])
    rhs = np.array([x1 - x0, (y1 - y0) - x0 * T])
    lam = np.linalg.solve(A @ A.T, rhs)
    return ControlPath(grid, (A.T @ lam)[:, None])
