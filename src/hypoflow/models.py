"""Model registry for the degenerate diffusion families.

Each model bundles a Lie group law, an (optional) dilation group, and the
flow of the left-invariant vector fields X_1..X_m, Y that drive the
admissible-path ODE

    gamma'(s) = sum_k omega_k(s) X_k(gamma(s)) + Y(gamma(s)),

where Y always carries dt/ds = -1.  Because the fields are left-invariant,
the path from z under a constant control omega is the group translation
z o flow(omega, s), with flow(omega, s) = exp(s (omega.X + Y)) in closed
form; one Euler-Maruyama step of the SDE they drive (`em_step`) is the
translation by the step's increment (to first order in dt for the chain at
N >= 3).  Space-time points are plain 1-D numpy arrays ``[x_1, ..., x_N, t]``
with the time coordinate last; the group law, the inverse and the flow also
take arrays of points, shape (..., N+1), one point per last-axis row.

Registered models
-----------------
Heat(N)            additive group, dilation (x,t) -> (r x, r^2 t), Q = N
Heisenberg         (x,y,w,t), X1 = dx - y/2 dw, X2 = dy + x/2 dw, Q = 4
IteratedKolmogorov (x1..xN,t), X = dx1, Y = sum x_j dx_{j+1} - dt, Q = N^2;
                   Kolmogorov is N = 2: (x,y,t), X = dx, Y = x dy - dt, Q = 4
QuadraticLifted    (x,y,w,t), X = dx, Y = x^2 dy + x dw - dt
Asian              (x,y,t) with x > 0, X = x dx, Y = x dy - dt, no dilation
"""

from __future__ import annotations

import functools
from math import factorial

import numpy as np

__all__ = [
    "Model",
    "HEISENBERG",
    "KOLMOGOROV",
    "QUADRATIC_LIFTED",
    "ASIAN",
    "heat",
    "iterated_kolmogorov",
    "by_name",
    "group_compose",
    "group_inverse",
    "dilate",
    "attainable_quadratic",
    "DomainError",
    "UnsupportedOperationError",
]


class DomainError(ValueError):
    """Point outside the model's domain (e.g. Asian price x <= 0)."""


class UnsupportedOperationError(RuntimeError):
    """Operation not defined for the model (e.g. Asian dilation)."""


class Model:
    """A registered operator family; subclasses fill in the group structure."""

    name = "abstract"
    dim = 0          # spatial dimension N
    n_controls = 0   # number of diffusion fields m
    hom_dim = None   # spatial homogeneous dimension Q (None: no dilation)

    @property
    def has_dilation(self) -> bool:
        return self.hom_dim is not None

    # -- validation ---------------------------------------------------------

    def check_point(self, z):
        """z as a float array of one point, shape (dim+1,), or of points,
        shape (..., dim+1).  ValueError for a wrong length or a non-finite
        coordinate, DomainError for a point outside the domain."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.dim + 1,):
            raise ValueError(
                f"{self.name}: expected point of length {self.dim + 1}, got shape {z.shape}"
            )
        if not np.isfinite(z).all():
            raise ValueError(f"{self.name}: point has non-finite coordinates")
        self._check_domain(z)
        return z

    def _check_domain(self, z):
        pass

    # -- group structure ----------------------------------------------------

    def _pair(self, z0, z):
        """Checked operands of the group law.  One point pairs with every
        point of an array; two arrays pair point by point and must have the
        same shape."""
        z0, z = self.check_point(z0), self.check_point(z)
        if z0.ndim > 1 and z.ndim > 1 and z0.shape != z.shape:
            raise ValueError(
                f"{self.name}: cannot pair points of shapes {z0.shape} and {z.shape}"
            )
        return z0, z

    def compose(self, z0, z):
        """Group product z0 o z.  Either argument may be one point, shape
        (dim+1,), or an array of points, shape (..., dim+1): a point composes
        with every point of an array, two arrays of one shape compose point
        by point."""
        raise NotImplementedError

    def inverse(self, z):
        raise NotImplementedError

    def identity(self):
        return np.zeros(self.dim + 1)

    def dilation_weights(self):
        """Spatial dilation exponents (a_1..a_N); time exponent is always 2."""
        raise UnsupportedOperationError(f"{self.name} has no dilation group")

    def dilate(self, rho, z):
        if not self.has_dilation:
            raise UnsupportedOperationError(f"{self.name} has no dilation group")
        if rho <= 0:
            raise ValueError("dilation parameter must be positive")
        z = self.check_point(z)
        weights = np.append(self.dilation_weights(), 2.0)
        return z * rho ** weights

    # -- flow of the fields -------------------------------------------------

    def flow(self, omega, s):
        """exp(s (omega.X + Y)): the point that the constant control omega
        reaches from the identity after path time s.  An array of times gives
        one point per time, shape s.shape + (dim+1,)."""
        raise NotImplementedError

    def em_step(self, z, dw, dt, sigma):
        """One Euler-Maruyama step of dZ = sigma sum_k X_k(Z) o dW_k + Y(Z) dt
        (Stratonovich; for asian the Ito form adds the drift sigma^2/2 x dx),
        in place on the spatial rows z, shape (dim, k), from the Brownian
        increments dw, shape (n_controls, k).  Returns the number of clipped
        path-steps: an asian price that steps to x <= 0 is set to
        np.finfo(float).tiny."""
        raise NotImplementedError

    def exact_cov(self, h):
        """Covariance of the exact Gaussian law of the spatial endpoint after
        time h > 0 from the origin.  A Gaussian family adds this and nothing
        else to get `montecarlo.exact_law`; the rest raise DomainError."""
        raise DomainError(f"no exact law for model {self.name}")

    def __repr__(self):
        return f"<Model {self.name}>"


# ---------------------------------------------------------------------------
# Concrete models
# ---------------------------------------------------------------------------

class _Heat(Model):
    """Classical heat operator on R^N: uniformly parabolic reference model."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("Heat(N) needs N >= 1")
        self.name = f"heat{n}"
        self.dim = n
        self.n_controls = n
        self.hom_dim = n

    def compose(self, z0, z):
        z0, z = self._pair(z0, z)
        return z0 + z

    def inverse(self, z):
        return -self.check_point(z)

    def dilation_weights(self):
        return np.ones(self.dim)

    def flow(self, omega, s):
        s = np.expand_dims(s, -1)
        return np.concatenate([s * np.asarray(omega, dtype=float), -s], axis=-1)

    def em_step(self, z, dw, dt, sigma):
        z += sigma * dw
        return 0

    def exact_cov(self, h):
        return 2.0 * h * np.eye(self.dim)


class _Heisenberg(Model):
    """Sub-Laplacian heat operator on the Heisenberg group, (x,y,w,t)."""

    name = "heisenberg"
    dim = 3
    n_controls = 2
    hom_dim = 4

    def compose(self, z0, z):
        z0, z = self._pair(z0, z)
        (x0, y0, w0, t0), (x, y, w, t) = z0.T, z.T
        return np.array([x0 + x, y0 + y, w0 + w + 0.5 * (x0 * y - y0 * x), t0 + t]).T

    def inverse(self, z):
        return -self.check_point(z)

    def dilation_weights(self):
        return np.array([1.0, 1.0, 2.0])

    def flow(self, omega, s):
        return np.array([s * omega[0], s * omega[1], 0.0 * s, -s]).T

    def em_step(self, z, dw, dt, sigma):
        x, y, w = z
        w += sigma / 2.0 * (x * dw[1] - y * dw[0])
        x += sigma * dw[0]
        y += sigma * dw[1]
        return 0


class _IteratedKolmogorov(Model):
    """Iterated chain dx1^2 + x1 dx2 + ... + x_{N-1} dxN - dt; at N = 2 the
    kinetic Kolmogorov operator dxx + x dy - dt on (x,y,t), named "kolmogorov"."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("IteratedKolmogorov(N) needs N >= 2")
        self.name = "kolmogorov" if n == 2 else f"iterated_kolmogorov{n}"
        self.dim = n
        self.n_controls = 1
        self.hom_dim = n * n

    def _transport(self, t, x, out):
        """Add exp(-t B) x - x to `out` in place, for the nilpotent shift
        (B x)_j = x_{j-1}: the sum of (-t)^k/k! B^k x over 0 < k < N, with one
        time t per point of x."""
        n = self.dim
        t = np.expand_dims(t, -1)
        coef = 1.0
        for k in range(1, n):
            coef = coef * -t / k
            out[..., k:] += coef * x[..., :n - k]
        return out

    def compose(self, z0, z):
        z0, z = self._pair(z0, z)
        x0, t0 = z0[..., :-1], z0[..., -1]
        x, t = z[..., :-1], z[..., -1]
        return np.concatenate(
            [self._transport(t, x0, x + x0), np.expand_dims(t + t0, -1)], axis=-1
        )

    def inverse(self, z):
        z = self.check_point(z)
        x, t = z[..., :-1], z[..., -1]
        return np.concatenate([-self._transport(-t, x, x.copy()), np.expand_dims(-t, -1)], axis=-1)

    def dilation_weights(self):
        return 2.0 * np.arange(1, self.dim + 1) - 1.0

    def flow(self, omega, s):
        s = np.expand_dims(s, -1)
        return np.concatenate(
            [omega[0] * np.cumprod(s / np.arange(1.0, self.dim + 1), axis=-1), -s], axis=-1
        )

    def em_step(self, z, dw, dt, sigma):
        z[1:] += z[:-1] * dt
        z[0] += sigma * dw[0]
        return 0

    def exact_cov(self, h):
        """With dX^1 = sqrt(2) dW and dX^{j+1} = X^j dt,

            Cov(X^i, X^j) = 2 h^(i+j-1) / ((i-1)! (j-1)! (i+j-1)),

        so Var(X^j) is proportional to h^(2j-1), one power pair per dilation
        weight.  The powers of h are Python float powers; numpy's vector power
        can differ from them in the last bit."""
        n = self.dim
        idx = np.arange(1, n + 1)
        fact = np.array([factorial(i - 1) for i in idx], dtype=float)
        k = np.add.outer(idx, idx) - 1
        powers = np.array([float(h) ** j for j in range(2 * n)])
        return 2.0 * powers[k] / (np.outer(fact, fact) * k)


class _QuadraticLifted(Model):
    """Lifting of dxx + x^2 dy - dt to the group-invariant operator on (x,y,w,t)."""

    name = "quadratic_lifted"
    dim = 3
    n_controls = 1
    hom_dim = 8

    def compose(self, z0, z):
        z0, z = self._pair(z0, z)
        (x0, y0, w0, t0), (x, y, w, t) = z0.T, z.T
        return np.array([
            x + x0,
            y + y0 + 2.0 * x0 * w - t * x0 * x0,
            w + w0 - t * x0,
            t + t0,
        ]).T

    def inverse(self, z):
        x, y, w, t = self.check_point(z).T
        return np.array([-x, -y + 2.0 * x * w + t * x * x, -w - t * x, -t]).T

    def dilation_weights(self):
        return np.array([1.0, 4.0, 3.0])

    def flow(self, omega, s):
        w = omega[0]
        return np.array([s * w, s * s * s * w * w / 3.0, 0.5 * s * s * w, -s]).T

    def em_step(self, z, dw, dt, sigma):
        x, y, w = z
        y += x * x * dt
        w += x * dt
        x += sigma * dw[0]
        return 0


class _Asian(Model):
    """Average-price operator x^2 dxx + x dx + x dy - dt on x > 0; no dilation."""

    name = "asian"
    dim = 2
    n_controls = 1
    hom_dim = None

    def _check_domain(self, z):
        price = z[..., 0].min(initial=np.inf)
        if price <= 0:
            raise DomainError(f"asian: price coordinate must be positive, got {price}")

    def identity(self):
        return np.array([1.0, 0.0, 0.0])

    def compose(self, z0, z):
        z0, z = self._pair(z0, z)
        (x0, y0, t0), (x, y, t) = z0.T, z.T
        return np.array([x0 * x, y0 + x0 * y, t0 + t]).T

    def inverse(self, z):
        x, y, t = self.check_point(z).T
        return np.array([1.0 / x, -y / x, -t]).T

    def flow(self, omega, s):
        w = omega[0]
        return np.array([np.exp(s * w), np.expm1(s * w) / w if w != 0 else s, -s]).T

    def em_step(self, z, dw, dt, sigma):
        x, y = z
        x_new = x + sigma * x * dw[0] + 0.5 * sigma**2 * x * dt
        bad = x_new <= 0.0
        x_new[bad] = np.finfo(float).tiny
        y += 0.5 * (x + x_new) * dt
        x[:] = x_new
        return int(np.count_nonzero(bad))


HEISENBERG = _Heisenberg()
QUADRATIC_LIFTED = _QuadraticLifted()
ASIAN = _Asian()


@functools.cache
def heat(n: int) -> Model:
    """Heat operator model on R^n."""
    return _Heat(n)


@functools.cache
def iterated_kolmogorov(n: int) -> Model:
    """Iterated Kolmogorov chain on R^n (n >= 2); n = 2 is KOLMOGOROV."""
    return _IteratedKolmogorov(n)


KOLMOGOROV = iterated_kolmogorov(2)

_NAMED = {m.name: m for m in (HEISENBERG, KOLMOGOROV, QUADRATIC_LIFTED, ASIAN)}


def by_name(name: str) -> Model:
    """The registered model called `name`: heisenberg, kolmogorov,
    quadratic_lifted, asian, heatN or iterated_kolmogorovN."""
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("heat"):
        return heat(int(name[4:]))
    if name.startswith("iterated_kolmogorov"):
        return iterated_kolmogorov(int(name[len("iterated_kolmogorov"):]))
    raise DomainError(f"unknown model '{name}'")


# ---------------------------------------------------------------------------
# Operation-style wrappers
# ---------------------------------------------------------------------------

def group_compose(model: Model, z0, z):
    """Group product z0 o z in the model's Lie group."""
    return model.compose(z0, z)


def group_inverse(model: Model, z):
    """Group inverse: compose(inverse(z), z) is the identity."""
    return model.inverse(z)


def dilate(model: Model, rho: float, z):
    """Anisotropic dilation delta_rho; raises for models without one."""
    return model.dilate(rho, z)


def attainable_quadratic(z) -> bool:
    """Attainable set of the origin for the lifted quadratic model (closure).

    Takes the point in the order (x, w, y, t) -- note the w/y transposition
    relative to the model state (x, y, w, t); the set is

        { (x,w,y,t) : |coords| <= 1, 0 <= y <= -t  and  w^2 <= -t y },

    the closure of the open-box attainable set (all inequalities closed, as
    in the membership checks the Harnack construction actually uses).
    """
    x, w, y, t = np.asarray(z, dtype=float)
    if max(abs(x), abs(w), abs(y), abs(t)) > 1.0:
        return False
    return bool(0.0 <= y <= -t and w * w <= -t * y)
