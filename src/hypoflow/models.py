"""Model registry for the degenerate diffusion families.

Each model bundles a Lie group law, an (optional) dilation group, and the
flow of the left-invariant vector fields X_1..X_m, Y that drive the
admissible-path ODE

    gamma'(s) = sum_k omega_k(s) X_k(gamma(s)) + Y(gamma(s)),

where Y always carries dt/ds = -1.  Because the fields are left-invariant,
the path from z under a constant control omega is the group translation
z o flow(omega, s), with flow(omega, s) = exp(s (omega.X + Y)) in closed
form.  Space-time points are plain 1-D numpy arrays ``[x_1, ..., x_N, t]``
with the time coordinate last.

Registered models
-----------------
Heat(N)            additive group, dilation (x,t) -> (r x, r^2 t), Q = N
Heisenberg         (x,y,w,t), X1 = dx - y/2 dw, X2 = dy + x/2 dw, Q = 4
Kolmogorov         (x,y,t),   X = dx, Y = x dy - dt, Q = 4
IteratedKolmogorov (x1..xN,t), X = dx1, Y = sum x_j dx_{j+1} - dt, Q = N^2
QuadraticLifted    (x,y,w,t), X = dx, Y = x^2 dy + x dw - dt
Asian              (x,y,t) with x > 0, X = x dx, Y = x dy - dt, no dilation
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Model",
    "HEISENBERG",
    "KOLMOGOROV",
    "QUADRATIC_LIFTED",
    "ASIAN",
    "heat",
    "iterated_kolmogorov",
    "group_compose",
    "group_inverse",
    "dilate",
    "attainable_kolmogorov",
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
    has_dilation = True

    # -- validation ---------------------------------------------------------

    def check_point(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim + 1,):
            raise ValueError(
                f"{self.name}: expected point of length {self.dim + 1}, got shape {z.shape}"
            )
        if not np.all(np.isfinite(z)):
            raise ValueError(f"{self.name}: point has non-finite coordinates")
        self._check_domain(z)
        return z

    def _check_domain(self, z):
        pass

    def in_domain(self, z) -> bool:
        try:
            self.check_point(z)
        except (ValueError, DomainError):
            return False
        return True

    # -- group structure ----------------------------------------------------

    def compose(self, z0, z):
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
        reaches from the identity after path time s."""
        raise NotImplementedError

    def __repr__(self):
        return f"<Model {self.name}>"


# ---------------------------------------------------------------------------
# Concrete models
# ---------------------------------------------------------------------------

class _Heat(Model):
    """Classical heat operator on R^N: uniformly parabolic reference model."""

    has_dilation = True

    def __init__(self, n):
        if n < 1:
            raise ValueError("Heat(N) needs N >= 1")
        self.name = f"heat{n}"
        self.dim = n
        self.n_controls = n
        self.hom_dim = n

    def compose(self, z0, z):
        return self.check_point(z0) + self.check_point(z)

    def inverse(self, z):
        return -self.check_point(z)

    def dilation_weights(self):
        return np.ones(self.dim)

    def flow(self, omega, s):
        return np.append(s * np.asarray(omega, dtype=float), -s)


class _Heisenberg(Model):
    """Sub-Laplacian heat operator on the Heisenberg group, (x,y,w,t)."""

    name = "heisenberg"
    dim = 3
    n_controls = 2
    hom_dim = 4

    def compose(self, z0, z):
        x0, y0, w0, t0 = self.check_point(z0)
        x, y, w, t = self.check_point(z)
        return np.array([x0 + x, y0 + y, w0 + w + 0.5 * (x0 * y - y0 * x), t0 + t])

    def inverse(self, z):
        return -self.check_point(z)

    def dilation_weights(self):
        return np.array([1.0, 1.0, 2.0])

    def flow(self, omega, s):
        return np.array([s * omega[0], s * omega[1], 0.0, -s])


class _Kolmogorov(Model):
    """Kinetic Kolmogorov operator dxx + x dy - dt on (x,y,t)."""

    name = "kolmogorov"
    dim = 2
    n_controls = 1
    hom_dim = 4

    def compose(self, z0, z):
        x0, y0, t0 = self.check_point(z0)
        x, y, t = self.check_point(z)
        return np.array([x + x0, y + y0 - t * x0, t + t0])

    def inverse(self, z):
        x, y, t = self.check_point(z)
        return np.array([-x, -y - t * x, -t])

    def dilation_weights(self):
        return np.array([1.0, 3.0])

    def flow(self, omega, s):
        return np.array([s * omega[0], 0.5 * s * s * omega[0], -s])


class _IteratedKolmogorov(Model):
    """Iterated chain dx1^2 + x1 dx2 + ... + x_{N-1} dxN - dt."""

    def __init__(self, n):
        if n < 2:
            raise ValueError("IteratedKolmogorov(N) needs N >= 2")
        self.name = f"iterated_kolmogorov{n}"
        self.dim = n
        self.n_controls = 1
        self.hom_dim = n * n
        # nilpotent shift: (B x)_j = x_{j-1}
        self._B = np.diag(np.ones(n - 1), -1)

    def _transport(self, t):
        """exp(-t B): lower-triangular with entries (-t)^(i-j)/(i-j)!."""
        n = self.dim
        E = np.eye(n)
        P = np.eye(n)
        for k in range(1, n):
            P = P @ self._B * (-t) / k
            E = E + P
        return E

    def compose(self, z0, z):
        z0 = self.check_point(z0)
        z = self.check_point(z)
        x0, t0 = z0[:-1], z0[-1]
        x, t = z[:-1], z[-1]
        return np.append(x + self._transport(t) @ x0, t + t0)

    def inverse(self, z):
        z = self.check_point(z)
        x, t = z[:-1], z[-1]
        return np.append(-self._transport(-t) @ x, -t)

    def dilation_weights(self):
        return 2.0 * np.arange(1, self.dim + 1) - 1.0

    def flow(self, omega, s):
        return np.append(omega[0] * np.cumprod(s / np.arange(1.0, self.dim + 1)), -s)


class _QuadraticLifted(Model):
    """Lifting of dxx + x^2 dy - dt to the group-invariant operator on (x,y,w,t)."""

    name = "quadratic_lifted"
    dim = 3
    n_controls = 1
    hom_dim = 8

    def compose(self, z0, z):
        x0, y0, w0, t0 = self.check_point(z0)
        x, y, w, t = self.check_point(z)
        return np.array([
            x + x0,
            y + y0 + 2.0 * x0 * w - t * x0 * x0,
            w + w0 - t * x0,
            t + t0,
        ])

    def inverse(self, z):
        x, y, w, t = self.check_point(z)
        return np.array([-x, -y + 2.0 * x * w + t * x * x, -w - t * x, -t])

    def dilation_weights(self):
        return np.array([1.0, 4.0, 3.0])

    def flow(self, omega, s):
        w = omega[0]
        return np.array([s * w, s**3 * w * w / 3.0, 0.5 * s * s * w, -s])


class _Asian(Model):
    """Average-price operator x^2 dxx + x dx + x dy - dt on x > 0; no dilation."""

    name = "asian"
    dim = 2
    n_controls = 1
    hom_dim = None
    has_dilation = False

    def _check_domain(self, z):
        if z[0] <= 0:
            raise DomainError(f"asian: price coordinate must be positive, got {z[0]}")

    def identity(self):
        return np.array([1.0, 0.0, 0.0])

    def compose(self, z0, z):
        x0, y0, t0 = self.check_point(z0)
        x, y, t = self.check_point(z)
        return np.array([x0 * x, y0 + x0 * y, t0 + t])

    def inverse(self, z):
        x, y, t = self.check_point(z)
        return np.array([1.0 / x, -y / x, -t])

    def flow(self, omega, s):
        w = omega[0]
        return np.array([np.exp(s * w), np.expm1(s * w) / w if w != 0 else s, -s])


HEISENBERG = _Heisenberg()
KOLMOGOROV = _Kolmogorov()
QUADRATIC_LIFTED = _QuadraticLifted()
ASIAN = _Asian()

_heat_cache: dict[int, _Heat] = {}
_iterated_cache: dict[int, _IteratedKolmogorov] = {}


def heat(n: int) -> Model:
    """Heat operator model on R^n."""
    if n not in _heat_cache:
        _heat_cache[n] = _Heat(n)
    return _heat_cache[n]


def iterated_kolmogorov(n: int) -> Model:
    """Iterated Kolmogorov chain on R^n (n >= 2)."""
    if n not in _iterated_cache:
        _iterated_cache[n] = _IteratedKolmogorov(n)
    return _iterated_cache[n]


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


def attainable_kolmogorov(z) -> bool:
    """Attainable set of the origin for the Kolmogorov model in ]-1,1[^3.

    A point (x,y,t) is attainable iff it lies in the open unit box and
    t < -|y|.
    """
    x, y, t = np.asarray(z, dtype=float)
    in_box = max(abs(x), abs(y), abs(t)) < 1.0
    return bool(in_box and t < -abs(y))


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
