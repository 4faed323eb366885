"""Reference values computed by the benchmark itself, never by hypoflow.

All of these run before the timed passes start, so they never count toward
an operation's latency.
"""

from __future__ import annotations

import math

import mpmath as mp

_DPS = 30


def heisenberg_translate(p, q):
    """p^-1 o q on the Heisenberg group (x, y, w) with w' = (x dy - y dx)/2."""
    return (q[0] - p[0], q[1] - p[1],
            q[2] - p[2] + 0.5 * (p[1] * q[0] - p[0] * q[1]))


def cc_distance_from_origin(target) -> float:
    """d(0, (x, y, w)) from the closed-form arc (Dido) solution, in mpmath.

    The geodesic to (x, y, w) is a circular arc of turning angle c whose
    chord is rho = |(x, y)| and whose enclosed area is |w|:
    |w| / rho^2 = (c - sin c) / (8 sin^2(c/2)) fixes c in [0, 2 pi), and the
    length is rho c / (2 sin(c/2)); rho = 0 gives sqrt(4 pi |w|).
    """
    with mp.workdps(_DPS):
        x, y, w = (mp.mpf(v) for v in target)
        rho = mp.sqrt(x * x + y * y)
        area = abs(w)
        if area == 0:
            return float(rho)
        if rho == 0:
            return float(mp.sqrt(4 * mp.pi * area))
        ratio = area / rho**2
        lo, hi = mp.mpf(0), 2 * mp.pi
        for _ in range(110):
            mid = (lo + hi) / 2
            if (mid - mp.sin(mid)) / (8 * mp.sin(mid / 2) ** 2) < ratio:
                lo = mid
            else:
                hi = mid
        c = (lo + hi) / 2
        return float(rho * c / (2 * mp.sin(c / 2)))


def cc_distance(p, q) -> float:
    return cc_distance_from_origin(heisenberg_translate(p, q))


def heisenberg_unit_ball_volume() -> float:
    """|B_1(0)| from the unit sphere's profile rho(c), w(c), c in [0, 2 pi].

    The ball is {|w| <= w(c) at rho = rho(c)}, so its volume is
    2 * int 2 pi rho w |d rho|, with rho = 2 sin(c/2)/c, w = (c - sin c)/(2 c^2).
    """
    with mp.workdps(20):
        def integrand(c):
            rho = 2 * mp.sin(c / 2) / c
            w = (c - mp.sin(c)) / (2 * c * c)
            drho = mp.cos(c / 2) / c - 2 * mp.sin(c / 2) / (c * c)
            return 4 * mp.pi * rho * w * (-drho)

        return float(mp.quad(integrand, [mp.mpf("1e-30"), mp.pi, 2 * mp.pi]))


def yor_density(x, y, t, x0, y0) -> float:
    """Joint density of (X_t, Y_t) for X = x0 e^{sqrt2 W}, Y = y0 + x0 int_0^t e^{sqrt2 W}.

    Yor's formula, with the oscillatory integral
    psi(z, s) = int_0^inf exp(-u^2/(2 s) - z cosh u) sinh u sin(pi u / s) du
    at s = t/2 evaluated by mpmath Gauss-Legendre quadrature on panels
    between the zeros of the sine, truncated where the integrand is below
    e^-120.  The prefactor e^(pi^2/t) amplifies rounding in the alternating
    panel sum, so the working precision grows with it.
    """
    if y <= y0:
        return 0.0
    with mp.workdps(20 + math.ceil(math.pi**2 / (t * math.log(10)))):
        x, y, t, x0, y0 = (mp.mpf(v) for v in (x, y, t, x0, y0))
        dy = y - y0
        z = mp.sqrt(x * x0) / dy
        s = t / 2
        upper = s
        while z * mp.cosh(upper) - upper + upper**2 / (2 * s) < 120:
            upper += s
        edges = [k * s for k in range(int(mp.nint(upper / s)) + 1)]

        def f(u):
            return mp.exp(-u * u / (2 * s) - z * mp.cosh(u)) * mp.sinh(u) * mp.sin(mp.pi * u / s)

        psi = mp.quad(f, edges, method="gauss-legendre")
        pref = (mp.sqrt(x0) / (2 * mp.sqrt(x) * dy**2) * mp.exp(mp.pi**2 / t)
                / (mp.pi * mp.sqrt(mp.pi * t)))
        return float(pref * mp.exp(-(x + x0) / (2 * dy)) * psi)


def kolmogorov_density(x, y, t, xi, eta, tau) -> float:
    """Density of (X, Y) at (xi, eta) after s = t - tau from (x, y), dX = sqrt2 dW, dY = X dt.

    Bivariate normal with mean (x, y + s x) and covariance
    [[2s, s^2], [s^2, 2 s^3 / 3]] (determinant s^4 / 3).
    """
    s = t - tau
    if s <= 0:
        return 0.0
    a, b = xi - x, eta - y - s * x
    det = s**4 / 3.0
    quad = (2.0 * s**3 / 3.0 * a * a - 2.0 * s * s * a * b + 2.0 * s * b * b) / det
    return math.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))


def quadratic_attainable(x, w, y, t) -> bool:
    """Closed attainable set of the origin for the lifted quadratic model.

    Points in the order (x, w, y, t): every coordinate in [-1, 1],
    0 <= y <= -t and w^2 <= -t y (Cauchy-Schwarz on w = int x, y = int x^2).
    """
    if max(abs(x), abs(w), abs(y), abs(t)) > 1.0:
        return False
    return 0.0 <= y <= -t and w * w <= -t * y


def heisenberg_pc_endpoint(start, grid, values):
    """Exact endpoint of the Heisenberg path driven by a piecewise-constant control.

    On an interval of length h with control (u, v): x += u h, y += v h,
    w += (x v - y u) h / 2, with (x, y) taken at the interval start.
    """
    x, y, w = start
    for k, (u, v) in enumerate(values):
        h = grid[k + 1] - grid[k]
        w += 0.5 * (x * v - y * u) * h
        x += u * h
        y += v * h
    return x, y, w


# The Asian value function switches branch where g(r) = 2/pi, i.e. r = -pi^2/4.
ASIAN_SWITCH_Q = 2.0 / math.pi


def _asian_q(x1, y1, t1, x0, y0, t0):
    return (y0 - y1) / ((t1 - t0) * math.sqrt(x1 * x0))


def asian_stencil_near_switch(row, fd_step) -> bool:
    """Whether a central-difference stencil at `row` comes close to the branch switch.

    True when q = dy / (T sqrt(x1 x0)) at the row and at its twelve stencil
    points (each coordinate moved by +-fd_step) spans, widened to twice its
    range, the switch value 2/pi.
    """
    qs = [_asian_q(*row)]
    for i in range(6):
        for s in (fd_step, -fd_step):
            moved = list(row)
            moved[i] += s
            qs.append(_asian_q(*moved))
    lo, hi = min(qs), max(qs)
    return lo - (hi - lo) <= ASIAN_SWITCH_Q <= hi + (hi - lo)


def _asian_g(r):
    if r == 0:
        return mp.mpf(1)
    u = mp.sqrt(abs(r))
    return mp.sinh(u) / u if r > 0 else mp.sin(u) / u


def asian_value_psi(x1, y1, t1, x0, y0, t0):
    """Minimal control energy between two Asian endpoints, in mpmath (an mpf).

    Psi = E T + 4 (x1 + x0) / dy -+ 4 sqrt(E + 4 x1 x0 / dy^2) with
    E = 4 r / T^2, where r solves g(r) = q (g = sinh(sqrt r)/sqrt r,
    continued by sin for r < 0) by bisection on (-pi^2, oo); the minus sign
    holds for r >= -pi^2/4.  Call inside a raised mp.workdps.
    """
    x1, y1, t1, x0, y0, t0 = (mp.mpf(v) for v in (x1, y1, t1, x0, y0, t0))
    T, dy = t1 - t0, y0 - y1
    q = dy / (T * mp.sqrt(x1 * x0))
    lo, hi = -mp.pi**2, mp.mpf(1)
    while _asian_g(hi) < q:
        lo, hi = hi, 2 * hi
    for _ in range(4 * mp.mp.prec):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if _asian_g(mid) < q:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    E = 4 * r / T**2
    root = mp.sqrt(max(E + 4 * x1 * x0 / dy**2, 0))
    sign = -1 if r >= -mp.pi**2 / 4 else 1
    return E * T + 4 * (x1 + x0) / dy + sign * 4 * root


def asian_hjb_residual(row, fd_step, triple="second", drift_sign=1) -> float:
    """Y Psi + (X Psi)^2 / 4 by central differences of step fd_step, in mpmath.

    The same stencil as a float64 evaluation, on the endpoint `triple` with
    X = x d_x and Y = drift_sign x d_y - d_t, but with Psi at 40 digits, so
    only the O(fd_step^2) truncation remains.
    """
    off = 0 if triple == "first" else 3
    with mp.workdps(40):
        base = [mp.mpf(v) for v in row]
        h = mp.mpf(fd_step)

        def deriv(i):
            up, down = list(base), list(base)
            up[off + i] += h
            down[off + i] -= h
            return (asian_value_psi(*up) - asian_value_psi(*down)) / (2 * h)

        x = base[off]
        X = x * deriv(0)
        Y = drift_sign * x * deriv(1) - deriv(2)
        return float(Y + X * X / 4)
