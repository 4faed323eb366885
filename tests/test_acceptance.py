"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 checks the far regime of the Asian value function at
q = 1e4 against the sharp asymptotic 4u^2 - 8u + 8/q with u = -W_{-1}(-1/(2q)),
which drops only terms of order e^(-2u) and q^-2.  The leading-order form
4 log^2 q + 8/q is a limit as q -> infinity with a log-log correction, so it
is no finite-q reference; it is checked as a limit (see the test body).
"""

import functools
import json
import time
import warnings

import numpy as np
from scipy import integrate
from scipy.special import lambertw

import hypoflow as hf
from hypoflow.asian import HJB_CANDIDATES
from hypoflow.heisenberg import cc_distance_batch, cc_distance_brute
from hypoflow.montecarlo import chi_square_gof
from hypoflow.quadratic import far_near_shape_fits
from hypoflow.verify import verify_heisenberg

SQRT3_2PI = np.sqrt(3.0) / (2.0 * np.pi)


def gaussian_cell_probs(law, xedges, yedges, n_gl=24):
    """Exact rectangle probabilities of a 2-D Gaussian by conditional slicing:
    P(cell) = int phi(x) [Phi(rect top | x) - Phi(rect bottom | x)] dx with
    Gauss-Legendre nodes in x (machine accuracy for these smooth slices)."""
    from scipy.stats import norm

    mx, my = law.mean
    sx = np.sqrt(law.cov[0, 0])
    rho = law.cov[0, 1] / (sx * np.sqrt(law.cov[1, 1]))
    sy_c = np.sqrt(law.cov[1, 1] * (1 - rho**2))
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    nx, ny = xedges.size - 1, yedges.size - 1
    probs = np.zeros((nx, ny))
    for i in range(nx):
        a, b = xedges[i], xedges[i + 1]
        xm, xh = 0.5 * (a + b), 0.5 * (b - a)
        xv = xm + xh * nodes
        cond_mean = my + rho * np.sqrt(law.cov[1, 1]) / sx * (xv - mx)
        cdf = norm.cdf((yedges[None, :] - cond_mean[:, None]) / sy_c)
        inner = cdf[:, 1:] - cdf[:, :-1]
        probs[i] = xh * np.sum(
            (weights * norm.pdf(xv, loc=mx, scale=sx))[:, None] * inner, axis=0
        )
    return probs


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number:02d} [{title}]: FAIL - {exc}")
                raise
            print(f"ACCEPTANCE {number:02d} [{title}]: PASS - {detail}")

        return wrapper

    return deco


@criterion(1, "gamma0-psi0 identity")
def test_criterion_01_gamma_psi_identity():
    rng = np.random.default_rng(101)
    n = 10_000
    t0 = time.time()
    x, y, xi, eta = rng.standard_normal((4, n)) * 1.5
    t = 1.0 + np.abs(rng.standard_normal(n))
    tau = t - (0.3 + np.abs(rng.standard_normal(n)))
    lhs = hf.gamma0(x, y, t, xi, eta, tau)
    rhs = SQRT3_2PI / (t - tau) ** 2 * np.exp(-hf.psi0(x, y, t, xi, eta, tau) / 4.0)
    live = rhs > 0  # deep tails underflow identically on both routes
    assert np.array_equal(lhs[~live], rhs[~live])
    # the two routes differ only by power-of-two scalings, which commute
    # with IEEE rounding, so the identity is typically exact to the bit
    rel = np.max(np.abs(lhs[live] - rhs[live]) / rhs[live])
    elapsed = time.time() - t0
    assert rel <= 1e-12, f"max relative error {rel:.3e}"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    return f"max rel err {rel:.2e} in {elapsed*1e3:.0f} ms over {n} points"


@criterion(2, "exact sampler vs gamma0 chi-square")
def test_criterion_02_sampler_chi_square():
    t0 = time.time()
    n = 1_000_000
    law = hf.exact_law(hf.KOLMOGOROV, [0.0, 0.0], 1.0)
    batch = hf.sample_gaussian_exact(law, n, seed=7)
    sx, sy = np.sqrt(law.cov[0, 0]), np.sqrt(law.cov[1, 1])
    grid = [(-4 * sx, 4 * sx, 50), (-4 * sy, 4 * sy, 50)]
    est = hf.estimate_density(batch, grid)
    probs = gaussian_cell_probs(law, *est.edges)
    stat, dof, p = chi_square_gof(est.counts, probs, n)
    elapsed = time.time() - t0
    assert p >= 0.001, f"chi-square p = {p:.5f}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    return f"p = {p:.3f} (dof {dof}) in {elapsed:.1f}s"


@criterion(3, "group/dilation invariances")
def test_criterion_03_invariances():
    rng = np.random.default_rng(303)
    m = hf.KOLMOGOROV
    # well-conditioned cloud (time gaps >= 0.5, unit-scale coordinates) so
    # float cancellation noise stays well below the 1e-12 bar the exact
    # invariance is held to
    worst_tr = worst_dil = worst_psi = 0.0
    checked = 0
    while checked < 2000:
        x, y, xi, eta = rng.standard_normal(4)
        t = 1.0 + abs(rng.standard_normal())
        tau = t - (0.5 + abs(rng.standard_normal()))
        z0 = rng.standard_normal(3)
        rho = np.exp(0.5 * rng.standard_normal())
        base_g = hf.gamma0(x, y, t, xi, eta, tau)
        base_p = hf.psi0(x, y, t, xi, eta, tau)
        if base_g == 0.0:  # kernel underflow: identity untestable here
            continue
        checked += 1
        zt, ct = m.compose(z0, [x, y, t]), m.compose(z0, [xi, eta, tau])
        worst_tr = max(worst_tr, abs(hf.gamma0(*zt, *ct) - base_g) / base_g,
                       abs(hf.psi0(*zt, *ct) - base_p) / (1.0 + base_p))
        zd, cd = m.dilate(rho, [x, y, t]), m.dilate(rho, [xi, eta, tau])
        worst_dil = max(worst_dil, abs(hf.gamma0(*zd, *cd) * rho**4 - base_g) / base_g)
        worst_psi = max(worst_psi, abs(hf.psi0(*zd, *cd) - base_p) / (1.0 + base_p))
    assert worst_tr <= 1e-12, f"translation invariance error {worst_tr:.2e}"
    assert worst_dil <= 1e-12, f"dilation homogeneity error {worst_dil:.2e}"
    assert worst_psi <= 1e-12, f"psi dilation invariance error {worst_psi:.2e}"

    # left-invariance of path integration across all models at step 1e-3
    from conftest import all_models, random_point

    worst_path = 0.0
    for model in all_models():
        ctrl = hf.ControlPath(np.array([0.0, 0.05]),
                              rng.standard_normal((1, model.n_controls)))
        z0 = random_point(model, rng)
        shift = random_point(model, rng)
        path = hf.integrate_path(model, z0, ctrl, 1e-3)
        shifted = hf.integrate_path(model, model.compose(shift, z0), ctrl, 1e-3)
        translated = np.array([model.compose(shift, s) for s in path.samples])
        worst_path = max(worst_path, np.max(np.abs(shifted.samples - translated)))
    assert worst_path <= 1e-10, f"path left-invariance error {worst_path:.2e}"
    return (f"translation {worst_tr:.1e}, dilation {worst_dil:.1e}, "
            f"path invariance {worst_path:.1e}")


@criterion(4, "Harnack chain length bound and soundness")
def test_criterion_04_chain_bound():
    params = hf.ChainParams()
    worst_excess = -np.inf
    sound = True
    checked = 0
    for d in np.linspace(0.0, 3.0, 10):
        for t0 in np.linspace(1.0, 2.5, 10):
            for frac in np.linspace(0.05, 0.95, 10):
                dt = frac * params.theta * t0
                chain = hf.build_parabolic_chain([0.0], t0, [d], t0 - dt, params)
                bound = int(np.ceil(d**2 / dt)) + 1
                worst_excess = max(worst_excess, chain.k - bound)
                vals = (4 * np.pi * chain.points[:, 1]) ** -0.5 * np.exp(
                    -chain.points[:, 0] ** 2 / (4 * chain.points[:, 1])
                )
                m_exact = max(float((vals[:-1] / vals[1:]).max()), 1.0 + 1e-12)
                bound_val = hf.chain_lower_bound(
                    chain, hf.ChainParams(M=m_exact), vals[0]
                )
                sound = sound and bound_val <= vals[-1] * (1 + 1e-9)
                checked += 1
    assert checked == 1000
    assert worst_excess <= 0, f"k exceeded the bound by {worst_excess}"
    assert sound, "certified lower bound exceeded the true kernel"
    return f"1000 pairs, max(k - bound) = {worst_excess}, kernel soundness holds"


@criterion(5, "iterated-Kolmogorov variance slopes")
def test_criterion_05_variance_slopes():
    times = np.geomspace(0.3, 3.0, 6)
    # exact covariance route
    var_exact = np.array([np.diag(hf.iterated_kolmogorov(4).exact_cov(s)) for s in times])
    slopes_exact = hf.fit_loglog_slopes(times, var_exact)
    err_exact = np.max(np.abs(slopes_exact - np.array([1.0, 3.0, 5.0, 7.0])))
    assert err_exact <= 0.05, f"exact-route slope error {err_exact:.3f}"
    # sampled route at n = 1e5
    slopes_mc = hf.variance_slope(hf.iterated_kolmogorov(4), times, 100_000, seed=505)
    err_mc = np.max(np.abs(slopes_mc - np.array([1.0, 3.0, 5.0, 7.0])))
    assert err_mc <= 0.1, f"sampled-route slope error {err_mc:.3f}"
    return f"exact err {err_exact:.1e}, sampled err {err_mc:.3f} (targets 1,3,5,7)"


@criterion(6, "g round trip and value-function asymptotics")
def test_criterion_06_g_and_asymptotics():
    worst = 0.0
    for v in np.geomspace(1e-2, 1e2, 81):
        worst = max(worst, abs(hf.g(hf.g_inverse(v)) - v) / max(v, 1.0))
    assert worst <= 1e-10, f"g round-trip error {worst:.2e}"

    q = 1e-4
    e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
    near_ratio = hf.value_psi(e) / (4 * (1 + 1) ** 2 / q - 4 * np.pi**2)
    assert abs(near_ratio - 1) <= 0.02, f"near ratio {near_ratio}"

    # Far clause.  With x1 = x0 = 1 and t1 - t0 = 1, Psi = 4u^2 + 8/q -
    # 4 sqrt(4u^2 + 4/q^2) where sinh(u)/u = q, u = sqrt(g^{-1}(q)).  Dropping
    # the e^(-2u) term gives e^u / (2u) = q, so u = -W_{-1}(-1/(2q)) in closed
    # form (independent of g_inverse); with sqrt(4u^2 + 4/q^2) ~ 2u this gives
    # Psi_far = 4u^2 - 8u + 8/q.
    q = 1e4
    e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
    u = -lambertw(-0.5 / q, -1).real
    far_gap = hf.value_psi(e) / (4 * u**2 - 8 * u + 8 / q) - 1
    assert abs(far_gap) <= 0.02, f"far gap at q=1e4 is {far_gap:.2e}"
    # The leading-order form 4 log^2 q + 8/q is only the q -> infinity limit:
    # u = log q + log(2u) + O(e^(-2u)), so the ratio to it falls as
    # O(log log q / log q) (1.53 at q = 1e4) and is checked as a limit.
    ratios = []
    for q in (1e4, 1e16, 1e100, 1e300):
        e = hf.AsianEndpoints(1.0, 0.0, 1.0, 1.0, q, 0.0)
        ratios.append(hf.value_psi(e) / (4 * np.log(q) ** 2 + 4 * 2 / q))
    assert all(b < a for a, b in zip(ratios, ratios[1:])), f"far ratios {ratios}"
    assert abs(ratios[-1] - 1) <= 0.02, f"far ratio at q=1e300 is {ratios[-1]:.4f}"
    return (f"round trip {worst:.1e}, near ratio {near_ratio:.8f}, "
            f"far gap at 1e4 {far_gap:.1e}, leading-order ratio at 1e300 {ratios[-1]:.4f}")


@criterion(7, "HJB convention calibration")
def test_criterion_07_hjb_calibration():
    winner, table = hf.calibrate_hjb_convention(tol=1e-8)
    passing = [c for c in HJB_CANDIDATES if table[c] <= 1e-8]
    assert passing == [winner], f"winners: {passing}"

    rng = np.random.default_rng(707)
    worst = 0.0
    residuals = []
    for _ in range(1000):
        x1, x0 = np.exp(np.clip(0.3 * rng.standard_normal(2), -0.5, 0.5))
        t1 = 1.0 + 0.5 * abs(rng.standard_normal())
        t0 = t1 - (0.7 + 0.4 * abs(rng.standard_normal()))
        qf = np.exp(np.clip(0.5 * rng.standard_normal(), -0.7, 0.7))
        dy = (t1 - t0) * np.sqrt(x1 * x0) * qf
        y1 = rng.standard_normal()
        e = hf.AsianEndpoints(x1, y1, t1, x0, y1 + dy, t0)
        r = hf.hjb_residual(e, 1e-4, convention=winner)
        residuals.append((e, r))
        worst = max(worst, abs(r))
    assert worst <= 1e-4, f"asian residual max {worst:.2e}"

    factors = []
    for e, r in residuals[:80]:
        r2 = hf.hjb_residual(e, 2e-4, convention=winner)
        if abs(r) > 1e-12:
            factors.append(abs(r2) / abs(r))
    med = float(np.median(factors))
    assert 3.0 <= med <= 5.0, f"Richardson factor {med:.2f}"
    return f"winner {winner}, asian max residual {worst:.2e}, Richardson {med:.2f}"


@criterion(8, "Yor density mass, chi-square, support, variances")
def test_criterion_08_yor():
    t_start = time.time()
    # 2-D mass by quadrature
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)

        def inner(y):
            val, _ = integrate.quad(
                lambda lx: hf.yor_density(np.exp(lx), y, 1.0, 1.0, 0.0) * np.exp(lx),
                -8.0, 8.0, limit=200,
            )
            return val

        mass, _ = integrate.quad(inner, 0.0, 60.0, limit=200)
    assert abs(mass - 1.0) <= 0.01, f"mass {mass:.4f}"

    # zero density off the support
    assert hf.yor_density(1.0, -0.1, 1.0, 1.0, 0.0) == 0.0
    assert hf.yor_density(2.0, 0.0, 1.0, 1.0, 0.0) == 0.0

    # chi-square against 1e6 simulated paths on a 20x20 grid; the average
    # y0 + (y - y0)/2 integrates the price at half rate, which is the pair
    # whose joint law the closed-form density is (KS drops from 0.33 to 0.002)
    n = 1_000_000
    batch = hf.euler_maruyama(hf.ASIAN, [1.0, 0.0], 1.0, 5e-4, n, seed=808)
    y0 = 0.0
    batch.endpoints[:, 1] = y0 + (batch.endpoints[:, 1] - y0) / 2
    grid = [(0.02, 6.0, 20), (0.02, 3.5, 20)]
    est = hf.estimate_density(batch, grid)
    gl_x, gl_w = np.polynomial.legendre.leggauss(3)
    xs, ys = est.edges
    probs = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            xa, xb = xs[i], xs[i + 1]
            ya, yb = ys[j], ys[j + 1]
            xm, xh = 0.5 * (xa + xb), 0.5 * (xb - xa)
            ym, yh = 0.5 * (ya + yb), 0.5 * (yb - ya)
            acc = 0.0
            for gx, wx in zip(gl_x, gl_w):
                for gy, wy in zip(gl_x, gl_w):
                    acc += wx * wy * hf.yor_density(xm + xh * gx, ym + yh * gy,
                                                    1.0, 1.0, 0.0)
            probs[i, j] = acc * xh * yh
    stat, dof, p = chi_square_gof(est.counts, probs, n)
    assert p >= 0.001, f"chi-square p = {p:.5f}"

    # small-t variance ratios
    var_x, _, small_x, _ = hf.variance_formulas(1.0, 1e-4)
    assert abs(var_x / small_x - 1) <= 1e-3
    _, var_y, _, small_y = hf.variance_formulas(1.0, 1e-3)
    assert abs(var_y / small_y - 1) <= 1e-2
    elapsed = time.time() - t_start
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s"
    return f"mass {mass:.4f}, chi-square p = {p:.3f}, runtime {elapsed:.0f}s"


@criterion(9, "quadratic model support, shapes, reachability")
def test_criterion_09_quadratic():
    n = 1_000_000
    batch = hf.euler_maruyama(hf.QUADRATIC_LIFTED, [0.0, 0.0, 0.0], 1.0, 1e-3, n,
                              seed=909)
    frac = hf.support_fraction(batch.endpoints, 0.0)
    assert frac == 0.0, f"support fraction {frac}"
    fits = far_near_shape_fits(batch.endpoints)
    assert fits["far_r2"] >= 0.98 and fits["far_slope"] < 0, f"far fit {fits}"
    assert fits["near_r2"] >= 0.95 and fits["near_slope"] < 0, f"near fit {fits}"

    # attainable-set predicate vs the brute-force reachability oracle on a
    # 17^4 grid chosen so every predicate-false point violates the algebra
    # by >= 0.0144 (grid values 0.12k make a^2+bc an integer times 0.0144),
    # hence sits >= 5.9e-3 away from the true attainable set: the 5e-3
    # epsilon-witness classification cannot produce false negatives unless
    # the predicate itself is wrong
    from hypoflow.quadratic import certify_grid_reachability

    axis = np.linspace(-0.96, 0.96, 17)
    false_negatives = 0
    certified = 0
    for t in axis[axis < 0]:
        mask = certify_grid_reachability(-t, axis, eps=5e-3, dedup=0.01)
        for ix, iw, iy in zip(*np.nonzero(mask)):
            certified += 1
            if not hf.attainable_quadratic([axis[ix], axis[iw], axis[iy], t]):
                false_negatives += 1
    assert false_negatives == 0, f"{false_negatives} oracle-reachable points misclassified"
    assert certified >= 300, f"oracle certified only {certified} grid points"
    return (f"support 0, far R2 {fits['far_r2']:.4f}, near R2 {fits['near_r2']:.4f}, "
            f"oracle certified {certified} grid points with 0 false negatives")


@criterion(10, "Heisenberg distance and kernel envelopes")
def test_criterion_10_heisenberg():
    rng = np.random.default_rng(1010)
    # closed form vs brute force within 1%
    targets = rng.uniform(-2, 2, size=(100, 3))
    d_arc = cc_distance_batch(targets).distance
    worst_rel = 0.0
    for i in range(100):
        d_brute, _, _ = cc_distance_brute(np.zeros(3), targets[i], seed=i)
        worst_rel = max(worst_rel, abs(d_brute - d_arc[i]) / d_arc[i])
    assert worst_rel < 0.01, f"closed form vs brute relative gap {worst_rel:.4f}"

    # planar identity
    pts = rng.standard_normal((100, 2)) * 1.5
    d_pl = cc_distance_batch(np.column_stack([pts, np.zeros(100)])).distance
    err_pl = np.max(np.abs(d_pl - np.hypot(pts[:, 0], pts[:, 1])))
    assert err_pl <= 1e-6, f"planar distance error {err_pl:.2e}"

    # dilation homogeneity and left-invariance
    base = rng.standard_normal((200, 3))
    d0 = cc_distance_batch(base).distance
    for rho in (0.5, 2.0):
        dd = cc_distance_batch(
            np.column_stack([rho * base[:, 0], rho * base[:, 1], rho**2 * base[:, 2]])
        ).distance
        assert np.max(np.abs(dd - rho * d0)) <= 1e-6 * max(1, rho) * np.max(d0)

    def compose(p, q):
        return np.array([p[0] + q[0], p[1] + q[1],
                         p[2] + q[2] + 0.5 * (p[0] * q[1] - p[1] * q[0])])

    shifts = rng.standard_normal((200, 3))
    # d(z o 0, z o b) with the origin-translated pair reduces to d(0, b)
    pairs = np.array([compose(-np.asarray(compose(z, np.zeros(3))),
                              compose(z, b)) for z, b in zip(shifts, base)])
    d1 = cc_distance_batch(pairs).distance
    assert np.max(np.abs(d1 - d0)) <= 1e-6, "left-invariance"

    # empirical kernel within fitted envelopes on a disjoint verification seed
    report = verify_heisenberg(n=1_000_000, seed=2020, fit_seed=3030, window=8.0)
    assert report.violation_fraction <= 0.01, f"violations {report.violation_fraction:.4f}"
    return (f"brute gap {worst_rel:.4f}, planar {err_pl:.1e}, envelope violations "
            f"{report.violation_fraction:.4f} over {report.cells_checked} cells")


@criterion(11, "CLI determinism across reruns and threads")
def test_criterion_11_cli_determinism(tmp_path):
    from hypoflow.cli import main

    def run(config, outdir, extra=()):
        cfg = tmp_path / f"{outdir}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / outdir
        assert main(["--config", str(cfg), "--output", str(out), *extra]) == 0
        return out

    sim = {
        "command": "simulate",
        "model": "kolmogorov",
        "parameters": {"n": 200_000, "seed": 17, "horizon": 1.0, "dt": 5e-3},
    }
    blobs = []
    for threads in (1, 2, 4, 8, 16):
        out = run(sim, f"sim-t{threads}", extra=("--threads", str(threads)))
        blobs.append((out / "batch.bin").read_bytes()
                     + (out / "batch_summary.csv").read_bytes())
    assert all(b == blobs[0] for b in blobs), "thread count changed the output"

    ver = {
        "command": "verify",
        "parameters": {"target": "kolmogorov", "n": 150_000, "seed": 42},
    }
    texts = []
    for tag in ("a", "b"):
        out = run(ver, f"ver-{tag}")
        texts.append((out / "bound_report.json").read_bytes())
    assert texts[0] == texts[1], "verify rerun differed"
    report = json.loads(texts[0])
    assert report["violation_fraction"] <= 0.01
    return "simulate identical for threads 1..16; verify rerun byte-identical"
