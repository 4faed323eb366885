"""Layer probes for the traced run: one small call into every traced module.

They make every per-layer metric exist on every workload, including layers
the workload itself bypasses, with the same seeded inputs on each workload.
``threads_speedup`` times the EM sampler untraced at 1 and ``nproc`` threads.
"""

from __future__ import annotations

import os
import time

import numpy as np

import reference as ref
from workloads import (BRUTE_RTOL, CC_RTOL, HJB_TOL, VERIFY_MAX_VIOLATIONS, YOR_ATOL, YOR_RTOL,
                       Op, asian_row, cli_op, stratified, yor_points)


def _within(got, want, rtol, atol=0.0):
    ok = abs(got - want) <= rtol * abs(want) + atol
    return None if ok else f"{got!r} against reference {want!r}"


def layer_probes(seed: int, workdir) -> list[Op]:
    from hypoflow import (asian, harnack, heisenberg, kolmogorov, models, montecarlo, paths,
                          quadratic, verify)

    rng = np.random.default_rng([seed, 0x70B5])
    ops = []

    def add(kind, call, check=lambda r: None, work=1):
        ops.append(Op(f"probe:{kind}", call, check, work))

    vseed = int(rng.integers(0, 2**31))
    add("verify_kolmogorov", lambda: verify.verify_kolmogorov(200_000, vseed),
        lambda r: None if r.violation_fraction <= VERIFY_MAX_VIOLATIONS
        else f"violations {r.violation_fraction}")

    batches = {}
    for name, model, z0 in (("heat1", models.heat(1), [0.0]),
                            ("heisenberg", models.HEISENBERG, [0.0, 0.0, 0.0]),
                            ("asian", models.ASIAN, [1.0, 0.0])):
        s = int(rng.integers(0, 2**31))

        def em(model=model, z0=z0, s=s, name=name):
            batches[name] = montecarlo.euler_maruyama(model, z0, 1.0, 0.01, 1 << 15, s)
            return batches[name]

        add(f"em_{name}", em, lambda b: None if np.all(np.isfinite(b.endpoints)) else "non-finite")

    path = workdir / "probe_batch.bin"
    add("save_batch", lambda: montecarlo.save_batch(batches["heisenberg"], path),
        lambda r: None if np.array_equal(montecarlo.load_batch(path).endpoints,
                                         batches["heisenberg"].endpoints)
        else "batch round trip")

    pairs = [(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)) for _ in range(2)]
    for p, q in pairs:
        want = ref.cc_distance(p, q)
        add("cc_distance", lambda p=p, q=q: heisenberg.cc_distance(p, q),
            lambda r, w=want: _within(r.distance, w, CC_RTOL))
    p, q = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
    want = ref.cc_distance(p, q)
    add("cc_distance_brute", lambda p=p, q=q: heisenberg.cc_distance_brute(p, q, seed=0),
        lambda r, w=want: _within(r[0], w, BRUTE_RTOL))
    targets = rng.uniform(-2, 2, (256, 3))
    want_batch = ref.cc_distance_from_origin(targets[0])
    add("cc_distance_batch", lambda: heisenberg.cc_distance_batch(targets),
        lambda r: _within(r[0][0], want_batch, CC_RTOL), work=256)
    bseed = int(rng.integers(0, 2**31))
    add("ball_volume", lambda: heisenberg.estimate_unit_ball_volume(2048, bseed),
        lambda r: None if r[0] > 0 else "non-positive volume", work=2048)

    for pt in yor_points(rng, list(stratified(rng, 0.6, 4.0, 4)) + [0.5]):
        want = ref.yor_density(*pt)
        add("yor_density", lambda pt=pt: asian.yor_density(*pt),
            lambda r, w=want: _within(r, w, YOR_RTOL, YOR_ATOL))
    rows = [asian.AsianEndpoints(*asian_row(rng)) for _ in range(20)]
    for e in rows:
        add("value_psi", lambda e=e: asian.value_psi(e),
            lambda r: None if r >= 0 else "negative psi")
        add("hjb_residual", lambda e=e: asian.hjb_residual(e, 1e-4),
            lambda r: None if abs(r) <= HJB_TOL else f"residual {r}")
    for v in np.exp(rng.uniform(-3, 3, 20)):
        add("g_inverse", lambda v=v: asian.g_inverse(v),
            lambda r, v=v: _within(asian.g(r), v, 1e-10))

    pts = rng.standard_normal((4096, 6))
    pts[:, 2] = pts[:, 5] + rng.uniform(0.3, 2.0, 4096)
    add("gamma0", lambda: kolmogorov.gamma0(*pts.T),
        lambda r: None if np.allclose(r[:4], [ref.kolmogorov_density(*p) for p in pts[:4]],
                                      rtol=1e-10, atol=0) else "gamma0", work=4096)

    start = np.append(rng.uniform(-1, 1, 3), 2.0)
    ctrl = paths.ControlPath(np.array([0.0, 0.5, 1.0]), rng.standard_normal((2, 2)))
    traj = {}

    def integrate():
        traj["path"] = paths.integrate_path(models.HEISENBERG, start, ctrl, 0.0025)
        return traj["path"]

    want_end = ref.heisenberg_pc_endpoint(start[:3], ctrl.grid, ctrl.values)
    add("integrate_path", integrate,
        lambda r: None if np.allclose(r.endpoint[:3], want_end, rtol=0, atol=1e-9) else "rk4 end")
    add("build_path_chain",
        lambda: harnack.build_path_chain(models.HEISENBERG, traj["path"], harnack.ChainParams()))
    for _ in range(4):
        t0 = rng.uniform(1.0, 2.5)
        x0, x = rng.uniform(-1, 1), rng.uniform(-2, 2)
        t = t0 - rng.uniform(0.05, 0.95) * 0.5 * t0
        add("build_parabolic_chain",
            lambda x0=x0, t0=t0, x=x, t=t: harnack.build_parabolic_chain(
                [x0], t0, [x], t, harnack.ChainParams()),
            lambda r, b=int(np.ceil((x - x0) ** 2 / (t0 - t))) + 1:
            None if r.k <= b else f"k {r.k} > {b}")

    axis = np.linspace(-0.96, 0.96, 17)
    add("certify", lambda: quadratic.certify_grid_reachability(0.24, axis, eps=5e-3, dedup=0.01),
        lambda m: None if all(ref.quadratic_attainable(axis[i], axis[j], axis[k], -0.24)
                              for i, j, k in zip(*np.nonzero(m))) else "certified outside")

    for z, b in zip(rng.standard_normal((20, 4)), rng.standard_normal((20, 4))):
        add("group_law", lambda z=z, b=b: models.group_compose(
            models.HEISENBERG, models.group_inverse(models.HEISENBERG, z), b))
        add("dilate", lambda z=z: models.dilate(models.HEISENBERG, 1.5, z))

    spec = {"kind": "gamma0", "config": {"command": "density-eval", "parameters": {
        "kernel": "gamma0", "points": [[float(v) for v in pts[0]]]}}}
    op = cli_op(spec, workdir / "probe_cli")
    op.kind = "probe:cli"
    ops.append(op)
    return ops


def threads_speedup(seed: int, repeats: int = 2):
    """EM on the Heisenberg model, same inputs, 1 thread against nproc threads.

    Returns (speedup, single-thread ns per path-step, threads, failure or None);
    the thread count must not change the endpoints.
    """
    from hypoflow import models, montecarlo

    threads = len(os.sched_getaffinity(0))
    n, steps = 2 * montecarlo.CHUNK, 100
    single, multi = [], []
    failure = None
    for _ in range(repeats):
        runs = {}
        for k in (1, threads):
            t0 = time.perf_counter()
            runs[k] = montecarlo.euler_maruyama(models.HEISENBERG, [0.0, 0.0, 0.0], 1.0,
                                                1.0 / steps, n, seed, threads=k)
            (single if k == 1 else multi).append(time.perf_counter() - t0)
        if not np.array_equal(runs[1].endpoints, runs[threads].endpoints):
            failure = "thread count changed the EM endpoints"
    t1, tn = float(np.median(single)), float(np.median(multi))
    return t1 / tn, t1 / (n * steps) * 1e9, threads, failure
