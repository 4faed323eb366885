"""Workload definitions: seeded operation lists, their references and checks.

A workload is a fixed list of operations.  ``specs(workload, seed)`` turns
the seed into plain-JSON operation specs (a pure function, so one seed always
gives the same inputs); ``materialize`` turns a spec into an :class:`Op`
whose reference values are computed on the spot, outside every timed region.
CLI operations go through ``hypoflow.cli.main`` with a generated config and
the default ``--threads``; the others call the module's public function.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

WORKLOADS = ("mc_verify", "cc_geometry", "closed_form_eval")

# Tier-1's threshold for every verify call (criteria 10, 11 and the CLI tests).
VERIFY_MAX_VIOLATIONS = 0.01
CC_RTOL = 1e-6          # criterion 10
BRUTE_RTOL = 1e-2       # criterion 10: shooting against the brute-force oracle
HJB_TOL = 1e-4          # criterion 07
HJB_FD_STEP = 1e-4      # the step of value-fn's hjb_residual column
# (triple, drift sign) in which the Kolmogorov closed form satisfies the HJB;
# the calibrate-hjb check requires the CLI to find exactly this one.
HJB_CONVENTION = ("second", 1)
# Relative in the bulk; the absolute floor sits above the float64 limit of
# the float branch at its t = 0.6 edge, where e^(pi^2/t) ~ 1e7 amplifies the
# rounding of an alternating panel sum (measured: up to 3e-12 on densities
# ~1e-6, i.e. 3e-6 relative).
YOR_RTOL, YOR_ATOL = 1e-6, 1e-10
GAMMA0_RTOL = 1e-10
EM_DT = 0.005           # horizon / 200, the verify default


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]            # timed
    check: Callable[[Any], str | None]  # untimed; a message on failure
    work: float                        # path-steps, distances or evaluations
    outdir: Path | None = None         # CLI artifacts, hashed across repeats
    diagnostics: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _round(values, digits=12):
    return [round(float(v), digits) for v in values]


# ---------------------------------------------------------------------------
# Seeded specs
# ---------------------------------------------------------------------------

def _mc_verify(rng):
    out = []
    # heat runs at tier-1's n for this pipeline: at n = 1e5 a far-tail cell of
    # its 60 misses the fitted envelope by chance in about 2% of calls, and one
    # such cell already exceeds VERIFY_MAX_VIOLATIONS
    for target, n, reps in (("kolmogorov", 1_000_000, 2), ("heat", 400_000, 1),
                            ("heisenberg", 50_000, 1)):
        for _ in range(reps):
            out.append({"kind": f"verify-{target}", "config": {
                "command": "verify",
                "parameters": {"target": target, "n": n, "seed": _seed(rng)}}})
    for model, n, scheme in (("asian", 50_000, "euler"), ("asian", 50_000, "euler"),
                             ("kolmogorov", 1_000_000, "exact")):
        params = {"n": n, "seed": _seed(rng), "horizon": 1.0, "scheme": scheme}
        if scheme == "euler":
            params["dt"] = EM_DT
        out.append({"kind": f"simulate-{model}",
                    "config": {"command": "simulate", "model": model, "parameters": params}})
    return _interleave(out)


def _heisenberg_compose(p, q):
    return [p[0] + q[0], p[1] + q[1], p[2] + q[2] + 0.5 * (p[0] * q[1] - p[1] * q[0])]


def _cc_geometry(rng):
    out = []
    for _ in range(6):
        pair = [_round(rng.uniform(-2, 2, 3)), _round(rng.uniform(-2, 2, 3))]
        out.append({"kind": "cc-distance",
                    "config": {"command": "cc-distance", "parameters": {"pairs": [pair]}}})
    shape = [16, 16, 12]
    out.append({"kind": "cc-batch", "lo": [-3.5, -3.5, -2.0], "hi": [3.5, 3.5, 2.0],
                "shape": shape, "jitter": _round(rng.uniform(-0.5, 0.5, 3)),
                "checked": sorted(int(i) for i in rng.choice(int(np.prod(shape)), 24,
                                                             replace=False))})
    # One target shape (|(x, y)| = 1.2, |w| = 0.4), rotated, reflected and
    # translated: the SLSQP oracle's cost varies 5x across uniform targets
    # but only ~15% across these, which keeps wall_s steady across seeds.
    for _ in range(3):
        ang = rng.uniform(0, 2 * np.pi)
        target = [1.2 * math.cos(ang), 1.2 * math.sin(ang), 0.4 * rng.choice([-1.0, 1.0])]
        p = _round(rng.uniform(-2, 2, 3))
        out.append({"kind": "brute", "p": p, "q": _round(_heisenberg_compose(p, target)),
                    "seed": int(rng.integers(0, 1000))})
    # Two ball volumes and the batch are the slowest calls: at least 12 of
    # them in a 4-pass run keeps op_tail_ms (the 11th-largest latency) on a ball.
    for _ in range(2):
        out.append({"kind": "ball-volume", "n": 4096, "seed": _seed(rng)})
    return _interleave(out)


def _interleave(ops):
    """Spread each kind evenly over the pass, so that a slow drift in machine
    speed is shared by every kind instead of hitting one kind's block."""
    kinds = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op)
    slots = [((j + 0.5) / len(group), k, op)
             for k, group in enumerate(kinds.values()) for j, op in enumerate(group)]
    return [op for *_, op in sorted(slots, key=lambda s: s[:2])]


def stratified(rng, lo, hi, k):
    return lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k


def yor_points(rng, times):
    pts = []
    for t in times:
        x0 = math.exp(0.3 * rng.standard_normal())
        y0 = rng.uniform(-1.0, 1.0)
        x = x0 * math.exp(0.5 * rng.standard_normal())
        dy = rng.uniform(0.3, 2.5) * math.sqrt(t)
        pts.append(_round([x, y0 + dy, t, x0, y0]))
    return pts


def asian_row(rng):
    # the distribution criterion 07 uses for its HJB residuals
    x1, x0 = np.exp(np.clip(0.3 * rng.standard_normal(2), -0.5, 0.5))
    t1 = 1.0 + 0.5 * abs(rng.standard_normal())
    t0 = t1 - (0.7 + 0.4 * abs(rng.standard_normal()))
    qf = math.exp(float(np.clip(0.5 * rng.standard_normal(), -0.7, 0.7)))
    dy = (t1 - t0) * math.sqrt(x1 * x0) * qf
    y1 = rng.standard_normal()
    return _round([x1, y1, t1, x0, y1 + dy, t0])


def _closed_form_eval(rng):
    out = []
    float_times = rng.permutation(stratified(rng, 0.6, 4.0, 64))
    for k in range(8):
        out.append({"kind": "yor-float", "config": {
            "command": "density-eval",
            "parameters": {"kernel": "yor",
                           "points": yor_points(rng, float_times[8 * k:8 * k + 8])}}})
    # The slower of the two mpmath-branch operations is op_tail_ms.  Its cost
    # jumps with the number of quadrature panels: from 280 to 430 ms across
    # points jittered by only 2%.  So each is one fixed point shape
    # (x = x0 = 1, y - y0 = 1.2 sqrt(t)), moved in y by the seed.
    for t in (0.3, 0.5):
        y0 = rng.uniform(-1.0, 1.0)
        out.append({"kind": "yor-mpmath", "config": {
            "command": "density-eval",
            "parameters": {"kernel": "yor",
                           "points": [_round([1.0, y0 + 1.2 * math.sqrt(t), t, 1.0, y0])]}}})
    for _ in range(4):
        pts = []
        for _ in range(16):
            x, y = rng.standard_normal(2)
            tau = rng.uniform(-1.0, 1.0)
            s = rng.uniform(0.3, 2.0)
            xi = x + math.sqrt(2 * s) * rng.standard_normal()
            eta = y + s * (x + xi) / 2 + math.sqrt(s**3 / 6) * rng.standard_normal()
            pts.append(_round([x, y, tau + s, xi, eta, tau]))
        out.append({"kind": "gamma0", "config": {
            "command": "density-eval", "parameters": {"kernel": "gamma0", "points": pts}}})
    for _ in range(4):
        out.append({"kind": "value-fn", "config": {
            "command": "value-fn", "model": "asian",
            "parameters": {"endpoints": [asian_row(rng) for _ in range(40)]}}})
    out.append({"kind": "calibrate-hjb", "config": {
        "command": "calibrate-hjb",
        "parameters": {"n_points": 200, "n_asian": 100, "seed": _seed(rng)}}})
    for _ in range(4):
        t0 = rng.uniform(1.0, 2.5)
        frac = rng.uniform(0.05, 0.95)
        out.append({"kind": "chain-parabolic", "config": {
            "command": "chain",
            "parameters": {"kind": "parabolic", "x0": _round([rng.uniform(-1, 1)]),
                           "t0": round(t0, 12), "x": _round([rng.uniform(-2, 2)]),
                           "t": round(t0 - frac * 0.5 * t0, 12)}}})
    for _ in range(2):
        out.append({"kind": "chain-path", "config": {
            "command": "chain", "model": "heisenberg",
            "parameters": {"kind": "path",
                           "start": _round(list(rng.uniform(-1, 1, 3)) + [2.0]),
                           "control_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
                           "control_values": [_round(rng.standard_normal(2)) for _ in range(4)],
                           "step": 0.001, "h": 0.5}}})
    out.append({"kind": "certify", "duration": 0.36,
                "control_mag": round(float(rng.uniform(7.5, 8.5)), 12)})
    return _interleave(out)


_SPECS = {"mc_verify": _mc_verify, "cc_geometry": _cc_geometry,
          "closed_form_eval": _closed_form_eval}


def specs(workload: str, seed: int) -> list[dict]:
    """The workload's operation list for this seed, as plain JSON data."""
    return _SPECS[workload](_rng(workload, seed))


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

def _cli_main(argv):
    from hypoflow import cli

    return cli.main(argv)


def _read_csv(path: Path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _rel(a, b):
    return abs(a - b) / abs(b)


def _check_verify(out, config):
    report = json.loads((out / "bound_report.json").read_text())
    frac = report["violation_fraction"]
    if report["cells_checked"] <= 0 or not frac <= VERIFY_MAX_VIOLATIONS:
        return f"violation fraction {frac} over {report['cells_checked']} cells"
    return None


def _check_simulate(out, config):
    from hypoflow import montecarlo

    p = config["parameters"]
    batch = montecarlo.load_batch(out / "batch.bin")
    scheme = "exact" if p["scheme"] == "exact" else f"euler({p['dt']:g})"
    _, rows = _read_csv(out / "batch_summary.csv")
    mean = batch.endpoints.mean(axis=0)
    var = batch.endpoints.var(axis=0, ddof=1)
    expect = [[str(j), f"{mean[j]:.17g}", f"{var[j]:.17g}"] for j in range(mean.size)]
    expect.append(["floored", str(batch.floored), "0"])
    header = (batch.n, batch.seed, batch.scheme)
    expect_header = (p["n"], p["seed"], scheme)
    if p["scheme"] == "euler":
        header += (batch.model, batch.horizon, batch.dt)
        expect_header += (config["model"], p["horizon"], p["dt"])
    if header != expect_header:
        return f"batch.bin header {header} does not round-trip {expect_header}"
    if rows != expect:
        return "batch.bin endpoints disagree with batch_summary.csv"
    return None


def _check_cc_distance(out, config, expected):
    _, rows = _read_csv(out / "cc_distance.csv")
    got = float(rows[0][6])
    if not _rel(got, expected) <= CC_RTOL:
        return f"cc-distance {got!r} against reference {expected!r}"
    return None


def _check_density(out, config, expected, rtol, atol):
    _, rows = _read_csv(out / "density.csv")
    for row, want in zip(rows, expected):
        got = float(row[-1])
        if not abs(got - want) <= rtol * abs(want) + atol:
            return f"density {got!r} against reference {want!r} at {row[:-1]}"
    if len(rows) != len(expected):
        return "density.csv row count"
    return None


def _check_value_fn(out, config, switch_ref, diagnostics):
    """Every hjb_residual within HJB_TOL, apart from the known defect.

    `switch_ref` maps the rows whose stencil comes near the branch switch to
    the mpmath residual.  There a float64 residual over HJB_TOL, where the
    reference is within it, is the known defect in bench/README.md: it goes
    to `diagnostics`, not to the failures.
    """
    header, rows = _read_csv(out / "value_fn.csv")
    if len(rows) != len(config["parameters"]["endpoints"]):
        return f"value_fn.csv has {len(rows)} rows"
    col = header.index("hjb_residual")
    diagnostics.clear()
    bad = []
    for i, row in enumerate(rows):
        res = float(row[col])
        if abs(res) <= HJB_TOL:
            continue
        if i in switch_ref and abs(switch_ref[i]) <= HJB_TOL:
            diagnostics.setdefault("hjb_residual_at_branch_switch", []).append(
                {"row": i, "residual": res, "reference": switch_ref[i]})
        else:
            bad.append(f"{res:.3e} (row {i})")
    return f"HJB residual over {HJB_TOL:g}: {', '.join(bad)}" if bad else None


def _check_calibrate(out, config):
    payload = json.loads((out / "hjb_calibration.json").read_text())
    win = payload["winner"]
    key = f"{win['triple']}/{win['drift_sign']:+d}"
    below = [k for k, v in payload["kolmogorov_residuals"].items() if v <= 1e-8]
    # asian_max_residual is not held to HJB_TOL: these rows are not clipped as in
    # criterion 07, and the residual grows with psi (up to ~1e-3 at psi ~ 100).
    if (below != [key] or (win["triple"], win["drift_sign"]) != HJB_CONVENTION
            or not math.isfinite(payload["asian_max_residual"])):
        return f"calibration winner {key}, below tolerance {below}"
    return None


def _check_chain_parabolic(out, config):
    p = config["parameters"]
    _, rows = _read_csv(out / "chain.csv")
    pts = [(float(r[1]), float(r[2])) for r in rows]
    d_sq = (p["x"][0] - p["x0"][0]) ** 2
    bound = math.ceil(d_sq / (p["t0"] - p["t"])) + 1
    k = len(pts) - 2
    if k > bound:
        return f"chain has {k} links, bound {bound}"
    if any(b[1] >= a[1] for a, b in zip(pts, pts[1:])):
        return "chain times not strictly decreasing"
    ends = (pts[0][0] - p["x0"][0], pts[0][1] - p["t0"],
            pts[-1][0] - p["x"][0], pts[-1][1] - p["t"])
    if max(abs(e) for e in ends) > 1e-12:
        return "chain does not join the requested endpoints"
    return None


def _check_chain_path(out, config):
    p = config["parameters"]
    _, rows = _read_csv(out / "chain.csv")
    last = [float(v) for v in rows[-1][1:]]
    grid, values = p["control_grid"], p["control_values"]
    want = ref.heisenberg_pc_endpoint(p["start"][:3], grid, values)
    cost = sum((u * u + v * v) * (grid[k + 1] - grid[k]) for k, (u, v) in enumerate(values))
    t_end = p["start"][3] - grid[-1]
    err = max(abs(a - b) for a, b in zip(last[:3], want))
    if err > 1e-9 or abs(last[3] - t_end) > 1e-9 or _rel(last[4], cost) > 1e-9:
        return f"path chain end {last} against exact endpoint {want}, t {t_end}, cost {cost}"
    return None


def _batch_targets(spec):
    axes = [lo + (hi - lo) * (np.arange(n) + 0.5 + j) / n
            for lo, hi, n, j in zip(spec["lo"], spec["hi"], spec["shape"], spec["jitter"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def materialize(spec: dict, workdir: Path) -> Op:
    """Build the operation for a spec; reference values are computed here."""
    kind = spec["kind"]
    if "config" in spec:
        return cli_op(spec, workdir)
    from hypoflow import heisenberg, quadratic

    if kind == "cc-batch":
        targets = _batch_targets(spec)
        want = {i: ref.cc_distance_from_origin(targets[i]) for i in spec["checked"]}

        def check(result):
            dist = result[0]
            if dist.shape != (len(targets),) or not np.all(np.isfinite(dist)):
                return "batch distances missing or not finite"
            bad = [i for i, d in want.items() if not _rel(dist[i], d) <= CC_RTOL]
            return f"batch cells {bad} off the reference" if bad else None

        return Op(kind, lambda: heisenberg.cc_distance_batch(targets), check, len(targets))
    if kind == "brute":
        p, q = np.array(spec["p"]), np.array(spec["q"])
        want = ref.cc_distance(spec["p"], spec["q"])

        def check(result):
            got = result[0]
            return None if _rel(got, want) <= BRUTE_RTOL else f"brute {got!r} against {want!r}"

        return Op(kind, lambda: heisenberg.cc_distance_brute(p, q, seed=spec["seed"]), check, 1)
    if kind == "ball-volume":
        op = Op(kind, lambda: heisenberg.estimate_unit_ball_volume(spec["n"], spec["seed"]),
                None, spec["n"])
        want = ref.heisenberg_unit_ball_volume()

        def check(result):
            vol, ci = result
            # Compared, not counted: see the unit ball volume defect in bench/README.md.
            op.diagnostics = {"volume": float(vol), "ci99": float(ci), "reference": want}
            ok = math.isfinite(vol) and math.isfinite(ci) and vol > 0 and ci > 0
            return None if ok else f"ball volume {vol!r} +- {ci!r}"

        op.check = check
        return op
    if kind == "certify":
        axis = np.linspace(-0.96, 0.96, 17)
        t = -spec["duration"]

        def check(mask):
            pts = list(zip(*np.nonzero(mask)))
            bad = [p for p in pts if not ref.quadratic_attainable(
                axis[p[0]], axis[p[1]], axis[p[2]], t)]
            if not pts or bad:
                return f"{len(pts)} certified points, {len(bad)} outside the attainable set"
            return None

        return Op(kind, lambda: quadratic.certify_grid_reachability(
            spec["duration"], axis, eps=5e-3, control_mag=spec["control_mag"], dedup=0.01),
            check, 1)
    raise ValueError(f"unknown operation kind {kind}")


def cli_op(spec, workdir: Path) -> Op:
    config = spec["config"]
    kind = spec["kind"]
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    out = workdir / "out"
    argv = ["--config", str(cfg), "--output", str(out)]
    params = config["parameters"]
    command = config["command"]
    diagnostics = {}
    if command == "verify":
        steps = 1 if params["target"] == "kolmogorov" else 2 * round(1.0 / EM_DT)
        work, checker = params["n"] * steps, _check_verify
    elif command == "simulate":
        steps = 1 if params["scheme"] == "exact" else round(params["horizon"] / params["dt"])
        work, checker = params["n"] * steps, _check_simulate
    elif command == "cc-distance":
        want = ref.cc_distance(*params["pairs"][0])
        work, checker = 1, lambda o, c: _check_cc_distance(o, c, want)
    elif command == "density-eval":
        if params["kernel"] == "yor":
            want = [ref.yor_density(*pt) for pt in params["points"]]
            tols = YOR_RTOL, YOR_ATOL
        else:
            want = [ref.kolmogorov_density(*pt) for pt in params["points"]]
            tols = GAMMA0_RTOL, 0.0
        work = len(params["points"])
        checker = lambda o, c: _check_density(o, c, want, *tols)  # noqa: E731
    elif command == "value-fn":
        switch_ref = {i: ref.asian_hjb_residual(row, HJB_FD_STEP, *HJB_CONVENTION)
                      for i, row in enumerate(params["endpoints"])
                      if ref.asian_stencil_near_switch(row, HJB_FD_STEP)}
        work = len(params["endpoints"])
        checker = lambda o, c: _check_value_fn(o, c, switch_ref, diagnostics)  # noqa: E731
    elif command == "calibrate-hjb":
        work, checker = params["n_points"] + params["n_asian"], _check_calibrate
    elif params["kind"] == "parabolic":
        work, checker = 1, _check_chain_parabolic
    else:
        work, checker = 1, _check_chain_path

    def check(code):
        if code != 0:
            return f"exit code {code}"
        return checker(out, config)

    return Op(kind, lambda: _cli_main(argv), check, work, outdir=out, diagnostics=diagnostics)


def artifact_digest(outdir: Path) -> str:
    """sha256 over the CLI artifacts; run.log carries timestamps and is skipped."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name != "run.log":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()
