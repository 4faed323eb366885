"""Batch driver: every operation as a subcommand of a JSON-configured run.

Usage: hypoflow --config experiment.json [--output DIR] [--seed N] [--threads N]

The config carries {"command", "model", "parameters"}; the schema
(config_schema.json, shipped with the package) is enforced before execution,
and unknown keys, parameters the run would not read and a model given to a
command that reads none are rejected.  Artifacts are CSV/JSON with floats
printed at 17 significant digits, so re-running a config is byte-identical
(timestamps go to the run.log sidecar only, and --threads must not change
any output).  --threads defaults to the number of cores the process may run
on (montecarlo.CORES).

Exit codes: 0 success, 2 domain/config/I/O error, 3 accuracy-window error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import inspect
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import asian, harnack, heisenberg, kolmogorov, models, montecarlo, verify
from .asian import AccuracyError, AsianEndpoints
from .models import DomainError
from .paths import ControlPath, integrate_path

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@functools.cache
def _validators():
    """The top-level validator and one per command, built once per process.

    The schema is checked against its metaschema here, not on every call.
    """
    import jsonschema

    schema = json.loads(
        resources.files("hypoflow").joinpath("config_schema.json").read_text()
    )
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    # JSON Schema counts 2.0 as an integer; the samplers need a Python int
    cls = jsonschema.validators.extend(cls, type_checker=cls.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))
    return cls(schema), {name: cls(sub) for name, sub in schema["$defs"].items()}


def _validate(validator, instance) -> None:
    from jsonschema.exceptions import best_match

    error = best_match(validator.iter_errors(instance))
    if error is not None:
        raise error


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflows such as 1e999 are refused."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text} in the config")
    return x


def _load_config(path: str, seed: int | None = None) -> dict:
    """The validated config; a `seed` replaces the parameters' seed of the
    commands that take one, and is validated with them."""
    with open(path) as fh:
        config = json.load(fh, parse_float=_finite, parse_constant=_finite)
    top, commands = _validators()
    _validate(top, config)
    command = commands[config["command"]]
    if seed is not None and "seed" in command.schema["properties"]:
        config["parameters"]["seed"] = seed
    _validate(command, config["parameters"])
    if "model" in config and config["command"] not in ("simulate", "value-fn", "chain"):
        raise DomainError(f"{config['command']} takes no model")
    return config


def _refuse_unused(what: str, unused) -> None:
    """DomainError naming the given parameters that `what` would not read."""
    if unused:
        raise DomainError(f"{what} takes no parameter {', '.join(sorted(unused))}")


def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _write_csv(outdir: Path, name: str, header: str, rows) -> Path:
    """A header line, then one line per row: strings as they are, numbers by _fmt."""
    lines = [header]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return _write(outdir, name, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(config, outdir, threads):
    p = dict(config["parameters"])
    model = models.by_name(config.get("model", "kolmogorov"))
    scheme = p.get("scheme", "euler")
    start = p.get("start", model.identity()[:-1])
    if len(start) != model.dim:
        raise DomainError(f"start needs {model.dim} coordinates for model {model.name}")
    if scheme == "exact":
        _refuse_unused("exact simulate", {"dt", "variant"} & set(p))
        law = montecarlo.exact_law(model, start, p["horizon"])
        batch = dataclasses.replace(
            montecarlo.sample_gaussian_exact(law, p["n"], p["seed"], threads=threads),
            model=model.name, horizon=p["horizon"],
        )
    else:
        batch = montecarlo.euler_maruyama(
            model, start, p["horizon"], p.get("dt", p["horizon"] / 1000.0),
            p["n"], p["seed"], variant=p.get("variant", "sqrt2"), threads=threads,
        )
    outdir.mkdir(parents=True, exist_ok=True)
    montecarlo.save_batch(batch, outdir / "batch.bin")
    mean = batch.endpoints.mean(axis=0)
    var = batch.endpoints.var(axis=0, ddof=1)
    rows = [(j, mean[j], var[j]) for j in range(mean.size)]
    rows.append(("floored", batch.floored, 0))
    return _write_csv(outdir, "batch_summary.csv", "coordinate,mean,variance", rows)


def _cmd_density_eval(config, outdir, threads):
    p = config["parameters"]
    rows = []
    if p["kernel"] == "gamma0":
        header = "x,y,t,xi,eta,tau,density"
        for pt in p["points"]:
            if len(pt) != 6:
                raise DomainError("gamma0 points need 6 coordinates")
            rows.append([*pt, kolmogorov.gamma0(*pt)])
    else:
        header = "x,y,t,x0,y0,density"
        for pt in p["points"]:
            if len(pt) != 5:
                raise DomainError("yor points need 5 coordinates")
            rows.append([*pt, asian.yor_density(*pt)])
    return _write_csv(outdir, "density.csv", header, rows)


def _cmd_value_fn(config, outdir, threads):
    p = config["parameters"]
    model_name = config.get("model", "asian")
    if model_name not in ("asian", "kolmogorov"):
        raise DomainError(f"value-fn takes model asian or kolmogorov, not {model_name}")
    if model_name == "kolmogorov":
        rows = [[*row, kolmogorov.psi0(*row)] for row in p["endpoints"]]
        return _write_csv(outdir, "value_fn.csv", "x,y,t,xi,eta,tau,psi", rows)
    rows = []
    for row in p["endpoints"]:
        e = AsianEndpoints(*row)
        d = asian.value_psi_details(e)
        rows.append([*row, d["q"], d["r"], d["E"], d["psi"], d["branch"],
                     asian.hjb_residual(e, 1e-4)])
    return _write_csv(
        outdir, "value_fn.csv", "x1,y1,t1,x0,y0,t0,q,r,E,psi,branch,hjb_residual", rows
    )


# (required, optional) parameters of each chain kind
_CHAIN_KEYS = {
    "parabolic": (("x0", "t0", "x", "t"), ("c", "theta")),
    "path": (("start", "control_grid", "control_values", "step"), ("h",)),
}


def _cmd_chain(config, outdir, threads):
    p = config["parameters"]
    required, optional = _CHAIN_KEYS[p["kind"]]
    missing = [k for k in required if k not in p]
    if missing:
        raise DomainError(f"{p['kind']} chain needs {', '.join(missing)}")
    _refuse_unused(f"{p['kind']} chain", set(p) - {"kind", *required, *optional})
    if p["kind"] == "parabolic" and "model" in config:
        raise DomainError("parabolic chain takes no model")
    params = harnack.ChainParams(**{k: p[k] for k in optional if k in p})
    if p["kind"] == "parabolic":
        chain = harnack.build_parabolic_chain(p["x0"], p["t0"], p["x"], p["t"], params)
    else:
        model = models.by_name(config.get("model", "kolmogorov"))
        ctrl = ControlPath(np.asarray(p["control_grid"]), np.asarray(p["control_values"]))
        path = integrate_path(model, np.asarray(p["start"]), ctrl, p["step"])
        chain = harnack.build_path_chain(model, path, params)
    n_space = chain.points.shape[1] - 1
    header = ",".join(["step", *(f"x{i + 1}" for i in range(n_space)), "t", "cumulative_cost"])
    rows = [[j, *pt, cc] for j, (pt, cc) in enumerate(zip(chain.points, chain.cum_costs))]
    return _write_csv(outdir, "chain.csv", header, rows)


def _cmd_cc_distance(config, outdir, threads):
    pairs = config["parameters"]["pairs"]
    results = [heisenberg.cc_distance(np.asarray(p), np.asarray(q)) for p, q in pairs]
    rows = [[*p, *q, r.distance, r.solver, r.residual] for (p, q), r in zip(pairs, results)]
    return _write_csv(outdir, "cc_distance.csv", "px,py,pw,qx,qy,qw,distance,solver,residual", rows)


def _cmd_verify(config, outdir, threads):
    kwargs = dict(config["parameters"])
    target = kwargs.pop("target")
    fn = getattr(verify, f"verify_{target}")
    _refuse_unused(f"verify {target}", set(kwargs) - set(inspect.signature(fn).parameters))
    report = fn(**kwargs, threads=threads)
    payload = {"target": target, "seed": kwargs["seed"], **report.to_json_dict()}
    return _write(outdir, "bound_report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_calibrate_hjb(config, outdir, threads):
    p = dict(config["parameters"])
    seed = p.get("seed", 3)
    winner, table = asian.calibrate_hjb_convention(
        n_points=p.get("n_points", 200), seed=seed
    )
    fd_step = p.get("fd_step", 1e-4)
    n_asian = p.get("n_asian", 100)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(n_asian):
        x1, x0 = np.exp(0.3 * rng.standard_normal(2))
        t1 = 1.0 + 0.5 * abs(rng.standard_normal())
        t0 = t1 - (0.8 + 0.4 * abs(rng.standard_normal()))
        dy = (t1 - t0) * np.sqrt(x1 * x0) * np.exp(0.7 * rng.standard_normal())
        y1 = rng.standard_normal()
        e = AsianEndpoints(x1, y1, t1, x0, y1 + dy, t0)
        worst = max(worst, abs(asian.hjb_residual(e, fd_step, convention=winner)))
    payload = {
        "winner": {"triple": winner[0], "drift_sign": winner[1]},
        "kolmogorov_residuals": {f"{k[0]}/{k[1]:+d}": v for k, v in table.items()},
        "asian_max_residual": worst,
        "fd_step": fd_step,
        "n_asian": n_asian,
    }
    return _write(outdir, "hjb_calibration.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


_HANDLERS = {
    "simulate": _cmd_simulate,
    "density-eval": _cmd_density_eval,
    "value-fn": _cmd_value_fn,
    "chain": _cmd_chain,
    "cc-distance": _cmd_cc_distance,
    "verify": _cmd_verify,
    "calibrate-hjb": _cmd_calibrate_hjb,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hypoflow", description="batch driver for the hypoflow laboratory"
    )
    parser.add_argument("--config", required=True, help="JSON experiment configuration")
    parser.add_argument("--output", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads", type=int, default=montecarlo.CORES,
        help="sampler worker threads, at least 1 (default: the cores this process "
             "may run on, %(default)s here; results are independent of this)",
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: {args.threads} is less than 1")

    import jsonschema

    outdir = Path(args.output)
    try:
        config = _load_config(args.config, args.seed)
        artifact = _HANDLERS[config["command"]](config, outdir, args.threads)
        with open(outdir / "run.log", "a") as fh:
            fh.write(f"{datetime.datetime.now().isoformat()} {config['command']} -> {artifact}\n")
    except AccuracyError as exc:
        print(f"accuracy-window error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ValueError, jsonschema.ValidationError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    print(artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
