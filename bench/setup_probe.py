"""Set-up probe: a fresh process that imports hypoflow and runs the warm-up.

usage: python3 bench/setup_probe.py WORKLOAD WORKDIR

``setup_s`` is the wall time of this process, from spawn to exit: interpreter
start, ``import hypoflow``, the CLI's schema load and the workload's warm-up
operations, which fill the package's lazy caches (the HJB convention
calibration and the mpmath import).  It exits 0 only if every warm-up
operation exits 0.  Outputs are checked by the measuring process, which runs
the same warm-up; nothing here computes references.
"""

import json
import sys
from pathlib import Path

WARMUP = {
    "mc_verify": [{"kind": "verify-kolmogorov", "config": {
        "command": "verify", "parameters": {"target": "kolmogorov", "n": 20_000, "seed": 1}}}],
    "cc_geometry": [{"kind": "cc-distance", "config": {
        "command": "cc-distance", "parameters": {"pairs": [[[0, 0, 0], [1.0, 0.5, 0.25]]]}}}],
    "closed_form_eval": [
        {"kind": "value-fn", "config": {"command": "value-fn", "model": "asian", "parameters": {
            "endpoints": [[1.0, 0.0, 1.5, 1.1, 0.9, 0.5]]}}},
        {"kind": "yor-mpmath", "config": {"command": "density-eval", "parameters": {
            "kernel": "yor", "points": [[1.0, 0.8, 0.55, 1.0, 0.0]]}}}],
}


def main(argv) -> int:
    workload, workdir = argv[0], Path(argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from hypoflow import cli

    for i, spec in enumerate(WARMUP[workload]):
        opdir = workdir / f"warmup-{i}"
        opdir.mkdir(parents=True, exist_ok=True)
        cfg = opdir / "config.json"
        cfg.write_text(json.dumps(spec["config"]))
        if cli.main(["--config", str(cfg), "--output", str(opdir / "out")]) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
