"""Run one posrank benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_dpin --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the run measures the end-to-end metrics untraced;
with `--trace 1` it reports the per-layer metrics of a traced run. Each
metric is printed as `name = value unit`, the run record (versions, configs,
requests per phase, digests) goes to `.perfbench_out/`, and the last line
is the JSON result. Exit code 0 means every correctness check passed, 1
means a check failed (the result is still printed), 2 means the run could
not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "posrank" / "__init__.py").is_file():
        print(f"perfbench: no posrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the client is single-threaded, and a fixed thread count
    # keeps BLAS reductions in the backward pass reproducible run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        run, values = bench.measure_traced(args.workload, args.seed, args.seconds, OUT_DIR)
        units = bench.PER_LAYER_UNITS
    else:
        run, values = bench.measure(args.workload, args.seed, args.seconds, OUT_DIR)
        units = bench.E2E_UNITS
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **bench.configs(args.workload, args.seed),
        **bench.environment(ROOT),
        "phases": {name: vars(p) for name, p in run.phases.items()},
        "error_rate": run.failed / max(1, run.attempted),
        "digests": run.digests,
        **run.record,
        "failures": run.failures,
        "result": result,
    }
    record_path = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} ({run.failed} failed of {run.attempted} attempted)")
    if "latency" in record:
        print("latency sample: " + json.dumps(record["latency"]))
    for failure in run.failures[:5]:
        print(f"FAILED {failure.splitlines()[0]}", file=sys.stderr)
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
