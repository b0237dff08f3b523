"""Serving latency at paper scale: DIN, DPIN and DPIN+ItemAction at J = 10 and 50.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/paper_scale_latency.py --seed 0

Builds each variant at `model.paper_scale_config` with 2,000 ids per
vocabulary field, times the predict-then-allocate path with
`serving.benchmark_latency` (30 trials after 5 warm-ups per cell) and prints
one JSON object mapping "variant J=n" to the median and p95 in ms and to
the peak traced allocation (`tracemalloc`, in MiB) of one `predict_matrix`
call on the cell's request, taken after the timing. Before anything else it
frees one 31 MiB block (`settle_allocator`), so every cell is timed under the
same allocator thresholds whatever the cells before it freed. The package
comes from PYTHONPATH, so one copy of this script can time the sources of
any checkout.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc

import numpy as np

from posrank.data import VOCAB_FIELDS
from posrank.model import ParameterSet, build_model, paper_scale_config, predict_matrix
from posrank.serving import benchmark_latency, synthetic_request

VARIANTS = ("DIN", "DPIN", "DPIN+ItemAction")
ITEM_COUNTS = (10, 50)
IDS_PER_FIELD = 2_000
SETTLE_BYTES = 31 * 2**20


def settle_allocator() -> None:
    """Free one block of `SETTLE_BYTES`, so glibc's thresholds stop moving.

    glibc maps each large block with mmap, and when it frees one of at most
    32 MiB it raises its mmap threshold to that block's size and its trim
    threshold to twice that. Left alone, a cell's multi-megabyte temporaries
    come from reused heap pages or from freshly faulted mmap pages depending
    on the largest block the cells timed before it freed, so a cell's time
    would depend on the cells before it. After this call every block smaller
    than the settled threshold is served from the heap in every cell, as in
    a long-running server. With another allocator it is one allocation.
    """
    np.empty(SETTLE_BYTES, dtype=np.uint8)


def traced_peak_mib(params: ParameterSet, num_items: int, seed: int) -> float:
    """Peak traced allocation of one `predict_matrix` on the request `benchmark_latency` times."""
    request = synthetic_request(params.config, num_items, seed=[seed, num_items])
    tracemalloc.start()
    try:
        predict_matrix(params, request)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    settle_allocator()
    cfg = paper_scale_config({f: IDS_PER_FIELD for f in VOCAB_FIELDS})
    params = {v: build_model(cfg, v, args.seed) for v in VARIANTS}
    table = benchmark_latency(params, list(ITEM_COUNTS), seed=args.seed)
    cells = {
        f"{r.variant} J={r.num_items}": {
            "median_ms": r.median_us / 1e3,
            "p95_ms": r.p95_us / 1e3,
            "traced_peak_mib": traced_peak_mib(params[r.variant], r.num_items, args.seed),
        }
        for r in table.rows
    }
    print(json.dumps(cells, indent=1))


if __name__ == "__main__":
    main()
