"""The mapping stack's benchmark: three workloads, one command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures every end-to-end metric for about ``--seconds``
seconds, with tracing off and the library's defaults.  ``--trace 1``
runs the workload's fixed traced phase once untraced and once traced,
each in a fresh process, and reports every per-layer metric.  Either
way every output is checked against a serial in-process reference
(``EvaluationEngine(max_workers=1)``) and the Figure 6 anchors.  The
last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the exit code is 0 only when no
operation failed.  ``perfbench/README.md`` defines the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys

import common

WORKLOADS = ("paper_sweep", "service_jobs", "large_instances")

END_TO_END = {
    "setup_s": "s",
    "cold_cells_per_s": "1/s",
    "warm_cells_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "bulk_cells_per_s": "1/s",
    "first_map_s": "s",
    "steady_map_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric and its unit."""
    import paper_sweep
    import repro
    import tracing

    units = dict.fromkeys(tracing.SELF_TIMES.values(), "s")
    units.update(
        {
            "import.repro_s": "s",
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "engine.edge_hit_rate": "ratio",
            "engine.perm_hit_rate": "ratio",
            "engine.cost_hit_rate": "ratio",
            "engine.metric_hit_rate": "ratio",
            "grid.edges_built": "count",
            "core.map_calls": "count",
            "kernels.edges_scored": "count",
            "kernels.bytes_computed": "bytes",
            "wire.bytes": "bytes",
            "service.roundtrip_ms": "ms",
            "service.submit_ms": "ms",
            "service.first_result_ms": "ms",
            "service.shards_dispatched": "count",
            "service.worker_spawn_s": "s",
            "store.hits": "count",
            "store.misses": "count",
            "store.hit_rate": "ratio",
            "queue.oldest_age_ms": "ms",
        }
    )
    for impl in repro.list_kernels():
        units[f"kernels.cut_s.{impl}"] = "s"
        units[f"kernels.hop_cut_s.{impl}"] = "s"
    for name in paper_sweep.BACKENDS:
        units[f"backend.sweep_s.{name}"] = "s"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes (not for measurement)"
    )
    args = parser.parse_args(argv)
    if not common.library_present():
        print(f"nothing to measure: {common.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    common.prepare_environment()
    module = importlib.import_module(args.workload)
    ledger = common.Ledger()
    if args.trace:
        units = per_layer_units()
        values = dict.fromkeys(units, 0.0)
        values.update(module.trace(args.seed, args.seconds, args.tiny, ledger))
    else:
        units = END_TO_END
        values = module.measure(args.seed, args.seconds, args.tiny, ledger)
    common.check_anchors(ledger)
    if set(values) != set(units) or not all(math.isfinite(v) for v in values.values()):
        raise RuntimeError(f"metric set mismatch or non-finite value: {values}")
    for reason in ledger.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
