"""Smoke test of the benchmark: every workload once, at a tiny size.

Usage, from the root of a checkout (exit code 0 means every check held)::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` with tracing off and on and
checks that

* both runs exit 0 with ``correct`` true, and report exactly the metrics
  ``BENCHMARK.json`` names, each with its unit;
* every span of the traced run nests inside its parent;
* per root span, self times are non-negative and add up to the root's
  wall time exactly, and the reported per-layer self times, ``other``
  included, add up to ``trace.wall_s``.
"""

from __future__ import annotations

import json
import subprocess
import sys

import tracing
from common import ROOT, trace_path
from run import WORKLOADS

SEED = 7


def run(workload: str, traced: bool) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    command += ["--workload", workload, "--seed", str(SEED), "--seconds", "1"]
    command += ["--trace", str(int(traced)), "--tiny"]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    if done.returncode != 0:
        raise AssertionError(f"{command} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"not correct: {result}")
    reported = result["metrics"]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in reported:
            problems.append(f"missing metric {name}")
        elif reported[name]["unit"] != unit:
            problems.append(f"{name} has unit {reported[name]['unit']}, not {unit}")
    extra = set(reported) - {metric["name"] for metric in declared}
    if extra:
        problems.append(f"undeclared metrics {sorted(extra)}")
    return problems


def check_spans(tracer: tracing.Tracer) -> list[str]:
    problems = []
    spans = tracer.spans
    roots = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        outer = None if parent is None else spans[parent]
        if end is None or end < start:
            problems.append(f"span {index} {name} is open or ends before it starts")
        elif parent is None:
            roots.append(index)
        elif not outer[tracing.START] <= start <= end <= outer[tracing.END]:
            problems.append(f"span {index} {name} leaves its parent span {parent}")
    if not roots:
        problems.append("no root span")
    for root in roots:
        owned = tracer.self_ns(root).values()
        wall = spans[root][tracing.END] - spans[root][tracing.START]
        if min(owned) < 0 or sum(owned) != wall:
            problems.append(f"self times under root {root} do not partition {wall} ns")
    return problems


def check_layers(metrics: dict) -> list[str]:
    parts = [metrics[name]["value"] for name in tracing.SELF_TIMES.values()]
    wall = metrics["trace.wall_s"]["value"]
    if min(parts) < 0 or abs(sum(parts) - wall) > 1e-6 * max(1.0, wall):
        return [f"per-layer self times {sum(parts)} s do not add up to {wall} s"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in WORKLOADS:
        plain = run(workload, traced=False)
        traced = run(workload, traced=True)
        problems = check_result(plain, bench["end_to_end"])
        problems += check_result(traced, bench["per_layer"])
        problems += check_spans(tracing.Tracer.load(trace_path(workload, SEED)))
        problems += check_layers(traced["metrics"])
        for problem in problems:
            print(f"{workload}: {problem}")
        print(f"{workload}: {'FAILED' if problems else 'ok'}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
