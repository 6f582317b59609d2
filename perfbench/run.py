"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload olap-1sp --seed 1 --seconds 10 --trace 0

Run from the repository root.  Human-readable report lines (provenance,
per-query exec paths, per-kind latencies, error rate) come first; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with every layer
unwrapped; ``--trace 1`` reports the per-layer metrics of a separate,
traced run and writes its spans to ``perfbench/out/``.  A wrong answer or
a failed operation makes the exit status 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def provenance(args, sizes: workloads.Sizes, result) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "modulus_bits": workloads.MODULUS_BITS,
        "value_bits": workloads.VALUE_BITS,
        "shards": workloads.SHARDS if "2shard" in args.workload else 0,
        "tpch_sf": sizes.tpch_sf if args.workload.startswith("olap") else None,
        "tpcc": dict(sizes.tpcc) if args.workload.startswith("oltp") else None,
        "setup_repeats": len(result.setup_cpu_s),
        "calibration": {
            "steps": workloads.CAL_STEPS,
            "nominal_ms": workloads.CAL_NOMINAL_S * 1e3,
            "slices": len(result.setup_cal_s) * 2 * workloads.SETUP_CAL_SLICES
            + len(result.passes_cal_s),
        },
        "exec_path": result.exec_paths or "not visible (daemon-side engine)",
    }


def write_spans(path: Path, tracer) -> None:
    path.parent.mkdir(exist_ok=True)
    ids = {id(span): index for index, span in enumerate(tracer.spans)}
    with open(path, "w") as out:
        for index, span in enumerate(tracer.spans):
            out.write(json.dumps({
                "id": index,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": ids.get(id(span.parent)),
                "op": span.op,
                **(span.attrs or {}),
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so the shard daemons it started stop
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    sizes = workloads.Sizes()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = workloads.run(args.workload, args.seed, args.seconds, sizes, tracer)

    print("provenance " + json.dumps(provenance(args, sizes, result)))
    for error in result.errors:
        print("error " + error)
    for name, (value, unit) in workloads.workload_report(result).items():
        print(f"report {name} {value} {unit}")
    if tracer is None:
        metrics = workloads.end_to_end(result)
    else:
        metrics = tracing.layer_metrics(tracer, result)
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans, tracer)
        print(f"spans {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
