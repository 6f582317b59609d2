"""The benchmark's own checks, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Each traced run happens in a fresh interpreter, as the benchmark runs:
process-wide counters (session and request ids) then start from the same
state, so the exact counters of two runs with one seed must be equal.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

TINY = (
    "workloads.Sizes(tpch_sf=0.0001, tpcc=(('warehouses', 2), ('districts', 1),"
    " ('customers', 2), ('items', 4)), txn_batch=2, traced_txns=6)"
)

#: hardware-independent metrics: they must repeat exactly for one seed
EXACT_PREFIXES = (
    "crypto.modexp.", "crypto.modinv", "engine.exec_path.", "engine.udf.",
    "net.rpcs.", "net.bytes_", "cluster.route.", "core.encryptor.rows",
    "core.decryptor.rows", "sql.parse_calls", "core.rewriter.rewrite_calls",
    "core.rewriter.rewrite_dml_calls", "core.plan.bind_calls", "obs.ops",
)


def traced_metrics(workload: str, seed: int) -> dict:
    script = f"""
import json, sys
sys.path[:0] = {[str(HERE.parent / "src"), str(HERE)]!r}
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
result = workloads.run({workload!r}, {seed}, 0, {TINY}, tracer)
metrics = tracing.layer_metrics(tracer, result)
print(json.dumps({{"failed": result.failed,
                  "metrics": {{k: v for k, (v, _unit) in metrics.items()}}}}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=HERE.parent,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["failed"] == 0
    return out["metrics"]


def exact(metrics: dict) -> dict:
    return {
        name: value for name, value in metrics.items()
        if name.startswith(EXACT_PREFIXES) and not name.endswith(".s")
        and not name.startswith("crypto.modexp_s.")
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_for_one_seed(workload):
    first = traced_metrics(workload, seed=7)
    second = traced_metrics(workload, seed=7)
    assert exact(first) == exact(second)
    assert first["obs.ops"] > 0
    if workload == "olap-1sp":
        assert first["crypto.modexp.udfs"] > 0
        assert first["engine.exec_path.batch"] + first["engine.exec_path.row"] == 22
        # one thread: layer self times tile the operations' wall time
        assert first["obs.self_sum_ratio"] == pytest.approx(1.0, abs=1e-6)
    else:
        assert first["net.bytes_sent"] > 0
        assert first["obs.self_sum_ratio"] >= 1.0 - 1e-6


def test_exact_counters_follow_the_seed():
    assert exact(traced_metrics("oltp-2shard-wire", seed=7)) != exact(
        traced_metrics("oltp-2shard-wire", seed=8)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_gives_every_end_to_end_metric(workload):
    sizes = eval(TINY)
    result = workloads.run(workload, 7, 0, sizes)
    assert result.failed == 0
    assert len(result.setup_cal_s) == workloads.SETUP_REPEATS
    assert len(result.passes_cal_s) >= 1
    metrics = workloads.end_to_end(result)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {metric["name"] for metric in spec["end_to_end"]}
    assert all(value > 0 for value, _unit in metrics.values())


def test_answer_check_rejects_a_wrong_value():
    want = [("A", 1, 2.5), ("B", 2, 0.05375000000000001)]
    assert workloads._same_answer([("A", 1, 2.5), ("B", 2, 0.05375)], want)
    assert not workloads._same_answer([("A", 1, 2.5), ("B", 2, 0.0538)], want)
    assert not workloads._same_answer([("A", 1, 2.5), ("B", 3, 0.05375)], want)
    assert not workloads._same_answer(want[:1], want)
    assert not workloads._same_answer(list(reversed(want)), want)
