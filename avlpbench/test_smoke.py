"""Smoke test of the benchmark at tiny sizes, a few seconds in all.

    python3 -m pytest -q avlpbench/test_smoke.py
    python3 avlpbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is reported with its
unit, that no operation fails on any workload, that traced spans carry
parent and op ids, and that the benchmark refuses to run without ``src/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_avlp()
run.OUT = run.ROOT / ".avlpbench" / "smoke"

import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.3


def _run(name: str, trace: bool) -> dict:
    return run.run_benchmark(name, seed=3, seconds=SECONDS, trace=trace, tiny=True)


def _check_result(res: dict, specs) -> None:
    assert res["failed"] == 0 and res["correct"], res["info"]
    assert res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_end_to_end_metrics_on_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        res = _run(name, trace=False)
        _check_result(res, SPEC["end_to_end"])
        assert res["info"]["failed_frac"] == 0.0
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_traced_spans_carry_parent_and_op_ids():
    for name in run.WORKLOADS:
        res = _run(name, trace=True)
        _check_result(res, SPEC["per_layer"])
        lines = (run.ROOT / res["info"]["trace_file"]).read_text().splitlines()
        header = json.loads(lines[0])
        assert header["fields"] == ["name", "start", "end", "parent", "op", "attrs"]
        assert {"analysis", "qpkkt"} <= set(header["meta"]["unmeasured"])
        spans = [json.loads(line) for line in lines[1:]]
        assert any(s[tracing.NAME] != "op" for s in spans), name
        for s in spans:
            assert s[tracing.OP] >= 0 and s[tracing.END] >= s[tracing.START]
            if s[tracing.NAME] == "op":
                assert s[tracing.PARENT] == -1
            else:
                parent = spans[s[tracing.PARENT]]
                assert parent[tracing.OP] == s[tracing.OP]
                assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] <= parent[tracing.END]


def test_design_record_names_real_metrics_and_workloads():
    design = json.loads((HERE / "design.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert set(design["workloads"]) == set(run.WORKLOADS)
    assert set(design["end_to_end"]) == end_to_end | {"failed_frac"}
    for p in design["predictions"]:
        assert set(p["metrics"]) <= per_layer
        assert set(p["moves"]) <= end_to_end
        assert set(p["on"]) | set(p.get("no_change_on", ())) <= set(run.WORKLOADS)
    assert {n for p in design["predictions"] for n in p["metrics"]} == per_layer


def test_tracer_restores_every_binding():
    from avlp import exact, reformulate, simplex

    originals = (simplex.solve_lp, exact.solve_lp, reformulate.solve_lp)
    tracer = tracing.Tracer()
    with tracer.active():
        assert exact.solve_lp is simplex.solve_lp is reformulate.solve_lp
        assert exact.solve_lp is not originals[0]
    assert (simplex.solve_lp, exact.solve_lp, reformulate.solve_lp) == originals


def test_refuses_to_run_without_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (test_end_to_end_metrics_on_every_workload,
                 test_traced_spans_carry_parent_and_op_ids,
                 test_design_record_names_real_metrics_and_workloads,
                 test_tracer_restores_every_binding,
                 test_refuses_to_run_without_source):
        test()
        print(f"ok {test.__name__}")
