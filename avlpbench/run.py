#!/usr/bin/env python3
"""avlp benchmark: three closed-loop workloads, one client, one thread.

Run from the repository root:

    python3 avlpbench/run.py --workload solve-dense --seed 1 --seconds 40 --trace 0

``--trace 0`` times the operations with nothing installed and prints the
end-to-end metrics; ``--trace 1`` alternates traced and plain runs of the
same operations, prints the per-layer metrics and writes every span to
``.avlpbench/trace-<workload>-seed<seed>.jsonl``.  Outputs are checked
against independent references after timing, outside every timed number.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the tail percentile with its sample
count, ``failed_frac`` and the environment.

The benchmark imports ``avlp`` from ``src/`` beside this directory and
exits with code 2 when it is missing.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned before numpy is first imported
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("solve-dense", "feasibility-union", "certify")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".avlpbench"

# set-ups per run whose median is reported; the first makes the inputs, the
# others run after the timed loop, so only one precedes the first timed op
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "simplex.solve_lp.calls": "calls/op",
    "simplex.solve_lp.busy_s": "s/op",
    "simplex.solve_lp.ms_p50": "ms",
    "simplex.solve_lp.ms_tail": "ms",
    "simplex.share": "fraction",
    "simplex.lp_rows_mean": "rows",
    "simplex.lp_cols_mean": "cols",
    "simplex.infeasible_frac": "fraction",
    "core.orthant_restriction.calls": "calls/op",
    "core.orthant_restriction.busy_s": "s/op",
    "exact.solve_exact.busy_s": "s/op",
    "exact.solve_exact.self_s": "s/op",
    "exact.orthants_per_solve": "orthants",
    "exact.lps_per_solve": "LPs",
    "exact.useful_lp_frac": "fraction",
    "exact.find_feasible_point.calls": "calls/op",
    "exact.find_feasible_point.busy_s": "s/op",
    "exact.lps_per_feasibility_search": "LPs",
    "reformulate.union_membership.busy_s": "s/op",
    "reformulate.union_membership.self_s": "s/op",
    "reformulate.lps_per_union_query": "LPs",
    "reformulate.encoding_membership.busy_s": "s/op",
    "reformulate.union_to_avlp.busy_s": "s/op",
    "stability.enclose_solutions.calls": "calls/op",
    "stability.enclose_solutions.busy_s": "s/op",
    "stability.enclose_solutions.ms_p50": "ms",
    "stability.basis_stability_check.busy_s": "s/op",
    "stability.basis_stability_check.self_s": "s/op",
    "stability.verified_frac": "fraction",
    "integrality.det_exact.calls": "calls/op",
    "integrality.det_exact.busy_s": "s/op",
    "integrality.integrality_full.busy_s": "s/op",
    "cli.load_problem.busy_s": "s/op",
    "cli.main.self_s": "s/op",
    "tracing.overhead_frac": "fraction",
    "ref.highs_lp_ms_p50": "ms",
}


class MissingSource(RuntimeError):
    pass


def load_avlp() -> float:
    """Import numpy and avlp from ``src/``; returns the seconds it took."""
    if not (SRC / "avlp" / "__init__.py").is_file():
        raise MissingSource(f"no avlp package under {SRC}")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import avlp
    from avlp import cli  # noqa: F401  (imports every measured module)

    elapsed = time.perf_counter() - t0
    if Path(avlp.__file__).resolve().parent != (SRC / "avlp").resolve():
        raise MissingSource(f"avlp was imported from {avlp.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, seed, workdir):
    """Build the inputs once; returns (items, seconds)."""
    import numpy as np

    t0 = time.perf_counter()
    items = workload.setup(np.random.default_rng(seed), workdir)
    return items, time.perf_counter() - t0


def _timed(workload, item):
    t0 = time.perf_counter()
    try:
        out = workload.op(item)
    except Exception as exc:  # a failed op is counted, not fatal
        out = exc
    return out, time.perf_counter() - t0


def _check_all(workload, done) -> int:
    """Number of outputs that raised or disagree with the reference."""
    failed = 0
    for item, out in done:
        try:
            ok = not isinstance(out, Exception) and workload.check(item, out)
        except (KeyError, TypeError, ValueError, AttributeError):  # malformed output
            ok = False
        failed += not ok
    return failed


class _Rounds:
    """Ends a loop at the round end nearest the deadline: after each whole
    round it stops unless one more round, as long as the last, would end
    nearer the deadline than now."""

    def __init__(self, size, seconds):
        self.size = size
        self.start = self.round_start = time.perf_counter()
        self.deadline = self.start + seconds

    def over(self, i) -> bool:
        if i % self.size:
            return False
        now = time.perf_counter()
        last, self.round_start = now - self.round_start, now
        return now + last / 2 >= self.deadline


def _plain_loop(workload, items, seconds):
    """Closed loop, one client, timed over whole rounds after one untimed
    warm-up op."""
    _timed(workload, items[0])
    done, lat = [], []
    rounds = _Rounds(workload.round, seconds)
    i = 0
    while True:
        item = items[i % len(items)]
        out, dt = _timed(workload, item)
        done.append((item, out))
        lat.append(dt)
        i += 1
        if rounds.over(i):
            break
    return done, lat, time.perf_counter() - rounds.start


def _traced_loop(workload, items, seconds, tracer):
    """Each item runs traced and plain, alternating which goes first;
    returns the outputs and the plain latencies (traced ones are op spans)."""
    done, plain = [], []
    rounds = _Rounds(workload.round, seconds)
    i = 0
    while True:
        item = items[i % len(items)]
        for traced_turn in ((True, False) if i % 2 == 0 else (False, True)):
            if traced_turn:
                with tracer.active(), tracer.op(i):
                    out, _ = _timed(workload, item)
            else:
                out, dt = _timed(workload, item)
                plain.append(dt)
            done.append((item, out))
        i += 1
        if rounds.over(i):
            break
    return done, plain


def highs_lp_ms_p50(lps) -> float:
    """Median HiGHS time per LP, in ms, over the given LPs (a reference)."""
    from scipy.optimize import linprog

    times = []
    for lp in lps:
        if lp.G.size == 0:
            continue
        t0 = time.perf_counter()
        linprog(-lp.obj, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times) if times else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, import_s: float = 0.0) -> dict:
    """One run of workload ``name``; returns metrics, counts and details."""
    import workloads
    import tracing

    workload = workloads.make(name, tiny=tiny)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        items, first_s = _setup(workload, seed, workdir)
        gc.collect()
        info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        if not trace:
            done, lat, wall = _plain_loop(workload, items, seconds)
            rss = peak_rss_mb()
            gen_s = [first_s] + [_setup(workload, seed, workdir)[1]
                                 for _ in range(SETUP_REPEATS - 1)]
            lat_ms = [1e3 * v for v in lat]
            tail_ms, tail_pct, count = tracing.tail(lat_ms)
            metrics = {
                "ops_per_s": len(lat) / wall,
                "op_ms_p50": statistics.median(lat_ms),
                "op_ms_tail": tail_ms,
                "setup_s": import_s + statistics.median(gen_s),
                "peak_rss_mb": rss,
            }
            info.update(tail_percentile=tail_pct, samples=count, import_s=import_s, generate_s=gen_s)
        else:
            tracer = tracing.Tracer()
            done, plain = _traced_loop(workload, items, seconds, tracer)
            metrics = tracing.layer_metrics(tracer.spans, sum(plain))
            metrics["ref.highs_lp_ms_p50"] = highs_lp_ms_p50(tracer.lp_sample)
            info.update(samples=len(plain), spans=len(tracer.spans))
        failed = _check_all(workload, done)
        info["failed_frac"] = failed / len(done)
        info["errors"] = sorted({repr(out) for _, out in done if isinstance(out, Exception)})[:5]
        info["environment"] = environment()
        if trace:
            info["unmeasured"] = json.loads((HERE / "design.json").read_text())["unmeasured"]
            path = OUT / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(path, info)
            info["trace_file"] = str(path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = load_avlp()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s=import_s)
    info = result["info"]
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} op_ms_tail is percentile {info['tail_percentile']:.1f} "
              f"of {info['samples']} ops")
    print(f"{args.workload} failed_frac = {info['failed_frac']:.6g} fraction "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps({"info": info}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
