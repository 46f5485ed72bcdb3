"""effcut benchmark: solve and oracle latency on seeded workloads.

    python3 bench/run.py --workload {corpus,dense,binary} --seed N --seconds S --trace {0,1}

The load is a closed loop: one process, one thread, one instance at a
time.  Instances come from the workload's seeded stream (see
``workloads.py``) and reach the solver through a render/parse round trip.

``--trace 0`` (end-to-end, no wrappers installed):
  set-up     generate, round-trip and validate the first 100 instances of
             the stream, three times; ``setup_s`` is the median.
  loop       for ``--seconds`` seconds, take the next instance, time
             ``solve`` and ``oracle_solve`` on it and check that both agree.
  metrics    ``solve_gm_ms`` and ``oracle_gm_ms`` are geometric means of
             the per-instance wall times (instance costs span four orders
             of magnitude, so a sum would follow a handful of instances);
             ``peak_rss_mb`` is the process's peak resident memory.

``--trace 1`` (per layer): the same 100-instance set-up batch, each
instance solved once plain and once with the layer wrappers and a pivot
observer installed, then ``oracle_solve`` traced.  The batch is fixed, so
every count repeats exactly at one seed; ``--seconds`` does not apply.
Spans go to ``bench/out/spans-<workload>-<seed>.jsonl`` when the run ends.

An instance fails when ``solve`` or ``oracle_solve`` raises (an exhausted
enumeration cap included), when ``complete`` is false (an exhausted node
budget), when ``x_eff`` differs from the oracle's ``X_Eff``, when
``validate_instance`` reports a violation, or, traced, when the trace
digest differs from the plain solve's.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_BATCH = 100
SETUP_REPEATS = 3
WORKLOADS = ("corpus", "dense", "binary")

END_TO_END_UNITS = {"solve_gm_ms": "ms", "oracle_gm_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    stem = name.split(".")[1]
    if stem.endswith("_s"):
        return "s"
    if stem.endswith("_ratio") or stem == "enum_yield":
        return "ratio"
    return {"ms_per_pivot": "ms", "t1_us_per_point": "us", "peak_rows": "rows", "peak_cols": "cols"}.get(stem, "count")


def _load_effcut():
    src = ROOT / "src"
    if not (src / "effcut" / "__init__.py").is_file():
        sys.exit("bench: effcut sources not found under %s" % src)
    sys.path.insert(0, str(src))
    import effcut

    if Path(effcut.__file__).resolve().parent != src / "effcut":
        sys.exit("bench: imported effcut from %s, not from %s" % (effcut.__file__, src))


def _trace_digest(result) -> str:
    from effcut.search import render_trace

    return hashlib.sha256(render_trace(result.trace).encode()).hexdigest()


def solve_and_check(inst, violations, observer=None):
    """(solve result, solve seconds, oracle sets, oracle seconds, ok) for one instance.

    Both calls go through the module attributes, so an installed tracer
    sees them.  This is the loop's boundary: an exception from either call
    is printed and counted as a failure, and the loop goes on.
    """
    from effcut import oracle, search

    res = sets = None
    t0 = time.perf_counter()
    try:
        res = search.solve(inst, observer=observer)
    except Exception:
        traceback.print_exc()
    t1 = time.perf_counter()
    try:
        sets = oracle.oracle_solve(inst)
    except Exception:
        traceback.print_exc()
    t2 = time.perf_counter()
    ok = (
        not violations
        and res is not None
        and sets is not None
        and res.complete
        and res.x_eff == tuple(sorted(sets.X_Eff))
    )
    return res, t1 - t0, sets, t2 - t1, ok


def _setup(workload: str, seed: int, count: int = SETUP_BATCH):
    """(stream positioned after the batch, prepared batch) of one set-up."""
    from workloads import instance_stream, prepare

    stream = instance_stream(workload, seed)
    return stream, [prepare(next(stream)) for _ in range(count)]


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    from workloads import prepare

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        stream, batch = _setup(workload, seed)
        setup_times.append(time.perf_counter() - t0)
    all_valid = all(not violations for _, violations in batch)

    solve_times, oracle_times = [], []
    failed = 0
    start = time.perf_counter()
    for inst, violations in itertools.chain(batch, map(prepare, stream)):
        _, t_solve, _, t_oracle, ok = solve_and_check(inst, violations)
        solve_times.append(t_solve)
        oracle_times.append(t_oracle)
        failed += not ok
        if time.perf_counter() - start >= seconds:
            break

    attempted = len(solve_times)
    for label, times in (("solve", solve_times), ("oracle", oracle_times)):
        p90 = statistics.quantiles(times, n=10)[8] if attempted > 1 else times[0]
        print(
            "%s_ms per instance: gm %.3f  p50 %.3f  p90 %.3f  max %.3f  sum %.3f s  (n=%d)"
            % (label, 1e3 * _geomean(times), 1e3 * statistics.median(times), 1e3 * p90,
               1e3 * max(times), sum(times), attempted)
        )
    print("setup_s samples (%d x %d instances): %s"
          % (SETUP_REPEATS, SETUP_BATCH, " ".join("%.4f" % t for t in setup_times)))
    print("failed_ratio %.6f (%d of %d)" % (failed / attempted, failed, attempted))
    metrics = {
        "solve_gm_ms": 1e3 * _geomean(solve_times),
        "oracle_gm_ms": 1e3 * _geomean(oracle_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {
        "correct": failed == 0 and all_valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def traced_run(workload: str, seed: int, count: int = SETUP_BATCH):
    """(result, trajectory fingerprint, spans) of the traced run on the first count instances."""
    from layers import PivotCounter, Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        _, batch = _setup(workload, seed, count)
    pivots = PivotCounter()
    traced_results = []
    digests = []
    d_points = 0
    failed = 0
    plain_solve_s = plain_oracle_s = traced_solve_s = 0.0
    for i, (inst, violations) in enumerate(batch):
        plain, t_solve, sets, t_oracle, ok = solve_and_check(inst, violations)
        plain_solve_s += t_solve
        plain_oracle_s += t_oracle
        tracer.instance = i
        with tracer:
            traced, t_traced, _, _, traced_ok = solve_and_check(inst, violations, pivots)
        traced_solve_s += t_traced
        tracer.instance = None
        digest = _trace_digest(plain) if plain is not None else None
        same = digest is not None and traced is not None and _trace_digest(traced) == digest
        failed += not (ok and traced_ok and same)
        if digest is not None:
            digests.append(digest)
        if traced is not None:
            traced_results.append(traced)
        if sets is not None:
            d_points += len(sets.D)

    metrics = layer_metrics(tracer.spans, pivots, traced_results, traced_solve_s)
    metrics["trace.overhead_ratio"] = traced_solve_s / plain_solve_s
    metrics["batch.instances"] = len(batch)
    metrics["batch.solve_s"] = plain_solve_s
    metrics["batch.oracle_s"] = plain_oracle_s
    metrics["batch.failed_ratio"] = failed / len(batch)

    fingerprint = {
        "workload": workload,
        "seed": seed,
        "instances": len(batch),
        "trace_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "nodes": metrics["search.nodes_solved"],
        "nodes_popped": metrics["search.nodes_popped"],
        "cut_rows": metrics["search.cut_rows"],
        "t1_calls": metrics["efficiency.t1_calls"],
        "t2_calls": metrics["efficiency.t2_calls"],
        "pivots": dict(pivots.pivots),
        "D_points": d_points,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(batch),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
    }
    return result, fingerprint, tracer.spans


def _write_spans(spans, workload: str, seed: int) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / ("spans-%s-%d.jsonl" % (workload, seed))
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent, "instance": s.instance,
                                 "start": s.start, "end": s.end, **s.attrs}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _load_effcut()
    if args.trace:
        result, fingerprint, spans = traced_run(args.workload, args.seed)
        _write_spans(spans, args.workload, args.seed)
        for name, metric in result["metrics"].items():
            print("%-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
        print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
