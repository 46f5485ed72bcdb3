"""Checks of the benchmark itself: its generators, its trace, its result line."""

from __future__ import annotations

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

CORPUS_SEED = 20240917
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _test_helpers():
    spec = importlib.util.spec_from_file_location("bench_test_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_stream_starts_with_the_acceptance_corpus():
    rng = random.Random(CORPUS_SEED)
    expected = [_test_helpers().random_instance(rng) for _ in range(100)]
    stream = workloads.instance_stream("corpus", CORPUS_SEED)
    assert [next(stream) for _ in range(100)] == expected


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_streams_are_seeded_and_valid(workload):
    def head(seed):
        stream = workloads.instance_stream(workload, seed)
        return [next(stream) for _ in range(20)]

    first = head(7)
    assert first == head(7)
    assert first != head(8)
    for inst in first:
        parsed, violations = workloads.prepare(inst)
        assert parsed == inst
        assert violations == []


@pytest.mark.parametrize("workload,count", [("corpus", 10), ("dense", 3), ("binary", 3)])
def test_traced_run_is_faithful_and_repeats(workload, count):
    result, fingerprint, spans = run.traced_run(workload, 3, count)
    again, fingerprint_again, _ = run.traced_run(workload, 3, count)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == count
    assert fingerprint == fingerprint_again
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["simplex.root_calls"] == count
    assert metrics["search.nodes_solved"] == fingerprint["nodes"]
    assert 0.95 < metrics["trace.self_sum_ratio"] <= 1.0
    assert {s.instance for s in spans if s.name == "search.solve"} == set(range(count))


def test_timed_run_reports_every_end_to_end_metric():
    result = run.timed_run("corpus", CORPUS_SEED, 0.05)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
