"""The benchmark's own tests.

Run from the repository root (pytest collects only ``test_*.py`` files on
its own, so the repository's test suite does not run these)::

    python3 -m pytest -q sknnbench/selftest.py

The last test runs each workload's traced run twice with one seed, about
two minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from sknnbench import inputs, metrics  # noqa: E402
from sknnbench.tracing import Span, self_times  # noqa: E402
from sknnbench.workloads import WORKLOADS  # noqa: E402


def _inputs(name: str, seed: int) -> tuple:
    workload = WORKLOADS[name](seed)
    rows = [tuple(record.values) for record in workload.table]
    streams = [[next(stream) for _ in range(20)]
               for stream in workload.streams()]
    return rows, streams


def test_one_seed_gives_identical_inputs():
    for name in WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7)
        assert _inputs(name, 7) != _inputs(name, 8)


def test_oracle_accepts_ties_only_for_sknn_m():
    from repro.db.schema import Schema
    from repro.db.table import Table

    table = Table.from_rows(Schema.uniform(1, maximum=9), [[1], [3], [5]])
    oracle = inputs.Oracle(table)
    # Records 1 and 5 tie at distance 4 from the query 3.
    assert oracle.exact([3], [(3,), (1,)], 2)
    assert not oracle.exact([3], [(3,), (5,)], 2)
    assert oracle.tie_tolerant([3], [(3,), (5,)], 2)
    assert not oracle.tie_tolerant([3], [(3,), (3,)], 2)  # one row, twice
    assert not oracle.tie_tolerant([3], [(3,), (9,)], 2)  # not a record


def test_self_time_subtracts_children():
    spans = [Span(1, None, "query", "q", 0.0, 10.0),
             Span(2, 1, "core.a", "q", 1.0, 4.0),
             Span(3, 1, "core.b", "q", 3.0, 6.0),  # overlaps its sibling
             Span(4, 2, "crypto.c", "q", 2.0, 3.0)]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_trimmed_mean_drops_both_tails():
    from sknnbench.harness import trimmed_mean

    # 10 values: the lowest and the highest one are dropped.
    assert trimmed_mean([100.0, 1, 2, 3, 4, 5, 6, 7, 8, -50.0]) == 4.5
    assert trimmed_mean([2.0, 4.0]) == 3.0  # too few to trim
    assert trimmed_mean([]) == 0.0


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {name: value[:2] for name, value in metrics.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _run(tmp: Path, name: str, seed: int, trace: int) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "sknnbench/run.py", "--workload", name,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=tmp, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "sknnbench", tmp_path / "sknnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = _run(tmp_path, "sknn_m_serial", 1, 0)
    assert code != 0
    assert '"correct"' not in stdout


def test_exact_counts_repeat_with_one_seed():
    exact = {
        "sknn_m_serial": ["protocols.messages_per_query",
                          "crypto.encryptions_per_query",
                          "crypto.exponentiations_per_query",
                          "crypto.decryptions_per_query"],
        "sknn_b_service": ["crypto.encryptions_per_query",
                           "crypto.exponentiations_per_query",
                           "crypto.decryptions_per_query",
                           "protocols.messages_per_query"],
        "sknn_b_distributed": ["crypto.encryptions_per_query",
                               "crypto.exponentiations_per_query",
                               "crypto.decryptions_per_query",
                               "protocols.messages_per_query"],
    }
    for name, names in exact.items():
        results = []
        for _ in range(2):
            code, stdout = _run(ROOT, name, 5, 1)
            assert code == 0
            result = json.loads(stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            results.append([result["metrics"][metric]["value"]
                            for metric in names])
        assert results[0] == results[1], name
        assert results[0][0] > 0, name
