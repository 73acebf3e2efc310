"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 sknnbench/run.py --workload sknn_m_serial --seed 1 --seconds 30 --trace 0

The run builds its inputs from ``--seed`` alone, deploys the system through
its public API, sets it up several times (timing each set-up and teardown;
``setup_s`` and ``teardown_s`` are the medians), drives Bob's queries for
``--seconds``, checks every answer against the plaintext oracle, tears down
and checks that no process it spawned is still alive.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``, with the end-to-end metrics for ``--trace 0`` and the
per-layer metrics for ``--trace 1``.  The lines before it are a readable
summary, which also prints ``teardown_s`` and ``failed_ratio``.  A traced
run also writes its spans to ``.sknnbench/traces/`` in the checkout.

The benchmark reads and writes only inside the checkout: temporary files
(the daemons' port files and durable state) go to ``.sknnbench/tmp``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sknn_m_serial", "sknn_b_service", "sknn_b_distributed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_checkout() -> Path:
    """Import the program from ``src/`` and keep temporary files inside
    the checkout; fail when the checkout holds no program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"sknnbench: no program at {ROOT / 'src'}; run "
                         "from a full checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    scratch = ROOT / ".sknnbench"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # inherited by the daemons
    tempfile.tempdir = str(tmp)
    return scratch


def measure(name: str, seed: int, seconds: float, trace: bool,
            scratch: Path) -> dict:
    from sknnbench import harness, layers, workloads
    from sknnbench.metrics import END_TO_END, PER_LAYER, PRINTED_ONLY, moves
    from sknnbench.tracing import SpanRecorder

    workload = workloads.WORKLOADS[name](seed)
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        workloads.install_wrappers(recorder, workload)
    setups, teardowns = [], []
    live = []  # the one reference to the current deployment

    def teardown(repeat: int) -> None:
        """Close the deployment and release it: drop the last reference and
        collect garbage, so freeing its memory counts too."""
        with harness.in_context(recorder, f"teardown{repeat}"):
            began = time.perf_counter()
            live.pop().teardown()
            gc.collect()
            teardowns.append(time.perf_counter() - began)

    repeats = workload.setup_repeats
    for repeat in range(repeats):
        with harness.in_context(recorder, f"setup{repeat}"):
            began = time.perf_counter()
            live.append(workload.deploy())
            setups.append(time.perf_counter() - began)
        if repeat < repeats - 1:
            teardown(repeat)

    try:
        deployment = live[0]
        before = deployment.counters()
        window_start = time.perf_counter()
        outcomes, window = deployment.drive(seconds, recorder)
        me = os.getpid()
        rss = harness.rss_mb([me, *harness.live_descendants(me)])
        after = deployment.counters()
        del deployment
    finally:
        teardown(repeats - 1)
    leftovers = harness.live_descendants(os.getpid())

    answered = [o for o in outcomes if o.answered]
    wrong = [o for o in answered if not o.correct]
    errors = [o for o in outcomes if o.error is not None]
    failed = len(wrong) + len(errors) + len(leftovers)
    attempted = len(outcomes)
    summary = [
        f"workload {name}, seed {seed}, {seconds:g}s window, "
        f"trace {int(trace)}, {os.cpu_count()} cpus",
        f"attempted {attempted}, answered {len(answered)}, wrong "
        f"{len(wrong)}, errors {len(errors)}, leftover processes "
        f"{len(leftovers)}",
    ]
    summary += [f"  error {o.query_id}: {o.error}" for o in errors[:5]]
    checks_failed: list[str] = []

    if not trace:
        good = [o for o in answered if o.correct]
        latencies = [o.latency for o in good]
        values = {
            "latency_p50_s": (harness.median(latencies), len(latencies)),
            "latency_p75_s": (harness.p75(latencies), len(latencies)),
            "throughput_qps": (len(good) / window if window else 0.0,
                               len(good)),
            "bob_ms": (1000 * harness.trimmed_mean(
                [o.bob_seconds for o in good]), len(good)),
            "setup_s": (harness.median(setups), len(setups)),
            "rss_mb": (rss, 1),
            "teardown_s": (harness.median(teardowns), len(teardowns)),
            "failed_ratio": (failed / attempted if attempted else 1.0,
                             attempted),
        }
        units = {metric: unit for metric, unit, _ in END_TO_END}
        units.update(PRINTED_ONLY)
        for metric, (value, samples) in values.items():
            summary.append(f"  {metric:<16} {value:12.6f} {units[metric]:<5}"
                           f" (n={samples})")
        metrics = {metric: {"value": values[metric][0], "unit": unit}
                   for metric, unit, _ in END_TO_END}
    else:
        run = layers.RunData(workload, outcomes, window_start,
                             window_start + window, recorder.spans,
                             repeats, before, after)
        values, checks_failed = layers.per_layer(run)
        for metric, value in values.items():
            unit = PER_LAYER[metric][0]
            summary.append(f"  {metric:<40} {value:14.6f} {unit:<5} "
                           f"-> {moves(metric)}")
        summary += [f"  span check failed: {text}"
                    for text in checks_failed[:5]]
        metrics = {metric: {"value": value, "unit": PER_LAYER[metric][0]}
                   for metric, value in values.items()}
        recorder.write(scratch / "traces" / f"{name}-seed{seed}.jsonl")
        recorder.unwrap_all()

    for line in summary:
        print(line)
    return {
        "correct": failed == 0 and not checks_failed and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    scratch = prepare_checkout()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
