"""The benchmark's metric catalogue: names, units, directions, and the map
from each per-layer metric to the end-to-end metric it should move.

``BENCHMARK.json`` lists the same names; ``selftest.py`` checks that the two
agree.  A per-layer metric reads 0 on a workload that bypasses its layer
(for example ``service.*`` on ``sknn_m_serial``).
"""

from __future__ import annotations

#: (name, unit, better) of every metric an untraced run reports.
END_TO_END = [
    ("latency_p50_s", "s", "lower"),
    ("latency_p75_s", "s", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("bob_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("rss_mb", "MiB", "lower"),
]

#: (name, unit) of what an untraced run prints above its JSON line but does
#: not report in it (see NOTES.md): ``teardown_s`` is too noisy to bound on
#: the in-process workloads, ``failed_ratio`` is 0
PRINTED_ONLY = [("teardown_s", "s"), ("failed_ratio", "ratio")]

PROTOCOLS = ("sm", "ssed", "sbd", "smin", "sminn", "sbor")
PHASES = ("scan", "decompose", "select", "eliminate", "extract", "deliver")

M, B, D = "sknn_m_serial", "sknn_b_service", "sknn_b_distributed"

#: name -> (unit, better, [(workload, end-to-end metric it should move)])
PER_LAYER: dict[str, tuple[str, str, list[tuple[str, str]]]] = {
    "crypto.encryptions_per_query": (
        "count", "lower", [(M, "latency_p50_s"), (D, "throughput_qps")]),
    "crypto.exponentiations_per_query": (
        "count", "lower", [(M, "latency_p50_s"), (D, "throughput_qps")]),
    "crypto.decryptions_per_query": (
        "count", "lower", [(M, "latency_p50_s"), (D, "throughput_qps")]),
    "crypto.kernel_s_per_query": (
        "s", "lower", [(M, "latency_p50_s"), (D, "throughput_qps")]),
    "crypto.keygen_s": (
        "s", "lower", [(M, "setup_s"), (B, "setup_s"), (D, "setup_s")]),
    "db.encrypt_database_s": (
        "s", "lower", [(M, "setup_s"), (B, "setup_s"), (D, "setup_s")]),
    "precompute.hit_ratio": ("ratio", "higher", [(B, "latency_p50_s")]),
    "precompute.refill_s": ("s", "lower", [(B, "latency_p75_s")]),
    "precompute.warm_s": ("s", "lower", [(B, "setup_s")]),
    **{f"protocols.{p}.calls_per_query": ("count", "lower",
                                          [(M, "latency_p50_s")])
       for p in PROTOCOLS},
    **{f"protocols.{p}.self_s_per_query": ("s", "lower",
                                           [(M, "latency_p50_s")])
       for p in PROTOCOLS},
    "protocols.messages_per_query": ("count", "lower", [(M, "latency_p50_s")]),
    **{f"core.phase.{phase}.{party}_s": ("s", "lower", [(M, "latency_p50_s")])
       for phase in PHASES for party in ("c1", "c2")},
    "core.c2_busy_s_per_query": ("s", "lower", [(D, "throughput_qps")]),
    "service.queue_wait_p50_s": ("s", "lower", [(B, "latency_p75_s")]),
    "service.queue_wait_p90_s": ("s", "lower", [(B, "latency_p75_s")]),
    "service.batch_size_mean": ("count", "higher", [(B, "latency_p75_s")]),
    "service.distance_s": ("s", "lower", [(B, "latency_p50_s")]),
    "service.merge_s": ("s", "lower", [(B, "latency_p50_s")]),
    "service.deliver_s": ("s", "lower", [(B, "latency_p50_s")]),
    "service.busy_ratio": ("ratio", "lower", [(B, "latency_p75_s")]),
    "transport.c1_c2_bytes_per_query": ("bytes", "lower",
                                        [(D, "latency_p50_s")]),
    "transport.frames_per_query": ("count", "lower", [(D, "latency_p50_s")]),
    "transport.shard_scan_s": ("s", "lower", [(D, "throughput_qps")]),
    "transport.coordinator_overhead_s": ("s", "lower",
                                         [(D, "throughput_qps")]),
    "transport.fetch_share_s": ("s", "lower", [(D, "latency_p50_s")]),
    "transport.spawn_provision_s": ("s", "lower", [(D, "setup_s")]),
    "transport.retries": ("count", "lower", [(D, "latency_p75_s")]),
    "transport.reconnects": ("count", "lower", [(D, "latency_p75_s")]),
    "transport.deadline_hits": ("count", "lower", [(D, "latency_p75_s")]),
    "durability.journal_records_per_query": ("count", "lower",
                                             [(D, "latency_p50_s")]),
    "supervisor.shutdown_s": ("s", "lower", [(D, "teardown_s")]),
    "telemetry.trace_overhead": ("ratio", "lower",
                                 [(M, "latency_p50_s"), (B, "latency_p50_s"),
                                  (D, "latency_p50_s")]),
    "telemetry.other_share": ("ratio", "lower", [(M, "latency_p50_s")]),
}


def moves(name: str) -> str:
    """Human-readable ``workload:metric`` targets of a per-layer metric."""
    return ", ".join(f"{workload}:{metric}"
                     for workload, metric in PER_LAYER[name][2])
