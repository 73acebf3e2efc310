"""Per-layer metrics of a traced run, from spans, run reports and counters.

Spans come from the benchmark's wrappers (``tracing.py``).  Work that runs
in other processes -- the service's scan workers, the daemons -- cannot be
wrapped from here; it is read from the stitched run reports (C1,
``C1-shard{i}`` and C2 cost rows) and from the daemons' counters instead.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from sknnbench.harness import Outcome, mean, median, p90
from sknnbench.metrics import PER_LAYER, PHASES, PROTOCOLS
from sknnbench.tracing import Span, self_times
from sknnbench.workloads import MIN_QUERIES

#: traced closed-loop queries must satisfy
#: |sum of span self times - latency| <= SUM_TOLERANCE * latency
SUM_TOLERANCE = 0.01

#: spans whose first name component is not one of these belong to "other"
LAYERS = ("bob", "core", "protocols", "crypto", "db", "service",
          "precompute", "transport", "supervisor")


@dataclass
class RunData:
    workload: object
    outcomes: list[Outcome]
    window_start: float
    window_end: float
    spans: list[Span]
    setups: int
    before: dict[str, float] = field(default_factory=dict)
    after: dict[str, float] = field(default_factory=dict)

    @property
    def window(self) -> float:
        return self.window_end - self.window_start


def per_layer(run: RunData) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric (0 where the workload bypasses the layer),
    plus the tracing check failures."""
    values = {name: 0.0 for name in PER_LAYER}
    answered = [o for o in run.outcomes if o.answered]
    traced = [o for o in answered if o.traced]
    untraced = [o for o in answered if not o.traced]
    traced_ids = {o.query_id for o in traced}
    selfs = self_times(run.spans)
    by_id = {span.span_id: span for span in run.spans}

    def in_window(span: Span) -> bool:
        return (span.query_id.startswith("thread:")
                and run.window_start <= span.start <= run.window_end)

    def per_query(name_matches: Callable[[str], bool],
                  measure: Callable[[Span], float]) -> float:
        """Query-scoped spans per traced query plus thread-scoped spans
        (the serving thread) per answered query."""
        own = sum(measure(s) for s in run.spans
                  if s.query_id in traced_ids and name_matches(s.name))
        shared = sum(measure(s) for s in run.spans
                     if in_window(s) and name_matches(s.name))
        return ((own / len(traced) if traced else 0.0)
                + (shared / len(answered) if answered else 0.0))

    def self_time(span: Span) -> float:
        return selfs[span.span_id]

    def outermost(span: Span) -> float:
        parent = by_id.get(span.parent)
        return 0.0 if parent is not None and parent.name == span.name else 1.0

    values["crypto.kernel_s_per_query"] = per_query(
        lambda name: name.startswith("crypto."), self_time)
    for protocol in PROTOCOLS:
        def is_protocol(name: str, wanted=f"protocols.{protocol}") -> bool:
            return name == wanted
        values[f"protocols.{protocol}.self_s_per_query"] = per_query(
            is_protocol, self_time)
        values[f"protocols.{protocol}.calls_per_query"] = per_query(
            is_protocol, outermost)
    values["transport.fetch_share_s"] = per_query(
        lambda name: name == "transport.request:transport.fetch_share",
        lambda span: span.seconds)
    values["precompute.refill_s"] = per_query(
        lambda name: name == "precompute.refill", lambda span: span.seconds)

    def per_context(prefix: str, names: tuple[str, ...], count: int) -> float:
        """Median over the set-up (or teardown) repetitions of the time in
        the outermost spans named ``names``."""
        totals = defaultdict(float)
        for span in run.spans:
            if span.name in names and outermost(span):
                totals[span.query_id] += span.seconds
        return median([totals[f"{prefix}{i}"] for i in range(count)])

    values["crypto.keygen_s"] = per_context(
        "setup", ("crypto.keygen",), run.setups)
    values["db.encrypt_database_s"] = per_context(
        "setup", ("db.encrypt_database",), run.setups)
    values["precompute.warm_s"] = per_context(
        "setup", ("precompute.warm", "precompute.refill"), run.setups)
    values["transport.spawn_provision_s"] = per_context(
        "setup", ("transport.spawn", "transport.provision"), run.setups)
    values["supervisor.shutdown_s"] = per_context(
        "teardown", ("supervisor.shutdown",), run.setups)

    if traced and untraced:
        values["telemetry.trace_overhead"] = (
            median([o.latency for o in traced])
            / median([o.latency for o in untraced]) - 1.0)

    failures = _check_span_sums(run.spans, selfs, traced, values)
    _report_metrics(run, answered, traced, values)
    _counter_metrics(run, answered, values)
    return values, failures


def _check_span_sums(spans: list[Span], selfs: dict[int, float],
                     traced: list[Outcome], values: dict[str, float]
                     ) -> list[str]:
    """Layer self times plus ``other`` (the root span's own time) must add
    up to each traced query's latency."""
    by_query: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_query[span.query_id].append(span)
    failures = []
    other = total = 0.0
    for outcome in traced:
        own = by_query.get(outcome.query_id, [])
        layers = defaultdict(float)
        for span in own:
            layer = span.name.split(".", 1)[0]
            layers[layer if layer in LAYERS else "other"] += selfs[span.span_id]
        accounted = sum(layers.values())
        if abs(accounted - outcome.latency) > SUM_TOLERANCE * outcome.latency:
            failures.append(
                f"{outcome.query_id}: layer self times sum to "
                f"{accounted:.6f}s, latency {outcome.latency:.6f}s")
        other += layers["other"]
        total += outcome.latency
    if total:
        values["telemetry.other_share"] = other / total
    return failures


def _report_metrics(run: RunData, answered: list[Outcome],
                    traced: list[Outcome], values: dict[str, float]) -> None:
    """Values read from each query's run report."""
    reports = [o.report for o in traced if o.report is not None]
    if not reports:
        return
    if reports[0].cost_breakdown:  # closed loops: per-query reports
        # Exact counts over a fixed prefix of the query stream, so one seed
        # repeats them even when the window fits a different query count.
        prefix = [o.report.stats for o in traced if o.index < MIN_QUERIES]
        values["crypto.encryptions_per_query"] = mean(
            [s.total_encryptions for s in prefix])
        values["crypto.exponentiations_per_query"] = mean(
            [s.total_exponentiations for s in prefix])
        values["crypto.decryptions_per_query"] = mean(
            [s.total_decryptions for s in prefix])
        values["protocols.messages_per_query"] = mean(
            [s.messages for s in prefix])
        values["transport.c1_c2_bytes_per_query"] = mean(
            [s.bytes_transferred for s in prefix])
        values["transport.frames_per_query"] = mean(
            [s.messages for s in prefix])

        def rows_seconds(report, keep) -> float:
            return sum(row["seconds"] for row in report.cost_breakdown
                       if keep(row))

        for phase in PHASES:
            for party in ("C1", "C2"):
                values[f"core.phase.{phase}.{party.lower()}_s"] = mean(
                    [rows_seconds(r, lambda row: row["phase"] == phase
                                  and row["party"] == party)
                     for r in reports])
        values["core.c2_busy_s_per_query"] = mean(
            [rows_seconds(r, lambda row: row["party"] == "C2")
             for r in reports])
        shard_scans = []
        overheads = []
        for report in reports:
            per_shard = defaultdict(float)
            for row in report.cost_breakdown:
                if row["party"].startswith("C1-shard") and row["phase"] == "scan":
                    per_shard[row["party"]] += row["seconds"]
            if per_shard:
                shard_scans.append(mean(list(per_shard.values())))
                overheads.append(report.wall_time_seconds
                                 - max(per_shard.values()))
        values["transport.shard_scan_s"] = mean(shard_scans)
        values["transport.coordinator_overhead_s"] = mean(overheads)
    else:  # the service: per-batch reports spread over their queries
        waits = [o.report.phase_seconds.get("queue_wait", 0.0)
                 for o in answered]
        values["service.queue_wait_p50_s"] = median(waits)
        values["service.queue_wait_p90_s"] = p90(waits)
        batches = run.after.get("batches", 0) - run.before.get("batches", 0)
        if batches:
            for phase in ("distance", "merge", "deliver"):
                values[f"service.{phase}_s"] = sum(
                    o.report.phase_seconds.get(phase, 0.0)
                    for o in answered) / batches


def _counter_metrics(run: RunData, answered: list[Outcome],
                     values: dict[str, float]) -> None:
    """Deltas of the counters read before and after the timed window."""
    delta = {key: run.after[key] - run.before.get(key, 0)
             for key in run.after}
    count = len(answered) or 1
    batch_counts = getattr(run.workload, "batches", None)
    if batch_counts:  # the service's serving-thread op counts
        queries = sum(batch[0] for batch in batch_counts)
        for op in ("encryptions", "exponentiations", "decryptions"):
            values[f"crypto.{op}_per_query"] = sum(
                batch[1][op] for batch in batch_counts) / queries
        messages = sum(batch[2]["messages"] for batch in batch_counts)
        values["protocols.messages_per_query"] = messages / queries
        values["transport.frames_per_query"] = messages / queries
        values["transport.c1_c2_bytes_per_query"] = sum(
            batch[2]["bytes_transferred"] for batch in batch_counts) / queries
    if "pool_hits" in delta:
        requests = delta["pool_hits"] + delta["pool_misses"]
        values["precompute.hit_ratio"] = (delta["pool_hits"] / requests
                                          if requests else 0.0)
        if delta["batches"]:
            values["service.batch_size_mean"] = (delta["queries"]
                                                 / delta["batches"])
        values["service.busy_ratio"] = delta["busy_s"] / run.window
    if "c2_frames" in delta:
        values["transport.c1_c2_bytes_per_query"] = delta["c2_bytes"] / count
        values["transport.frames_per_query"] = delta["c2_frames"] / count
        values["durability.journal_records_per_query"] = (
            delta["journal_records"] / count)
        for key in ("retries", "reconnects", "deadline_hits"):
            values[f"transport.{key}"] = delta[key]
