"""Load generation, process accounting and summary statistics."""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterator, Sequence

from sknnbench.tracing import SpanRecorder


@dataclass
class Outcome:
    """One attempted query of the timed window."""

    bob: int
    index: int
    query_id: str
    traced: bool
    end: float = 0.0
    latency: float | None = None
    bob_seconds: float | None = None
    correct: bool = False
    error: str | None = None
    report: Any = None

    @property
    def answered(self) -> bool:
        return self.latency is not None


def query_id(bob: int, index: int) -> str:
    return f"b{bob}q{index}"


def is_traced(trace: bool, index: int) -> bool:
    """Traced runs record every even-numbered query of each Bob; the odd
    ones, run through idle wrappers, are the untraced baseline of
    ``telemetry.trace_overhead``."""
    return trace and index % 2 == 0


def in_context(recorder: SpanRecorder | None, qid: str,
               enabled: bool = True) -> ContextManager[None]:
    return recorder.context(qid, enabled) if recorder else nullcontext()


def in_span(recorder: SpanRecorder | None, name: str) -> ContextManager[None]:
    return recorder.span(name) if recorder else nullcontext()


#: stop a Bob whose queries keep failing instead of spinning on errors
MAX_CONSECUTIVE_ERRORS = 20


def closed_loop(bobs: int, seconds: float, min_queries: int,
                streams: Sequence[Iterator[list[int]]],
                run_query: Callable[[int, list[int]], tuple[bool, float, Any]],
                recorder: SpanRecorder | None
                ) -> tuple[list[Outcome], float]:
    """Each Bob sends its next query when the previous one has returned.

    A Bob stops once ``seconds`` have passed and it has sent at least
    ``min_queries``; the window ends when the last query returns.
    ``run_query(bob, query)`` returns ``(correct, bob seconds, report)``.
    Bob 0 runs on the calling thread, every other Bob on its own thread.
    """
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    stop_at = started + seconds

    def bob_loop(bob: int) -> None:
        errors_in_a_row = 0
        for index in itertools.count():
            if time.perf_counter() >= stop_at and index >= min_queries:
                return
            query = next(streams[bob])
            outcome = Outcome(bob, index, query_id(bob, index),
                              is_traced(recorder is not None, index))
            with in_context(recorder, outcome.query_id, outcome.traced):
                began = time.perf_counter()
                try:
                    with in_span(recorder, "query"):
                        outcome.correct, outcome.bob_seconds, outcome.report \
                            = run_query(bob, query)
                    outcome.end = time.perf_counter()
                    outcome.latency = outcome.end - began
                    errors_in_a_row = 0
                except Exception as exc:  # counted, never aborts the run
                    outcome.end = time.perf_counter()
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    errors_in_a_row += 1
            outcomes.append(outcome)
            if errors_in_a_row >= MAX_CONSECUTIVE_ERRORS:
                return

    threads = [threading.Thread(target=bob_loop, args=(bob,),
                                name=f"sknnbench-bob{bob}")
               for bob in range(1, bobs)]
    for thread in threads:
        thread.start()
    try:
        bob_loop(0)
    finally:
        for thread in threads:
            thread.join()
    window = max((o.end for o in outcomes), default=started) - started
    return outcomes, window


# -- processes -----------------------------------------------------------------
def live_descendants(pid: int) -> list[int]:
    """Every live (non-zombie) process below ``pid``, read from /proc."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process ended while we looked
        # The command name may contain spaces and parentheses: the fields
        # after the last ')' are state, ppid, ...
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state not in ("Z", "X"):
            children.setdefault(int(ppid), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def rss_mb(pids: Sequence[int]) -> float:
    """Summed resident memory of ``pids`` in MiB."""
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
        except OSError:
            continue
    return total * page / 2 ** 20


# -- statistics ----------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p75(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``trim`` share.

    Unlike the median, it moves smoothly with the share of samples taken
    in a slow spell of the machine, so a run split about evenly between a
    fast and a slow spell does not jump from one level to the other.
    """
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return mean(ordered[cut:len(ordered) - cut])
