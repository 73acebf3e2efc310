"""The three workloads: how each deploys, drives Bob's queries and tears down.

* ``sknn_m_serial`` -- the paper's fully secure SkNN_m (Algorithm 6) run
  in-process by ``SkNNSystem.setup(mode="secure")``; one Bob, closed loop.
* ``sknn_b_service`` -- ``SkNNSystem.serve``: 2 shards on 2 worker
  processes, batches of up to 4, warmed precompute pools; 2 sessions,
  closed loop.
* ``sknn_b_distributed`` -- real daemons on localhost TCP (C2, 2 C1 shard
  daemons and a coordinator C1, durable state); 2 Bobs, each on its own
  ``RemoteCloud`` connection, closed loop.
"""

from __future__ import annotations

from typing import Any

from repro import SkNNSystem
from repro.core.roles import DataOwner, QueryClient
from repro.crypto.paillier import OperationCounter, counting_scope
from repro.telemetry.metrics import get_registry
from repro.transport.supervisor import LocalSupervisor

from sknnbench import harness
from sknnbench.harness import Outcome
from sknnbench.inputs import (K, KEY_SIZE, TABLE_SHAPES, Oracle, make_table,
                              query_stream, rng_for)
from sknnbench.tracing import SpanRecorder

#: queries each Bob sends at least, so every run's traced prefix (the even
#: queries among the first ``MIN_QUERIES``) is complete
MIN_QUERIES = 8


class Workload:
    """Inputs of one (workload, seed); :meth:`deploy` stands a system up."""

    name = ""
    bobs = 1
    #: set-ups (and teardowns) per run
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.table = make_table(self.name, seed)
        self.oracle = Oracle(self.table)
        _, self.dimensions, self.distance_bits = TABLE_SHAPES[self.name]

    def rng(self, stream: str):
        return rng_for(self.name, self.seed, stream)

    def streams(self) -> list:
        return [query_stream(self.table, self.rng(f"bob{bob}"))
                for bob in range(self.bobs)]

    def warmup_query(self) -> list[int]:
        return next(query_stream(self.table, self.rng("warmup")))

    def deploy(self) -> "Deployment":
        raise NotImplementedError


class Deployment:
    """A running system: drives the timed window, then tears down."""

    def drive(self, seconds: float, recorder: SpanRecorder | None
              ) -> tuple[list[Outcome], float]:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Cumulative counters read before and after the timed window."""
        return {}

    def teardown(self) -> None:
        raise NotImplementedError


# -- sknn_m_serial ---------------------------------------------------------------
class SkNNmSerial(Workload):
    name = "sknn_m_serial"

    def deploy(self) -> "InProcessSecure":
        system = SkNNSystem.setup(self.table, key_size=KEY_SIZE, mode="secure",
                                  rng=self.rng("deployment"),
                                  distance_bits=self.distance_bits)
        system.query(self.warmup_query(), K)
        return InProcessSecure(self, system)


class InProcessSecure(Deployment):
    def __init__(self, workload: SkNNmSerial, system: SkNNSystem) -> None:
        self.workload = workload
        self.system = system

    def drive(self, seconds, recorder):
        oracle = self.workload.oracle

        def run_query(bob: int, query: list[int]):
            answer = self.system.query_with_report(query, K)
            return (oracle.tie_tolerant(query, answer.neighbors, K),
                    answer.client_encrypt_seconds
                    + answer.client_reconstruct_seconds,
                    answer.report)

        return harness.closed_loop(1, seconds, MIN_QUERIES,
                                   self.workload.streams(), run_query,
                                   recorder)

    def teardown(self) -> None:
        self.system.close()


# -- sknn_b_service --------------------------------------------------------------
# Two sessions in a closed loop fall into step: both queries share every
# batch.  Not an open loop: at 2-3 q/s its p90 varied by about 30% between
# seeds, because a slowdown of the machine makes queries queue, while a
# closed loop only slows with it.  No think time: with it the sessions settle
# either in step or alternating, which doubles the spread.

#: precompute pools warmed at set-up cover this many queries; the server
#: refills them only in idle slots, which two busy sessions never leave
SERVICE_PRECOMPUTE_QUERIES = 4
#: a query still unanswered after this long counts as failed
ANSWER_TIMEOUT = 60.0


class SkNNbService(Workload):
    name = "sknn_b_service"
    bobs = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: (queries, thread-scoped op counts, channel traffic) per batch
        self.batches: list[tuple[int, dict[str, int], dict[str, int]]] = []

    def count_batches(self, recorder: SpanRecorder) -> None:
        """Count each batch's online Paillier ops on the serving thread.

        A thread-scoped counter sees exactly the serving thread's work, so
        Bob's encryptions on the submitting thread never leak into it.
        The distance scan runs in the worker processes and is not counted.
        """
        from repro.service.sharding import ShardedCloud

        batches = self.batches

        def make(original):
            def counted(store, encrypted_queries, ks, *args, **kwargs):
                counter = OperationCounter()
                channel = store.cloud.channel
                before = channel.total_traffic().snapshot()
                with counting_scope(counter):
                    result = original(store, encrypted_queries, ks,
                                      *args, **kwargs)
                after = channel.total_traffic().snapshot()
                batches.append((len(encrypted_queries), counter.snapshot(),
                                {key: after[key] - before[key]
                                 for key in ("messages",
                                             "bytes_transferred")}))
                return result
            return counted

        recorder.replace(ShardedCloud, "answer_batch", make)

    def deploy(self) -> "InProcessService":
        system = SkNNSystem.setup(self.table, key_size=KEY_SIZE, mode="basic",
                                  rng=self.rng("deployment"), k_default=K)
        server = None
        try:
            server = system.serve(shards=2, workers=2, backend="process",
                                  batch_size=4,
                                  precompute=SERVICE_PRECOMPUTE_QUERIES)
            server.start()
            sessions = [server.open_session(f"bob{bob}")
                        for bob in range(self.bobs)]
            for session in sessions:
                session.query(self.warmup_query(), K, timeout=ANSWER_TIMEOUT)
        except BaseException:
            if server is not None:
                server.close()
            system.close()
            raise
        self.batches.clear()
        return InProcessService(self, system, server, sessions)


class InProcessService(Deployment):
    def __init__(self, workload: SkNNbService, system: SkNNSystem, server,
                 sessions: list) -> None:
        self.workload = workload
        self.system = system
        self.server = server
        self.sessions = sessions

    def drive(self, seconds, recorder):
        oracle = self.workload.oracle

        def run_query(bob: int, query: list[int]):
            answer = self.sessions[bob].query(query, K,
                                              timeout=ANSWER_TIMEOUT)
            return (oracle.exact(query, answer.neighbors, K),
                    answer.client_encrypt_seconds
                    + answer.client_reconstruct_seconds,
                    answer.report)

        return harness.closed_loop(self.workload.bobs, seconds, MIN_QUERIES,
                                   self.workload.streams(), run_query,
                                   recorder)

    def counters(self) -> dict[str, float]:
        engine = self.system.precompute_engine
        stats = engine.stats()
        served = self.server.stats.snapshot()
        return {
            "pool_hits": sum(stats["hits"].values()) + stats["obfuscator_hits"],
            "pool_misses": (sum(stats["misses"].values())
                            + stats["obfuscator_misses"]),
            "batches": served["batches_served"],
            "queries": served["queries_served"],
            "busy_s": served["busy_seconds"],
        }

    def teardown(self) -> None:
        try:
            self.server.close()
        finally:
            self.system.close()


# -- sknn_b_distributed ----------------------------------------------------------
#: daemon counter families summed into the transport/durability metrics
DAEMON_COUNTERS = {
    "retries": "repro_retries_total",
    "reconnects": "repro_reconnects_total",
    "deadline_hits": "repro_deadline_hits_total",
    "journal_records": "repro_journal_records_total",
}


class SkNNbDistributed(Workload):
    name = "sknn_b_distributed"
    bobs = 2
    #: each set-up spawns and each teardown stops four daemons, about 9 s
    #: together, and both vary by a few percent only
    setup_repeats = 2

    def deploy(self) -> "Daemons":
        rng = self.rng("deployment")
        owner = DataOwner(self.table, key_size=KEY_SIZE, rng=rng)
        supervisor = LocalSupervisor(shards=2, peer_connections=2,
                                     state_dir=True)
        supervisor.start()
        try:
            remote = supervisor.provision_from_owner(
                owner, distance_bits=self.distance_bits,
                seed=rng.getrandbits(31), k_default=K)
            connections = [remote] + [remote.clone()
                                      for _ in range(self.bobs - 1)]
            clients = [QueryClient(owner.public_key, self.dimensions,
                                   rng=self.rng(f"bob{bob}-nonces"))
                       for bob in range(self.bobs)]
            deployment = Daemons(self, supervisor, connections, clients)
            for bob in range(self.bobs):
                deployment.query(bob, self.warmup_query())
        except BaseException:
            supervisor.shutdown()
            raise
        return deployment


class Daemons(Deployment):
    def __init__(self, workload: SkNNbDistributed,
                 supervisor: LocalSupervisor, connections: list,
                 clients: list[QueryClient]) -> None:
        self.workload = workload
        self.supervisor = supervisor
        self.connections = connections
        self.clients = clients

    def query(self, bob: int, query: list[int]):
        """Bob's whole query: encrypt, run on the daemons, reconstruct."""
        client = self.clients[bob]
        shares, report = self.connections[bob].query(
            client.encrypt_query(query), K, mode="basic")
        neighbors = client.reconstruct(shares)
        bob_seconds = (client.last_cost.encrypt_query_seconds
                       + client.last_cost.reconstruct_seconds)
        return neighbors, bob_seconds, report

    def drive(self, seconds, recorder):
        oracle = self.workload.oracle

        def run_query(bob: int, query: list[int]):
            neighbors, bob_seconds, report = self.query(bob, query)
            return oracle.exact(query, neighbors, K), bob_seconds, report

        return harness.closed_loop(self.workload.bobs, seconds, MIN_QUERIES,
                                   self.workload.streams(), run_query,
                                   recorder)

    def counters(self) -> dict[str, float]:
        remote = self.connections[0]
        daemons = [remote.c1, remote.c2, *remote.shards]
        snapshots = [client.request("transport.metrics", None)["snapshot"]
                     for client in daemons]
        # Client-side retries and reconnects count in this process.
        snapshots.append(get_registry().snapshot())
        values = {key: sum(_family_total(snapshot, family)
                           for snapshot in snapshots)
                  for key, family in DAEMON_COUNTERS.items()}
        traffic = remote.c2.request("transport.stats", None)["traffic"]
        values["c2_bytes"] = traffic["bytes_transferred"]
        values["c2_frames"] = traffic["messages"]
        return values

    def teardown(self) -> None:
        for connection in self.connections[1:]:
            connection.close()
        self.supervisor.shutdown()


def _family_total(snapshot: dict[str, Any], family: str) -> float:
    values = snapshot.get(family, {}).get("values", {})
    return float(sum(value for value in values.values()
                     if isinstance(value, (int, float))))


def install_wrappers(recorder: SpanRecorder, workload: Workload) -> None:
    """Wrap every layer function a traced run times (all workloads share
    one set; a function a workload never calls records nothing)."""
    from repro.core import roles
    from repro.core.sknn_base import SkNNProtocol
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
    from repro.crypto.precompute import PrecomputeEngine
    from repro.protocols.sbd import SecureBitDecomposition
    from repro.protocols.sbor import SecureBitOr
    from repro.protocols.sm import SecureMultiplication
    from repro.protocols.smin import SecureMinimum
    from repro.protocols.sminn import SecureMinimumOfN
    from repro.protocols.ssed import SecureSquaredEuclideanDistance
    from repro.service.scheduler import QueryServer
    from repro.service.sharding import ShardedCloud
    from repro.transport.client import DaemonClient, RemoteCloud

    if isinstance(workload, SkNNbService):
        workload.count_batches(recorder)
    layer_functions = [
        (roles, ("generate_keypair",), "crypto.keygen"),
        (DataOwner, ("encrypt_database",), "db.encrypt_database"),
        (QueryClient, ("encrypt_query",), "bob.encrypt_query"),
        (QueryClient, ("reconstruct",), "bob.reconstruct"),
        (PaillierPublicKey, ("encrypt_batch", "scalar_mul_batch",
                             "add_batch"), "crypto.public_key"),
        (PaillierPrivateKey, ("decrypt", "decrypt_raw_residue",
                              "decrypt_vector", "decrypt_batch",
                              "decrypt_residue_batch"), "crypto.private_key"),
        (SecureMultiplication, ("run", "run_batch", "run_square_batch"),
         "protocols.sm"),
        (SecureSquaredEuclideanDistance, ("run", "run_many"),
         "protocols.ssed"),
        (SecureBitDecomposition, ("run", "run_batch"), "protocols.sbd"),
        (SecureMinimum, ("run", "run_batch"), "protocols.smin"),
        (SecureMinimumOfN, ("run",), "protocols.sminn"),
        (SecureBitOr, ("run", "run_batch"), "protocols.sbor"),
        (SkNNProtocol, ("run_with_report",), "core.run_with_report"),
        (QueryServer, ("submit",), "service.submit"),
        (ShardedCloud, ("answer_batch",), "service.answer_batch"),
        (ShardedCloud, ("scatter_distances",), "service.scatter_distances"),
        (ShardedCloud, ("refill_precompute",), "precompute.refill"),
        (PrecomputeEngine, ("warm",), "precompute.warm"),
        (RemoteCloud, ("query",), "transport.remote_query"),
        (RemoteCloud, ("provision",), "transport.provision"),
        (LocalSupervisor, ("start",), "transport.spawn"),
        (LocalSupervisor, ("shutdown",), "supervisor.shutdown"),
    ]
    for owner, attributes, name in layer_functions:
        for attribute in attributes:
            recorder.wrap(owner, attribute, name)
    recorder.wrap(DaemonClient, "request", "transport.request",
                  namer=lambda client, tag, *args, **kwargs:
                  f"transport.request:{tag}")


WORKLOADS = {cls.name: cls
             for cls in (SkNNmSerial, SkNNbService, SkNNbDistributed)}
