"""Partition-aggregate (OLDI) application: the paper's motivating workload.

Web search and online retail serve an end-user request by fanning a query
out to many workers and aggregating their answers under a strict time
budget (the intro's 200-300 ms SLO).  Messaging eats a large share of
that budget -- unless message latency is *guaranteed*, in which case the
application can hand the reclaimed time to computation (the paper's
"respond in 20 ms / network at most 4 ms / compute for 16 ms" example).

:class:`PartitionAggregateApp` models one such service on the packet
simulator: a root VM broadcasts a query to worker VMs; each worker
computes for ``worker_compute`` and returns a response of
``response_size``; the request completes when the *last* response lands
(or is abandoned at ``deadline``, counted as an SLO miss).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Type

from repro import units
from repro.phynet.metrics import MessageRecord, MetricsCollector
from repro.phynet.network import PacketNetwork
from repro.phynet.transport.base import Transport
from repro.workloads.distributions import Distribution, Fixed


#: Bytes of the query the root fans out to each worker.
QUERY_SIZE = 1.6 * units.KB


@dataclass
class QueryRecord:
    """One partition-aggregate request's life."""

    query_id: int
    start: float
    n_workers: int
    responses: int = 0
    finish: Optional[float] = None
    deadline_missed: bool = False

    @property
    def completed(self) -> bool:
        """Whether every response of the query arrived."""
        return self.finish is not None

    @property
    def latency(self) -> float:
        """Fan-out-to-last-response latency of the query."""
        if self.finish is None:
            raise ValueError("query has not completed")
        return self.finish - self.start


class PartitionAggregateApp:
    """All-to-one aggregation driven by root-fan-out queries."""

    def __init__(self, network: PacketNetwork, metrics: MetricsCollector,
                 tenant_id: int, root_vm: int, worker_vms: Sequence[int],
                 rng: random.Random,
                 response_size: Distribution = None,
                 worker_compute: Distribution = None,
                 deadline: float = 20 * units.MILLIS,
                 transport_class: Optional[Type[Transport]] = None):
        if not worker_vms:
            raise ValueError("partition-aggregate needs workers")
        self.network = network
        self.metrics = metrics
        self.tenant_id = tenant_id
        self.root_vm = root_vm
        self.worker_vms = list(worker_vms)
        self.rng = rng
        self.response_size = response_size or Fixed(15 * units.KB)
        self.worker_compute = worker_compute or Fixed(units.MILLIS)
        self.deadline = deadline
        self.queries: List[QueryRecord] = []
        self._query_counter = 0
        self._stopped = False
        self.down_flows = {w: network.transport(root_vm, w,
                                                transport_class)
                           for w in self.worker_vms}
        self.up_flows = {w: network.transport(w, root_vm,
                                              transport_class)
                         for w in self.worker_vms}

    # -- driving -----------------------------------------------------------

    def start(self, interval: float, at: float = 0.0) -> None:
        """Issue one query every ``interval`` seconds."""
        if interval <= 0:
            raise ValueError("query interval must be positive")
        self._interval = interval
        self.network.sim.schedule_at(at + interval, self._issue_query)

    def stop(self) -> None:
        """Stop issuing further queries."""
        self._stopped = True

    def _issue_query(self) -> None:
        if self._stopped:
            return
        sim = self.network.sim
        query = QueryRecord(query_id=self._query_counter, start=sim.now,
                            n_workers=len(self.worker_vms))
        self._query_counter += 1
        self.queries.append(query)
        for worker in self.worker_vms:
            request = MessageRecord(tenant_id=self.tenant_id,
                                    src_vm=self.root_vm, dst_vm=worker,
                                    size=QUERY_SIZE, start=sim.now)
            request.on_complete = (
                lambda _rec, w=worker, q=query: self._worker_compute(w, q))
            self.down_flows[worker].send_message(request)
        sim.schedule(self.deadline, self._check_deadline, query)
        sim.schedule(self._interval, self._issue_query)

    def _worker_compute(self, worker: int, query: QueryRecord) -> None:
        delay = max(0.0, self.worker_compute.sample(self.rng))
        self.network.sim.schedule(delay, self._send_response, worker,
                                  query)

    def _send_response(self, worker: int, query: QueryRecord) -> None:
        size = max(1.0, self.response_size.sample(self.rng))
        response = self.metrics.new_message(self.tenant_id, worker,
                                            self.root_vm, size,
                                            self.network.sim.now)
        response.on_complete = (
            lambda _rec, q=query: self._response_arrived(q))
        self.up_flows[worker].send_message(response)

    def _response_arrived(self, query: QueryRecord) -> None:
        query.responses += 1
        if (query.responses >= query.n_workers
                and query.finish is None):
            query.finish = self.network.sim.now

    def _check_deadline(self, query: QueryRecord) -> None:
        if not query.completed:
            query.deadline_missed = True

    # -- reporting ------------------------------------------------------------

    def completed_queries(self) -> List[QueryRecord]:
        """Records of the queries that finished."""
        return [q for q in self.queries if q.completed]

    def slo_miss_fraction(self) -> float:
        """Fraction of issued queries that blew the deadline."""
        finished_or_due = [q for q in self.queries
                           if q.completed or q.deadline_missed]
        if not finished_or_due:
            return 0.0
        missed = sum(1 for q in finished_or_due
                     if q.deadline_missed
                     or q.latency > self.deadline)
        return missed / len(finished_or_due)

    def compute_budget(self, network_bound: float) -> float:
        """Compute time a guaranteed network leaves inside the deadline.

        The paper's point: if the round trip is *bounded* by
        ``network_bound``, the application can spend
        ``deadline - network_bound`` computing instead of padding for
        network variance.
        """
        return max(0.0, self.deadline - network_bound)
