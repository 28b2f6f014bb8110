"""Constant-bit-rate traffic generation.

The paper's workload: 30 simultaneous CBR flows of 512-byte packets at
4 packets/s.  Each flow lasts for an exponentially distributed time with a
mean of 60 s; when a flow ends, a new flow between a fresh random
source/destination pair starts, keeping the number of simultaneous flows
constant.  Flow endpoints and lifetimes come from the trial's ``traffic``
random stream, so every protocol in a trial sees the identical schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

from ..sim.engine import Simulator
from ..sim.node import Node

__all__ = ["CbrFlow", "CbrTrafficManager"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class CbrFlow:
    """One constant-bit-rate flow between a source and a destination."""

    flow_id: int
    source: NodeId
    destination: NodeId
    start_time: float
    end_time: float
    packets_per_second: float
    packet_size_bytes: int

    @property
    def interval(self) -> float:
        """Seconds between consecutive packets."""
        return 1.0 / self.packets_per_second


class CbrTrafficManager:
    """Creates flows, keeps the target number active and injects packets."""

    def __init__(
        self,
        simulator: Simulator,
        nodes: Dict[NodeId, Node],
        rng: random.Random,
        *,
        flow_count: int,
        packets_per_second: float,
        packet_size_bytes: int,
        mean_flow_duration: float,
        end_time: float,
    ) -> None:
        if flow_count < 0:
            raise ValueError("flow_count must be non-negative")
        self._simulator = simulator
        self._nodes = nodes
        self._rng = rng
        self._flow_count = flow_count
        self._packets_per_second = packets_per_second
        self._packet_size_bytes = packet_size_bytes
        self._mean_flow_duration = mean_flow_duration
        self._end_time = end_time
        self._next_flow_id = 0
        self.flows: List[CbrFlow] = []

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Create the initial set of simultaneous flows.

        Start times are staggered over the first few seconds so route
        discoveries do not all collide at t = 0 (the paper's flows also start
        as previous flows end, not all at once).
        """
        for _ in range(self._flow_count):
            start = self._rng.uniform(0.0, 5.0)
            self._simulator.schedule_at(start, self._start_new_flow)

    def _start_new_flow(self) -> None:
        now = self._simulator.now
        if now >= self._end_time:
            return
        source, destination = self._pick_endpoints()
        duration = self._rng.expovariate(1.0 / self._mean_flow_duration)
        flow = CbrFlow(
            flow_id=self._next_flow_id,
            source=source,
            destination=destination,
            start_time=now,
            end_time=min(now + duration, self._end_time),
            packets_per_second=self._packets_per_second,
            packet_size_bytes=self._packet_size_bytes,
        )
        self._next_flow_id += 1
        self.flows.append(flow)
        self._schedule_packet(flow, now)

    def _pick_endpoints(self) -> "tuple[NodeId, NodeId]":
        node_ids: Sequence[NodeId] = list(self._nodes)
        source = self._rng.choice(node_ids)
        destination = self._rng.choice(node_ids)
        while destination == source:
            destination = self._rng.choice(node_ids)
        return source, destination

    def _schedule_packet(self, flow: CbrFlow, when: float) -> None:
        if when >= self._end_time:
            # The simulation is over before the next packet; no replacement.
            return
        if when >= flow.end_time:
            # The flow is over; start a replacement at that time so the number
            # of simultaneous flows stays constant (scheduling it in the future
            # rather than instantly avoids a same-instant flow-creation loop
            # near the end of the trial).
            self._simulator.schedule_at(when, self._start_new_flow)
            return

        def send() -> None:
            self._nodes[flow.source].originate_data(
                flow.destination, flow.packet_size_bytes, flow_id=flow.flow_id
            )
            self._schedule_packet(flow, self._simulator.now + flow.interval)

        self._simulator.schedule_at(when, send)
