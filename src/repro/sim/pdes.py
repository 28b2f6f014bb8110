"""Spatially sharded conservative parallel discrete-event backend.

The serial engine runs one trial on one core.  This module shards the
terrain into ``K`` contiguous vertical strips (the same decomposition the
spatial grid uses, cell-aligned regions of the plane) and gives every shard
its own event queue — a :class:`~repro.sim.eventq.CalendarQueue` per shard —
so a trial's event population is spatially partitioned the way a
Chandy–Misra conservative PDES partitions it across logical processes.

Two execution modes share the decomposition:

**Threaded (in-process) mode** — :class:`ShardedSimulator`, the default for
``EngineTuning.engine_backend = "sharded"`` and the mode every correctness
test and CI job runs.  Each shard owns a real queue; events are routed to
the queue of the shard that *scheduled* them (delivery context switches per
cross-shard reception, so a node's event chain migrates to its owner shard),
and the run loop advances all shards together by popping the globally
least entry — a deterministic K-way merge over per-shard ``peek()``.
Because pop order is totally determined by ``(time, priority, sequence)``
and the merge always selects the global minimum, the executed event
sequence is *identical* to the serial engine's for any K: shard-count
invariance holds bit-for-bit by construction, and the window/barrier/
handoff machinery below is pure attribution and accounting on top of it.
The machinery is exactly what the process mode needs — bounded time
windows, barrier bookkeeping, boundary-event counting, mobility handoffs —
exercised deterministically so its costs are measurable (the profile's
``engine.sync`` layer) and its accounting testable.

**Process mode** — :func:`run_trial_sharded_processes`, shared-nothing
workers.  Two sub-modes share the entry point:

*Group mode* (instantaneous propagation, the exact path): with
``propagation_delay_s_per_m == 0`` the conservative lookahead between
radio-coupled shards collapses (see below), so true parallelism is only
available between shard **groups** that are radio-decoupled for the whole
trial.  Groups are the connected components of the carrier-sense
reachability graph over the initial (static) positions; each worker
deterministically rebuilds the full network from the scenario seed (RNG
streams are per-node, and the shared ``traffic`` stream is replayed
identically by every worker — foreign flows are "shadow" flows whose draws
are consumed but whose packets are never originated) and simulates only its
own groups' nodes.  Mobile scenarios roam the whole terrain and therefore
form one group; they fall back to a serial run, reported honestly.  Group
mode is *exact*: its ``TrialSummary`` matches the serial engine.

*Windowed mode* (finite propagation delay, the concurrent path): when the
scenario's PHY sets a positive ``propagation_delay_s_per_m`` the lookahead
is non-degenerate and radio-coupled strips can genuinely advance
concurrently.  One worker process per strip replays the full deterministic
network build, mutes receive paths of foreign nodes, restricts traffic
origination to its strip, and runs window-by-window; at each window
barrier workers exchange the boundary frames their owned nodes put on the
air (serialized packet snapshots over pipes) and replay the foreign ones
locally, each at its original transmit time shifted by exactly one window
so the originating strip's inter-frame spacing survives the exchange.
The windowed mode is a *model* change (cross-strip frames arrive one window
late; fault RNG streams are split per shard) validated by the science gate
— paper and faults registries — not by bit-identity.

Lookahead derivation
--------------------

The conservative window is ``lookahead = min propagation delay into a
neighboring shard + the carrier-sense busy horizon granularity``.  Under
the default PHY (:class:`~repro.sim.phy.PhyConfig`) propagation is
instantaneous — a frame put on the air at ``t`` is sensed and received at
``t`` anywhere inside the disk — so the propagation term is **zero**, and
the only lower bound left on cross-shard influence is the MAC's decision
granularity, one slot time (20 µs).  A 20 µs window is far below the mean
event spacing, so radio-coupled shards cannot be advanced concurrently
without violating the repo's bit-identity bar; the threaded mode therefore
merges deterministically (parallel in structure, serial in time), and the
process mode extracts exact concurrency only across decoupled groups.

With ``propagation_delay_s_per_m > 0`` the propagation term becomes
``delay * carrier_sense_range`` — the time a signal needs to sweep the
whole influence disk of a transmitter at the seam (any receiver closer
than the carrier-sense radius hears the leading edge sooner, but no MAC
decision anywhere in the neighbour strip can depend on the frame before
its own arrival, and the busy window a frame imposes ends no later than
``end + delay * distance``).  The window used for barrier accounting is
``max(lookahead, frame_overhead_s)`` so one window spans at least a
frame's fixed overhead; the *process* windowed mode additionally floors
the exchange cadence at :data:`PROCESS_WINDOW_FLOOR_S` because a
microsecond-scale pipe round-trip would drown the concurrency it buys —
that floor is part of the model the science gate validates.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .engine import Event, Simulator
from .eventq import CalendarQueue
from .stats import TrialStats, TrialSummary

__all__ = [
    "ShardPlan",
    "PdesSync",
    "ShardedSimulator",
    "PdesError",
    "radio_groups",
    "ProcessRunReport",
    "run_trial_sharded_processes",
    "PROCESS_WINDOW_FLOOR_S",
]

NodeId = Hashable

#: One queue entry, exactly the engine's shape.
_Entry = Tuple[float, int, int, object]


class PdesError(RuntimeError):
    """Raised when a PDES execution mode cannot honour its contract."""


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """The spatial decomposition of one trial: K contiguous vertical strips.

    ``boundaries`` are the K-1 interior seam x-coordinates; ``lookahead``
    and ``window`` carry the conservative-synchronization derivation from
    the module docstring (propagation delay across a neighbor's influence
    disk — zero under the default instantaneous PHY, ``delay * cs_range``
    under the finite-delay variant — plus the carrier-sense horizon
    granularity, one slot).
    ``refresh_interval`` is how often mobility can require an ownership
    refresh: a node needs ``strip_width / 4 / max_speed`` seconds to cross
    a quarter strip, so refreshing at that cadence bounds attribution
    staleness the same way the channel bounds grid-snapshot staleness.
    """

    shard_count: int
    terrain_width: float
    strip_width: float
    boundaries: Tuple[float, ...]
    lookahead: float
    window: float
    refresh_interval: float

    @classmethod
    def for_scenario(cls, scenario, shard_count: int) -> "ShardPlan":
        """The plan for ``scenario`` sharded ``shard_count`` ways."""
        if shard_count < 1:
            raise ValueError(f"shard count must be >= 1, got {shard_count}")
        width = float(scenario.terrain_width)
        strip = width / shard_count
        phy = scenario.phy
        # The propagation term is the time a seam transmission needs to
        # sweep its whole influence disk (delay * carrier-sense radius);
        # zero under the default instantaneous PHY.  The slot time is the
        # finest granularity at which a neighboring shard's carrier-sense
        # state can influence a MAC decision.
        propagation_delay = phy.propagation_delay_s_per_m * phy.carrier_sense_range
        lookahead = propagation_delay + phy.slot_time_s
        window = max(lookahead, phy.frame_overhead_s)
        max_speed = max(float(scenario.max_speed), 0.0)
        if max_speed > 0.0 and shard_count > 1:
            refresh = max(strip / 4.0 / max_speed, window)
        else:
            refresh = float("inf")
        return cls(
            shard_count=shard_count,
            terrain_width=width,
            strip_width=strip,
            boundaries=tuple(strip * i for i in range(1, shard_count)),
            lookahead=lookahead,
            window=window,
            refresh_interval=refresh,
        )

    def shard_of_x(self, x: float) -> int:
        """The shard owning x-coordinate ``x`` (edges clamp into range)."""
        shard = int(x / self.strip_width) if self.strip_width > 0.0 else 0
        if shard < 0:
            return 0
        last = self.shard_count - 1
        return last if shard > last else shard

    def shard_of_position(self, position) -> int:
        """The shard owning a :class:`~repro.sim.space.Position`."""
        return self.shard_of_x(position.x)


@dataclass
class PdesSync:
    """Synchronization accounting of one sharded run.

    ``executed_by_shard`` attributes every executed event to the shard whose
    queue held it; the boundary counters record cross-shard effects (a
    reception delivered into a different owner's shard, a fault flip
    landing outside the coordinator shard); ``handoffs`` counts ownership
    changes from mobility refreshes; ``windows``/``barrier_seconds``
    measure the window-barrier bookkeeping itself — the quantity the
    profile's ``engine.sync`` layer makes visible.
    """

    shard_count: int = 1
    executed_by_shard: List[int] = field(default_factory=list)
    windows: int = 0
    handoffs: int = 0
    boundary_receptions: int = 0
    boundary_faults: int = 0
    barrier_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.executed_by_shard:
            self.executed_by_shard = [0] * self.shard_count

    def report(self) -> Dict[str, Any]:
        """A JSON-safe roll-up (attached to profiles and benchmark records).

        ``boundary_events`` totals the two seam-crossing counters — the
        traffic a process-mode execution would ship at barriers — and
        ``events_per_window`` is the mean window occupancy, the direct
        measure of how much concurrency a window actually exposes (a
        single-shard run reports zero windows, so occupancy is zero too
        rather than a misleading whole-trial figure).
        """
        executed = sum(self.executed_by_shard)
        boundary_events = self.boundary_receptions + self.boundary_faults
        return {
            "shard_count": self.shard_count,
            "executed_by_shard": list(self.executed_by_shard),
            "windows": self.windows,
            "handoffs": self.handoffs,
            "boundary_receptions": self.boundary_receptions,
            "boundary_faults": self.boundary_faults,
            "boundary_events": boundary_events,
            "events_per_window": (
                round(executed / self.windows, 1) if self.windows else 0.0
            ),
            "barrier_seconds": round(self.barrier_seconds, 6),
        }


class _ShardHeap:
    """A plain binary heap with the CalendarQueue push/pop/peek surface.

    Backs a shard when ``event_queue="heap"`` so the sharded backend
    composes with both queue flavours (the equivalence matrix covers the
    cross product).
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry: _Entry) -> None:
        heappush(self._heap, entry)

    def pop(self) -> Optional[_Entry]:
        return heappop(self._heap) if self._heap else None

    def peek(self) -> Optional[_Entry]:
        return self._heap[0] if self._heap else None


class ShardedSimulator(Simulator):
    """K per-shard event queues advanced by a deterministic global merge.

    Drop-in for :class:`~repro.sim.engine.Simulator`: the scheduling API is
    inherited unchanged — only ``_push`` is rerouted to the queue of the
    *current delivery context* shard, and the run loop pops the globally
    least entry across all shards (per-shard ``peek``, one pop).  The
    sequence number stays globally unique, so the executed event sequence —
    and therefore every trial outcome — is bit-identical to the serial
    engine for any shard count.  What changes is the structure: event
    populations are spatially partitioned, cross-shard effects are counted
    at the seams, window barriers and mobility handoffs run exactly where a
    distributed conservative execution would place them.
    """

    def __init__(self, plan: ShardPlan, *, event_queue: str = "calendar") -> None:
        super().__init__(event_queue=event_queue)
        self.plan = plan
        # Neutralise the serial fast path: the base run loop reads
        # _calendar._active directly, which must never engage here.
        self._calendar = None
        self._queue = []
        if event_queue == "calendar":
            self._queues: List[Any] = [
                CalendarQueue() for _ in range(plan.shard_count)
            ]
        else:
            self._queues = [_ShardHeap() for _ in range(plan.shard_count)]
        self._push = self._route_push
        self._current_shard = 0
        self._owner: Dict[NodeId, int] = {}
        self._providers: Dict[NodeId, Callable[[], Tuple[float, float]]] = {}
        self._next_refresh = float("inf")
        self.sync = PdesSync(shard_count=plan.shard_count)

    # -- routing -----------------------------------------------------------------

    def _route_push(self, entry: _Entry) -> None:
        """Queue ``entry`` in the current delivery context's shard."""
        self._queues[self._current_shard].push(entry)

    @property
    def pending_events(self) -> int:
        total = sum(len(queue) for queue in self._queues)
        return total - self._cancelled_pending

    # -- ownership ---------------------------------------------------------------

    def bind_nodes(
        self,
        initial_positions: Dict[NodeId, Tuple[float, float]],
        providers: Dict[NodeId, Callable[[], Tuple[float, float]]],
    ) -> None:
        """Install node → shard ownership from initial positions.

        ``providers`` yield live positions for the periodic ownership
        refresh; positions are pure functions of the simulation clock, so
        querying them at barrier times is exact (leg extension consumes the
        per-node mobility streams in leg order regardless of query time).
        """
        plan = self.plan
        self._owner = {
            node_id: plan.shard_of_position(position)
            for node_id, position in initial_positions.items()
        }
        self._providers = dict(providers)
        if self._providers and plan.refresh_interval != float("inf"):
            self._next_refresh = plan.refresh_interval

    def shard_of_node(self, node_id: NodeId) -> int:
        """The shard currently owning ``node_id`` (unknown nodes: shard 0)."""
        return self._owner.get(node_id, 0)

    def set_node_context(self, node_id: Optional[NodeId]) -> None:
        """Switch the delivery context to ``node_id``'s owner shard.

        ``None`` selects shard 0, the coordinator shard that owns global
        work (traffic flow starts, fault flips at their scheduling time).
        """
        self._current_shard = 0 if node_id is None else self._owner.get(node_id, 0)

    # -- channel probe ------------------------------------------------------------

    def deliver_context(self, transmitter: NodeId, receiver: NodeId) -> None:
        """Switch context to the receiver's shard for one frame delivery.

        Counted as a boundary event when the frame crosses a seam — this is
        the reception a process-mode execution would ship between workers
        at a window barrier.
        """
        owner = self._owner
        shard = owner.get(receiver, 0)
        if shard != owner.get(transmitter, 0):
            self.sync.boundary_receptions += 1
        self._current_shard = shard

    def fault_context(self, spec, flip: Callable[[], None]) -> Callable[[], None]:
        """Wrap a fault flip so it executes in its target's shard context.

        Fault flips are scheduled at build time from the coordinator shard;
        a flip whose target (a crashing node, a partition seam) lives in
        another shard is a cross-shard fault event and counted as such.
        The wrap changes no RNG draw and no schedule entry, so faulted
        trials stay bit-identical to the serial engine.
        """

        def apply() -> None:
            shard = self._fault_target_shard(spec)
            if shard != self._current_shard:
                self.sync.boundary_faults += 1
                self._current_shard = shard
            flip()

        return apply

    def _fault_target_shard(self, spec) -> int:
        if spec.kind == "node_crash":
            return self._owner.get(spec.node, 0)
        if spec.kind == "partition":
            return self.plan.shard_of_x(spec.boundary_x)
        return 0  # blackout / loss_burst affect every shard; coordinator owns them

    # -- window barriers -----------------------------------------------------------

    def _window_barrier(self, time: float) -> None:
        """Per-window synchronization point: accounting plus ownership refresh.

        In the threaded mode this is where a distributed execution would
        block on its neighbors and exchange boundary events; here the merge
        already ordered everything globally, so the barrier's only real work
        is the mobility-driven ownership refresh — and its cost, measured
        into ``barrier_seconds``, is exactly the synchronization overhead
        the ``engine.sync`` profile layer reports.
        """
        started = perf_counter()
        sync = self.sync
        sync.windows += 1
        if time >= self._next_refresh:
            self._refresh_ownership()
            self._next_refresh = time + self.plan.refresh_interval
        sync.barrier_seconds += perf_counter() - started

    def _refresh_ownership(self) -> None:
        """Re-derive node → shard ownership from live positions (handoffs)."""
        shard_of_x = self.plan.shard_of_x
        owner = self._owner
        handoffs = 0
        # Providers use the mobility model's allocation-free tuple fast path.
        for node_id, provider in self._providers.items():
            shard = shard_of_x(provider()[0])
            if shard != owner[node_id]:
                owner[node_id] = shard
                handoffs += 1
        self.sync.handoffs += handoffs

    # -- execution -----------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Advance all shards by popping the globally least entry each step.

        Same contract as :meth:`Simulator.run`; the executed sequence is
        identical because the merge always selects the minimum of the
        per-shard minima and the total order is unique.
        """
        event_class = Event
        self._running = True
        processed = self._processed
        queues = self._queues
        peeks = [queue.peek for queue in queues]
        pops = [queue.pop for queue in queues]
        executed = self.sync.executed_by_shard
        inv_window = 1.0 / self.plan.window
        window_index = -1
        # A single shard has no seams: no barrier could exchange anything,
        # so a K=1 run reports zero windows/barriers instead of a
        # misleading whole-trial window count.
        track_windows = self.plan.shard_count > 1
        try:
            while self._running:
                best: Optional[_Entry] = None
                best_shard = 0
                for shard, peek in enumerate(peeks):
                    entry = peek()
                    if entry is not None and (best is None or entry < best):
                        best = entry
                        best_shard = shard
                if best is None:
                    break
                time = best[0]
                if until is not None and time > until:
                    # Unlike the serial loop there is nothing to push back:
                    # the winner was only peeked, never popped.
                    break
                if track_windows:
                    w = int(time * inv_window)
                    if w != window_index:
                        window_index = w
                        self._window_barrier(time)
                pops[best_shard]()
                payload = best[3]
                self._current_shard = best_shard
                if payload.__class__ is event_class:
                    if payload.cancelled:
                        self._cancelled_pending -= 1
                        continue
                    callback = payload.callback
                    payload.callback = None
                    self.now = time
                    processed += 1
                    executed[best_shard] += 1
                    callback()
                else:
                    self.now = time
                    processed += 1
                    executed[best_shard] += 1
                    payload()
        finally:
            self._processed = processed
        if until is not None and self.now < until:
            self.now = until
        self._running = False

    def _pop_entry(self) -> Optional[_Entry]:
        best: Optional[_Entry] = None
        best_shard = 0
        for shard, queue in enumerate(self._queues):
            entry = queue.peek()
            if entry is not None and (best is None or entry < best):
                best = entry
                best_shard = shard
        if best is None:
            return None
        self._queues[best_shard].pop()
        self._current_shard = best_shard
        return best


# -- process mode ---------------------------------------------------------------------


def radio_groups(scenario) -> List[Tuple[int, ...]]:
    """Radio-decoupled node groups of ``scenario`` at its initial positions.

    Connected components of the graph with an edge wherever two nodes are
    within carrier-sense range: nodes in different components can neither
    receive from nor defer to each other, so (for static positions) their
    event populations have *infinite* mutual lookahead and may be simulated
    independently.  Initial positions are re-drawn exactly as
    ``build_network`` draws them — per node id, from the shared ``mobility``
    stream — so the decomposition is a pure function of the scenario.
    """
    from .rng import RngStreams  # local import: keep module import light

    streams = RngStreams(scenario.seed)
    rng = streams.get("mobility")
    terrain = scenario.terrain
    positions = [terrain.random_position(rng) for _ in range(scenario.node_count)]
    cs_range = scenario.phy.carrier_sense_range
    parent = list(range(scenario.node_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(scenario.node_count):
        xi, yi = positions[i].x, positions[i].y
        for j in range(i + 1, scenario.node_count):
            dx = positions[j].x - xi
            dy = positions[j].y - yi
            if (dx * dx + dy * dy) ** 0.5 <= cs_range:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    components: Dict[int, List[int]] = {}
    for node in range(scenario.node_count):
        components.setdefault(find(node), []).append(node)
    return sorted(
        (tuple(members) for members in components.values()), key=lambda c: c[0]
    )


@dataclass(frozen=True, slots=True)
class ProcessRunReport:
    """Outcome of a process-mode run: the summary plus how it was obtained."""

    summary: TrialSummary
    groups: Tuple[Tuple[int, ...], ...]
    workers_used: int
    #: Why the run degenerated to one serial worker, or ``None`` when the
    #: group decomposition actually fanned out.
    fallback_reason: Optional[str] = None
    #: ``"groups"`` (exact, radio-decoupled fan-out), ``"windowed"``
    #: (finite-delay barrier exchange) or ``"serial"`` (fallback).
    mode: str = "groups"
    #: Windowed-mode accounting: barrier windows executed, boundary frames
    #: shipped between workers, wall-clock seconds spent blocked at
    #: barriers (max across workers — the critical path), and total events
    #: executed across all workers.
    windows: int = 0
    boundary_frames: int = 0
    barrier_seconds: float = 0.0
    events_processed: int = 0


def _group_worker(args) -> TrialStats:
    """Simulate one worker's owned groups inside a full deterministic replica.

    The worker rebuilds the complete network from the scenario (identical
    RNG streams, identical build order), then starts only the owned nodes'
    protocols and restricts traffic origination to owned sources — foreign
    flows stay "shadow" flows: their endpoint/lifetime draws are consumed
    from the shared ``traffic`` stream in the identical order, keeping every
    owned flow's draws bit-identical to the serial run, but their packets
    are never originated.  Unowned nodes are radio-unreachable from owned
    ones (that is what the group decomposition certifies), so the owned
    nodes observe exactly the frames they observe serially, and the
    worker's :class:`TrialStats` holds exactly the owned groups'
    contribution.
    """
    scenario, protocol_name, owned, fast_paths, tuning = args
    from ..protocols import protocol_factory  # local: after fork/spawn
    from .network import build_network
    from .tuning import EngineTuning

    worker_tuning = EngineTuning(
        event_queue=tuning.event_queue,
        engine_backend="serial",
    )
    network = build_network(
        scenario,
        protocol_factory(protocol_name),
        static_positions=True,
        fast_paths=fast_paths,
        tuning=worker_tuning,
    )
    owned_set = frozenset(owned)
    if network.traffic is not None:
        network.traffic.restrict_to(owned_set)
    for node_id in owned:
        network.nodes[node_id].protocol.start()
    if network.traffic is not None:
        network.traffic.start()
    network.simulator.run(until=scenario.duration)
    for node_id in owned:
        node = network.nodes[node_id]
        node.protocol.finalize()
        network.stats.record_mac_drops(node_id, node.mac.stats.drops)
        network.stats.record_sequence_number(
            node_id, node.protocol.sequence_number_metric()
        )
    return network.stats


def _merge_group_stats(parts: Sequence[TrialStats]) -> TrialStats:
    """Sum per-worker stats into one trial-wide :class:`TrialStats`.

    Counters add; per-node roll-ups merge (owned sets are disjoint);
    latency lists concatenate in group order.  Group order is canonical but
    differs from the serial interleaving, so ``mean_latency`` can differ
    from the serial value in the last float ulp — the integer counters are
    exact.  Resilience counters add the same way (every data packet is
    attributed to exactly one worker, its destination's owner), and
    ``route_recovery_time`` is the minimum non-negative per-worker value.
    """
    merged = TrialStats()
    recovery = -1.0
    for part in parts:
        merged.data_sent += part.data_sent
        merged.data_delivered += part.data_delivered
        merged.duplicate_deliveries += part.duplicate_deliveries
        merged.control_transmissions += part.control_transmissions
        merged.latencies.extend(part.latencies)
        merged.mac_drops_by_node.update(part.mac_drops_by_node)
        merged.sequence_numbers_by_node.update(part.sequence_numbers_by_node)
        merged.sent_during_fault += part.sent_during_fault
        merged.delivered_during_fault += part.delivered_during_fault
        merged.sent_post_fault += part.sent_post_fault
        merged.delivered_post_fault += part.delivered_post_fault
        merged.control_burst_on_heal += part.control_burst_on_heal
        # Each worker records the earliest post-heal delivery among its
        # owned destinations; the trial-wide recovery time is the earliest
        # across workers (workers that saw none report -1).
        if part.route_recovery_time >= 0.0 and (
            recovery < 0.0 or part.route_recovery_time < recovery
        ):
            recovery = part.route_recovery_time
    merged.route_recovery_time = recovery
    return merged


# -- windowed process mode ------------------------------------------------------------

#: Floor on the windowed mode's exchange cadence (seconds of simulated
#: time).  The conservative lookahead under a physical propagation delay is
#: ~1.3 us — a correct causality bound but an absurd IPC cadence.  The
#: windowed mode is already a *model* (cross-strip frames are injected at
#: the next barrier, fault streams are split per shard), so the window is a
#: staleness budget rather than a causality proof: 8 ms keeps the
#: cross-seam arrival distortion an order of magnitude below every protocol
#: timescale (HELLO intervals, CBR periods, route timeouts) while
#: amortising a pipe round-trip over thousands of events.  The science gate
#: (paper + faults registries) validates the budget.
PROCESS_WINDOW_FLOOR_S = 0.008

#: Disjoint packet-uid block per windowed worker, so end-to-end duplicate
#: suppression and latency keys stay globally unique when every worker
#: originates packets from its own local counter.
_UID_BLOCK = 1_000_000_000


def _pack_frame(frame) -> Tuple:
    """Snapshot one boundary frame for the pipe (packet fields by value).

    The snapshot is taken at transmit time because the MAC mutates
    ``packet.hops`` (and pools frames) after the air time; shipping live
    objects would leak retry-mutated state across the barrier.
    """
    packet = frame.packet
    return (
        frame.receiver,
        packet.kind,
        packet.source,
        packet.destination,
        packet.size_bytes,
        packet.created_at,
        packet.payload,
        packet.flow_id,
        packet.uid,
        packet.hops,
    )


def _windowed_worker(conn, args) -> None:
    """One strip of a windowed run: full replica, owned execution, barriers.

    The worker rebuilds the complete deterministic network (identical RNG
    streams and build order — geometry, mobility and fault flips replicate
    exactly), then narrows *execution* to its strip: foreign nodes' receive
    paths are muted at the channel, foreign protocols are never started,
    and traffic origination is restricted to owned sources.  A transmit tap
    records every frame an owned node puts on the air; at each window
    barrier the tap's outbox is shipped to the peers and their boundary
    frames are replayed locally via ``channel.transmit`` (the foreign
    transmitter's geometry is present, so carrier-sense and reception
    ranges are computed exactly — only the replay *time* is shifted, by
    one window).  Ownership is fixed at the t=0 strip assignment: mobility
    stays exact because every worker replays the full mobility model, so a
    roaming owned node keeps transmitting from its true position and
    foreign frames keep reaching whoever is in range.
    """
    (
        scenario,
        protocol_name,
        shard_index,
        shard_count,
        static_positions,
        fast_paths,
        tuning,
        window_s,
    ) = args
    from ..protocols import protocol_factory  # local: after fork/spawn
    from .faults import FaultSchedule
    from .network import build_network
    from .packet import Frame, Packet, reset_packet_ids
    from .tuning import EngineTuning

    reset_packet_ids(1 + shard_index * _UID_BLOCK)
    worker_tuning = EngineTuning(
        event_queue=tuning.event_queue,
        engine_backend="serial",
    )
    network = build_network(
        scenario,
        protocol_factory(protocol_name),
        static_positions=static_positions,
        fast_paths=fast_paths,
        tuning=worker_tuning,
    )
    plan = ShardPlan.for_scenario(scenario, shard_count)
    owned = tuple(
        sorted(
            node_id
            for node_id, node in network.nodes.items()
            if plan.shard_of_x(node.position()[0]) == shard_index
        )
    )
    owned_set = frozenset(owned)
    channel = network.channel
    for node_id in network.nodes:
        if node_id not in owned_set:
            channel.mute(node_id)
    if network.traffic is not None:
        network.traffic.restrict_to(owned_set)
    faults_state = channel.faults
    if faults_state is not None:
        faults_state.reseed(
            FaultSchedule.split_for_shards(scenario.seed, shard_count)[shard_index]
        )

    outbox: List[Tuple] = []
    sequence = 0

    def tap(transmitter, frame, now) -> None:
        nonlocal sequence
        if transmitter in owned_set:
            sequence += 1
            outbox.append((now, shard_index, sequence, transmitter, _pack_frame(frame)))

    channel.set_transmit_tap(tap)

    for node_id in owned:
        network.nodes[node_id].protocol.start()
    if network.traffic is not None:
        network.traffic.start()

    simulator = network.simulator
    duration = float(scenario.duration)
    windows = 0
    shipped = 0
    barrier_wait = 0.0
    t = 0.0
    while t < duration:
        t_next = t + window_s
        if t_next > duration:
            t_next = duration
        simulator.run(until=t_next)
        started = perf_counter()
        conn.send(outbox)
        inbox = conn.recv()
        barrier_wait += perf_counter() - started
        shipped += len(outbox)
        windows += 1
        outbox.clear()
        if inbox:
            # (time, shard, sequence) is unique, so the sort is total and
            # identical at every worker: injections happen in one
            # deterministic order regardless of pipe arrival order.  Each
            # foreign frame replays at its original transmit time shifted
            # by exactly one window — preserving the inter-frame spacing of
            # the originating strip instead of slamming a whole window's
            # boundary traffic onto the air at the barrier instant (which
            # manufactures collision storms no physical channel has).
            inbox.sort(key=lambda record: record[:3])
            for sent_at, _, _, foreign_transmitter, snapshot in inbox:
                packet = Packet(
                    snapshot[1],
                    snapshot[2],
                    snapshot[3],
                    snapshot[4],
                    snapshot[5],
                    snapshot[6],
                    snapshot[7],
                    snapshot[8],
                    snapshot[9],
                )
                replay = Frame(packet, foreign_transmitter, snapshot[0])
                simulator.schedule_at(
                    sent_at + window_s,
                    (
                        lambda tx=foreign_transmitter, fr=replay: channel.transmit(
                            tx, fr
                        )
                    ),
                    priority=1,
                )
        t = t_next

    for node_id in owned:
        node = network.nodes[node_id]
        node.protocol.finalize()
        network.stats.record_mac_drops(node_id, node.mac.stats.drops)
        network.stats.record_sequence_number(
            node_id, node.protocol.sequence_number_metric()
        )
    conn.send(
        (
            network.stats,
            {
                "owned": owned,
                "windows": windows,
                "boundary_frames": shipped,
                "barrier_seconds": barrier_wait,
                "events": simulator.events_processed,
            },
        )
    )
    conn.close()


def _run_windowed_processes(
    scenario,
    protocol: str,
    *,
    static_positions: bool,
    fast_paths,
    tuning,
    shard_count: int,
    window_s: Optional[float],
) -> ProcessRunReport:
    """Coordinate K strip workers through lock-step window barriers.

    The parent relays each worker's outbox to every peer (star topology:
    K pipes instead of K^2).  Parent and workers run the *same* float
    window arithmetic, so they agree exactly on the number of barriers.
    """
    import multiprocessing as mp

    plan = ShardPlan.for_scenario(scenario, shard_count)
    if window_s is None:
        window_s = max(plan.window, PROCESS_WINDOW_FLOOR_S)
    if window_s <= 0.0:
        raise ValueError(f"window must be positive, got {window_s}")

    ctx = mp.get_context()
    conns = []
    workers = []
    for shard_index in range(shard_count):
        parent_conn, child_conn = ctx.Pipe()
        worker = ctx.Process(
            target=_windowed_worker,
            args=(
                child_conn,
                (
                    scenario,
                    protocol,
                    shard_index,
                    shard_count,
                    static_positions,
                    fast_paths,
                    tuning,
                    window_s,
                ),
            ),
            daemon=True,
        )
        worker.start()
        child_conn.close()
        conns.append(parent_conn)
        workers.append(worker)

    try:
        duration = float(scenario.duration)
        t = 0.0
        try:
            while t < duration:
                t_next = t + window_s
                if t_next > duration:
                    t_next = duration
                outboxes = [conn.recv() for conn in conns]
                for shard_index, conn in enumerate(conns):
                    conn.send(
                        [
                            record
                            for peer, peer_outbox in enumerate(outboxes)
                            if peer != shard_index
                            for record in peer_outbox
                        ]
                    )
                t = t_next
            results = [conn.recv() for conn in conns]
        except EOFError:
            dead = [w.exitcode for w in workers if not w.is_alive()]
            raise PdesError(
                f"a windowed worker died mid-run (exit codes of dead "
                f"workers: {dead}); the trial cannot be merged"
            ) from None
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            worker.join(timeout=30)
            if worker.is_alive():
                worker.terminate()

    parts = [stats for stats, _ in results]
    meta = [info for _, info in results]
    merged = _merge_group_stats(parts)
    return ProcessRunReport(
        summary=merged.summary(),
        # The strip ownership (t=0 assignment) plays the role the radio
        # groups play in exact mode: who executed whom.
        groups=tuple(tuple(info["owned"]) for info in meta),
        workers_used=shard_count,
        fallback_reason=None,
        mode="windowed",
        windows=max(info["windows"] for info in meta),
        boundary_frames=sum(info["boundary_frames"] for info in meta),
        barrier_seconds=max(info["barrier_seconds"] for info in meta),
        events_processed=sum(info["events"] for info in meta),
    )


def run_trial_sharded_processes(
    scenario,
    protocol: str,
    *,
    static_positions: bool = True,
    fast_paths=None,
    tuning=None,
    max_workers: Optional[int] = None,
    window_s: Optional[float] = None,
) -> ProcessRunReport:
    """Run one trial across shared-nothing worker processes.

    Under the default instantaneous-propagation PHY, exact concurrency
    exists only between radio-decoupled groups (module docstring: the
    conservative lookahead between coupled shards collapses to one slot).
    Mobile scenarios and single-component worlds fall back to one serial
    worker — reported, not hidden, in the returned
    :class:`ProcessRunReport`.  Faulted scenarios whose plan includes a
    ``loss_burst`` are refused in multi-group mode: loss draws consume one
    shared RNG stream whose order interleaves across groups (crash,
    blackout and partition flips are pre-scheduled deterministic events and
    replicate exactly).

    With ``scenario.phy.propagation_delay_s_per_m > 0`` the run switches to
    the windowed barrier-exchange mode (module docstring), which supports
    mobility and arbitrary fault plans and extracts concurrency between
    radio-*coupled* strips — as a gate-validated model, not bit-identity.
    ``window_s`` overrides the exchange cadence (default:
    ``max(plan.window, PROCESS_WINDOW_FLOOR_S)``).
    """
    from ..protocols import protocol_factory  # local import to avoid a cycle
    from .tuning import EngineTuning, FastPaths

    fp = FastPaths() if fast_paths is None else fast_paths
    engine_tuning = EngineTuning.from_env() if tuning is None else tuning

    if scenario.phy.propagation_delay_s_per_m > 0.0:
        shards = max_workers or engine_tuning.resolved_shard_count()
        return _run_windowed_processes(
            scenario,
            protocol,
            static_positions=static_positions,
            fast_paths=fp,
            tuning=engine_tuning,
            shard_count=max(int(shards), 1),
            window_s=window_s,
        )

    fallback: Optional[str] = None
    if not static_positions:
        groups: Tuple[Tuple[int, ...], ...] = (
            tuple(range(scenario.node_count)),
        )
        fallback = (
            "mobile nodes roam the whole terrain, so every shard is "
            "radio-coupled: one group"
        )
    else:
        groups = tuple(radio_groups(scenario))
        if len(groups) == 1:
            fallback = "initial positions form a single carrier-sense component"

    has_loss_burst = any(spec.kind == "loss_burst" for spec in scenario.faults)
    if has_loss_burst and len(groups) > 1:
        raise PdesError(
            "loss-burst fault plans cannot run in exact process mode with "
            "more than one radio group: loss draws consume one shared RNG "
            "stream whose order interleaves across groups. Use the threaded "
            "sharded backend (engine_backend='sharded'), which is "
            "bit-identical for faulted trials, or the finite-propagation-"
            "delay windowed mode (propagation_delay_s_per_m > 0), which "
            "splits the fault stream per shard."
        )

    if fallback is not None:
        from .network import run_trial

        summary = run_trial(
            scenario,
            protocol_factory(protocol),
            static_positions=static_positions,
            fast_paths=fp,
            tuning=EngineTuning(
                event_queue=engine_tuning.event_queue,
                engine_backend="serial",
            ),
        )
        return ProcessRunReport(
            summary=summary,
            groups=groups,
            workers_used=1,
            fallback_reason=fallback,
            mode="serial",
        )

    workers = min(len(groups), max_workers or os.cpu_count() or 1)
    workers = max(workers, 1)
    # Round-robin the components over the workers so each process carries a
    # comparable share of nodes.
    assignments: List[List[int]] = [[] for _ in range(workers)]
    for index, group in enumerate(groups):
        assignments[index % workers].extend(group)
    jobs = [
        (scenario, protocol, tuple(sorted(owned)), fp, engine_tuning)
        for owned in assignments
        if owned
    ]
    if len(jobs) == 1:
        parts = [_group_worker(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(jobs)) as pool:
            parts = list(pool.map(_group_worker, jobs))
    merged = _merge_group_stats(parts)
    return ProcessRunReport(
        summary=merged.summary(),
        groups=groups,
        workers_used=len(jobs),
        fallback_reason=None,
    )
