"""The shared wireless channel: unit-disk propagation with collisions.

The channel is the meeting point of every node's MAC: when a MAC transmits a
frame, the channel determines (from current mobility positions) which nodes
are in reception range, starts a *reception* at each of them, and marks
receptions as collided when they overlap in time at the same receiver or when
the receiver is itself transmitting (half-duplex).  At the end of the air time
each un-collided reception is delivered to the receiver's MAC, and the sender
is told whether its intended unicast receiver got the frame — the link-layer
loss signal the routing protocols rely on (the paper: "link-layer unicast loss
detection, without hello packets").

Carrier sensing queries ask whether any transmission is in progress within the
carrier-sense range of a prospective sender.

Performance design (and its invariants)
---------------------------------------

The geometry queries sit on the simulation's hottest path — every broadcast
flood asks for a reception set, every MAC attempt carrier-senses — so the
channel layers three caches over the brute-force O(N) scans.  All three are
exact: for a fixed seed, a trial produces bit-identical results with them on
or off (``use_spatial_index=False`` restores the brute-force scan).

1. **Per-timestamp position cache.**  Node positions are pure functions of
   the simulation clock, so the channel interpolates each node's mobility
   trace at most once per distinct value of ``simulator.now`` and serves
   repeated lookups from a dict.  The cache is invalidated whenever the clock
   advances.  *Invariant:* a listener's ``position()`` must depend only on
   ``simulator.now`` (true for every mobility model; a listener that
   teleports independently of the clock must not be cached).

2. **Uniform-grid spatial index** (:class:`~repro.sim.spatial.SpatialGrid`,
   cell size = reception range).  Range queries inspect only the grid cells
   overlapping the query disk instead of every node.  The grid is a position
   *snapshot*: rebuilding it every query would cost the same O(N) as the
   scan it replaces, so the channel reuses a snapshot taken at time ``t0``
   until nodes could have drifted more than a staleness budget
   (``max_node_speed * (now - t0)``).  Queries inflate their radius by the
   current drift bound — making the candidate set a strict superset of the
   true neighbour set — and then re-filter against exact cached positions
   with the same inclusive ``sqrt(dx²+dy²) <= r`` test, in listener attach
   order, as the brute-force scan.  *Invariant:* no node moves faster than
   ``max_node_speed`` (paper mobility: 20 m/s); a model that violates it must
   lower the budget via the constructor or disable the index.

3. **End-time heap for in-flight transmissions.**  Carrier sense used to
   rebuild the whole active-transmission list on every query; the list is now
   a min-heap on end time, so expired entries are lazily popped in O(log T)
   and the surviving entries scanned directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Protocol, Tuple

from .engine import Simulator
from .packet import Frame
from .phy import PhyConfig
from .spatial import SpatialGrid

__all__ = ["Channel", "ChannelStats", "RadioListener"]

NodeId = Hashable

#: Fallback speed bound (m/s) when the caller does not say how fast its nodes
#: move — comfortably above the paper's 20 m/s random-waypoint maximum.
DEFAULT_MAX_NODE_SPEED = 50.0


class RadioListener(Protocol):
    """What the channel needs from an attached node (implemented by the MAC)."""

    node_id: NodeId

    def position(self) -> "tuple[float, float]":
        """Current (x, y) position in metres."""

    def is_transmitting(self) -> bool:
        """True while the node's own radio is sending."""

    def radio_receive(self, frame: Frame, transmitter: NodeId) -> None:
        """Deliver a successfully received frame."""


def _discard_frame(frame: Frame, transmitter: NodeId) -> None:
    """Delivery callback for muted radios (see :meth:`Channel.mute`)."""


@dataclass(slots=True, eq=False)
class _Transmission:
    """One frame in flight.  ``eq=False``: compared only by identity."""

    frame: Frame
    transmitter: NodeId
    start: float
    end: float
    position: "tuple[float, float]"


@dataclass(slots=True, eq=False)
class _Reception:
    """One frame arriving at one receiver.

    ``eq=False`` so ``list.remove`` in the end-of-air-time completion
    compares by identity instead of running the generated field-by-field
    (and packet-payload-deep) ``__eq__`` against every co-active reception.
    """

    frame: Frame
    transmitter: NodeId
    receiver: NodeId
    start: float
    end: float
    collided: bool = False


@dataclass(slots=True)
class ChannelStats:
    """Channel-wide counters (collision accounting feeds Fig. 3)."""

    transmissions: int = 0
    receptions_started: int = 0
    receptions_delivered: int = 0
    collisions: int = 0
    #: Receptions suppressed by the fault layer (blackout/partition/crash/loss).
    fault_suppressed: int = 0


class Channel:
    """The shared medium connecting every attached MAC."""

    def __init__(
        self,
        simulator: Simulator,
        phy: PhyConfig,
        *,
        max_node_speed: float = DEFAULT_MAX_NODE_SPEED,
        use_spatial_index: bool = True,
        use_reception_memo: bool = True,
        use_airtime_memo: bool = True,
        use_object_pool: bool = True,
        use_grid_prefilter: bool = True,
        use_batch_receptions: bool = True,
    ) -> None:
        self._simulator = simulator
        self._phy = phy
        self._listeners: Dict[NodeId, RadioListener] = {}
        # Per-listener bound methods, prebound at attach: the reception loop
        # calls both once per receiver per transmission, and building a
        # bound method through two attribute walks each time is measurable
        # at millions of receptions.
        self._radio_receive: Dict[NodeId, Callable[[Frame, NodeId], None]] = {}
        self._is_transmitting: Dict[NodeId, Callable[[], bool]] = {}
        # Attach index per node: candidate sets from the grid are re-ordered
        # by it so neighbour lists match the brute-force scan exactly.
        self._attach_order: Dict[NodeId, int] = {}
        # Min-heap of (end_time, sequence, transmission); lazily pruned.
        self._active_transmissions: List[Tuple[float, int, _Transmission]] = []
        self._transmission_seq = 0
        self._active_receptions: Dict[NodeId, List[_Reception]] = {}
        # Position cache, valid only while simulator.now == self._cache_time.
        self._cache_time: float = -1.0
        self._positions: Dict[NodeId, Tuple[float, float]] = {}
        # Last exactly-computed position per node: (x, y, exact_until).  The
        # third element is the latest time at which the coordinates are
        # still known to be exact: the computation time for a moving node,
        # but the pause leg's departure time when the mobility segment says
        # the node is sitting still — so range predicates see *zero* drift
        # for paused nodes (the bulk of the paper's high-pause-time trials)
        # and interpolate only when genuinely uncertain.  Range predicates
        # clamp a negative age to zero drift; see _nodes_in_range_of /
        # is_busy_near.
        self._last_exact: Dict[NodeId, Tuple[float, float, float]] = {}
        # Spatial index over a position snapshot taken at _grid_time.
        self._use_spatial_index = use_spatial_index
        self._max_node_speed = max(float(max_node_speed), 0.0)
        self._grid = SpatialGrid(phy.reception_range)
        self._grid_time: float = 0.0
        self._grid_dirty = True
        # Rebuild once queries would have to inflate their radius by more
        # than this.  A quarter range lets a 20 m/s node age a snapshot for
        # ~3 simulated seconds; with the grid prefilter on, a tenth keeps
        # the snapshot-coordinate ambiguity band narrow (rebuilds are O(N)
        # and trivially cheap next to the queries they sharpen).
        self._use_grid_prefilter = use_grid_prefilter
        self._stale_budget = (
            0.1 if use_grid_prefilter else 0.25
        ) * phy.reception_range
        # Exact fast paths (see repro.sim.tuning for the exactness argument
        # of each); every one of them can be disabled independently and the
        # trial outcome is bit-identical either way.
        self._use_reception_memo = use_reception_memo
        self._use_object_pool = use_object_pool
        self._use_batch_receptions = use_batch_receptions
        # Reception sets per origin node, valid only at _memo_time.
        self._reception_memo: Dict[NodeId, List[NodeId]] = {}
        self._memo_time: float = -1.0
        # Air time per distinct packet size (pure in size_bytes).
        self._airtime_memo: Optional[Dict[int, float]] = (
            {} if use_airtime_memo else None
        )
        # Free list of _Reception records (recycled at end-of-air-time).
        self._reception_pool: List[_Reception] = []
        # Mobility segment providers (node -> segment_for) and the cached
        # active segment per node: position interpolation evaluated locally
        # from seven floats instead of a call chain into the mobility model
        # per cache miss.  See repro.sim.mobility.Segment.
        self._segment_providers: Dict[NodeId, Callable[[float], object]] = {}
        self._segment_cache: Dict[NodeId, tuple] = {}
        # Fault-injection state (repro.sim.faults.ChannelFaults), installed
        # only when the scenario declares faults; None keeps the reception
        # loop on its original instruction sequence (bit-identity contract).
        self._faults = None
        # Finite propagation delay (s/m).  Zero routes transmit/carrier-sense
        # through the original instantaneous-propagation code paths
        # unchanged; positive switches to the delayed variants below (a
        # model change, held to the science gate — see PhyConfig).
        self._pd = phy.propagation_delay_s_per_m
        # Transmission observer for the windowed process mode: called as
        # tap(transmitter, frame, now) for every frame put on the air.
        # Only consulted on the delayed paths (the windowed mode requires a
        # finite delay), so the instantaneous hot path gains no branch.
        self._transmit_tap = None
        # Sharded-PDES probe (repro.sim.pdes.ShardedSimulator), installed
        # only under engine_backend="sharded": deliveries switch the
        # delivery context to the receiver's shard and cross-seam
        # receptions are counted as boundary events.  None under the
        # serial backend.
        self._pdes = None
        # Frozen-backoff sleepers: node -> mutable [horizon_hint, on_idle]
        # pairs, woken by the idle-edge check at the end of each
        # transmission's completion event (see freeze()).
        self._sleepers: Dict[NodeId, list] = {}
        self.stats = ChannelStats()

    # -- membership -------------------------------------------------------------

    def attach(self, listener: RadioListener) -> None:
        """Register a node's MAC with the channel."""
        self._listeners[listener.node_id] = listener
        self._radio_receive[listener.node_id] = listener.radio_receive
        self._is_transmitting[listener.node_id] = listener.is_transmitting
        self._attach_order[listener.node_id] = len(self._attach_order)
        self._active_receptions.setdefault(listener.node_id, [])
        self._grid_dirty = True
        self._positions.pop(listener.node_id, None)
        self._last_exact.pop(listener.node_id, None)
        self._segment_providers.pop(listener.node_id, None)
        self._segment_cache.pop(listener.node_id, None)
        self._reception_memo.clear()

    def register_segment_provider(
        self, node_id: NodeId, provider: Callable[[float], object]
    ) -> None:
        """Let the channel interpolate ``node_id``'s position locally.

        ``provider(t)`` must return a :data:`repro.sim.mobility.Segment`
        covering ``t`` (or ``None`` to decline), and the node's position
        must follow that segment exactly — true for the built-in mobility
        models, registered by ``build_network`` when the
        ``mobility_segments`` fast path is on.  The listener's ``position()``
        remains the fallback and the reference behaviour.
        """
        self._segment_providers[node_id] = provider
        self._segment_cache.pop(node_id, None)

    def install_faults(self, faults) -> None:
        """Attach the trial's :class:`~repro.sim.faults.ChannelFaults` state.

        Once installed, every candidate reception consults
        ``faults.blocked(...)`` — an O(active faults) check that suppresses
        the reception entirely (no collision, no delivery) when a fault
        window covers the link.
        """
        self._faults = faults

    def install_pdes(self, simulator) -> None:
        """Attach the sharded backend's boundary-event probe.

        ``simulator`` must expose ``deliver_context`` / ``set_node_context``
        (:class:`~repro.sim.pdes.ShardedSimulator`).
        The probe only switches delivery contexts and counts seam
        crossings; it changes no schedule entry and no RNG draw, so a
        sharded trial stays bit-identical to a serial one.
        """
        self._pdes = simulator

    def set_transmit_tap(self, tap) -> None:
        """Observe every frame put on the air: ``tap(transmitter, frame, now)``.

        The windowed process mode (:mod:`repro.sim.pdes`) installs one per
        worker to record its owned shard's transmissions for barrier
        exchange.  Requires the finite-propagation-delay channel; the
        instantaneous paths never consult it.
        """
        self._transmit_tap = tap

    def mute(self, node_id: NodeId) -> None:
        """Permanently drop deliveries to ``node_id``'s radio.

        The windowed process mode replicates the full node population in
        every worker but executes only the home strip's protocol stacks;
        muting the foreign replicas keeps their radios as pure geometry
        (they still occupy the medium for carrier sense and collisions)
        without processing frames whose authoritative copies run in another
        worker.  Replacing the prebound callback costs the serial delivery
        path nothing.
        """
        self._radio_receive[node_id] = _discard_frame

    @property
    def faults(self):
        """The installed :class:`~repro.sim.faults.ChannelFaults` (or None)."""
        return self._faults

    @property
    def phy(self) -> PhyConfig:
        """The shared physical-layer configuration."""
        return self._phy

    def airtime(self, frame: Frame) -> float:
        """``phy.transmission_time(frame)``, memoised per packet size.

        The air time is a pure function of ``frame.packet.size_bytes``; a
        trial sees a handful of distinct sizes (the CBR payload plus the
        control-packet sizes) but computes the time hundreds of thousands of
        times.
        """
        memo = self._airtime_memo
        if memo is None:
            return self._phy.transmission_time(frame)
        size = frame.packet.size_bytes
        duration = memo.get(size)
        if duration is None:
            duration = self._phy.transmission_time(frame)
            memo[size] = duration
        return duration

    # -- position cache ----------------------------------------------------------

    def invalidate_positions(self) -> None:
        """Forget cached positions and the grid snapshot.

        Needed only if a listener's position changes by some means other than
        the simulation clock advancing (e.g. a test harness teleporting a
        node); normal mobility models never require it.
        """
        self._cache_time = -1.0
        self._positions.clear()
        self._last_exact.clear()
        self._grid_dirty = True
        # All of these derive from cached positions / drift bounds; a
        # teleport invalidates them with everything else.
        self._reception_memo.clear()
        self._memo_time = -1.0
        self._segment_cache.clear()

    def _position_of(self, node_id: NodeId) -> Tuple[float, float]:
        """``node_id``'s position now, interpolated at most once per timestamp.

        Cache misses evaluate the node's registered mobility segment in
        place (expression-for-expression the mobility model's own fast
        path, so the floats are identical) and only fall back to the
        listener's ``position()`` call chain when no segment covers ``now``.
        """
        now = self._simulator.now
        if now != self._cache_time:
            self._positions.clear()
            self._cache_time = now
        position = self._positions.get(node_id)
        if position is None:
            segment = self._segment_cache.get(node_id)
            if segment is None or not (segment[0] <= now <= segment[2]):
                provider = self._segment_providers.get(node_id)
                segment = provider(now) if provider is not None else None
                if segment is not None:
                    self._segment_cache[node_id] = segment
            if segment is not None:
                # Inlined RandomWaypointMobility.position_at_xy over the
                # seven segment floats.
                depart = segment[1]
                if now <= depart:
                    # Mid-pause: the position stays exact until departure.
                    position = (segment[3], segment[4])
                    self._positions[node_id] = position
                    self._last_exact[node_id] = (position[0], position[1], depart)
                    return position
                if now >= segment[2]:
                    position = (segment[5], segment[6])
                else:
                    travel = segment[2] - depart
                    fraction = (now - depart) / travel if travel > 0 else 1.0
                    fraction = min(max(fraction, 0.0), 1.0)
                    sx = segment[3]
                    sy = segment[4]
                    position = (
                        sx + (segment[5] - sx) * fraction,
                        sy + (segment[6] - sy) * fraction,
                    )
            else:
                position = self._listeners[node_id].position()
            self._positions[node_id] = position
            self._last_exact[node_id] = (position[0], position[1], now)
        return position

    # -- geometry -----------------------------------------------------------------

    @staticmethod
    def _distance(a: "tuple[float, float]", b: "tuple[float, float]") -> float:
        dx, dy = a[0] - b[0], a[1] - b[1]
        return (dx * dx + dy * dy) ** 0.5

    def _grid_slack(self) -> float:
        """Refresh the grid snapshot if too stale; return the drift bound."""
        now = self._simulator.now
        slack = self._max_node_speed * (now - self._grid_time)
        if self._grid_dirty or slack > self._stale_budget or slack < 0.0:
            self._grid.build(
                (node_id, *self._position_of(node_id)) for node_id in self._listeners
            )
            self._grid_time = now
            self._grid_dirty = False
            slack = 0.0
        return slack

    def _nodes_in_range_of(
        self, origin: Tuple[float, float], exclude: NodeId
    ) -> List[NodeId]:
        """Nodes within reception range of ``origin``, in attach order.

        Exact: candidates come from the (possibly stale) grid with the radius
        inflated by the drift bound, then are filtered against fresh cached
        positions with the same inclusive distance test the brute-force scan
        uses.
        """
        reception_range = self._phy.reception_range
        ox, oy = origin
        result: List[NodeId] = []
        if self._use_spatial_index:
            slack = self._grid_slack()
            now = self._simulator.now
            known_get = self._last_exact.get
            max_speed = self._max_node_speed
            position_of = self._position_of
            append = result.append
            prefilter = self._use_grid_prefilter
            for bucket in self._grid.candidate_buckets(
                origin, reception_range + slack
            ):
                for node_id, bx, by in bucket:
                    if node_id == exclude:
                        continue
                    if prefilter:
                        # First filter from the snapshot coordinates already
                        # in hand: the node has drifted at most `slack`
                        # since the snapshot, so a snapshot distance at
                        # least that far inside (outside) the range decides
                        # membership with no per-node lookup at all.
                        dx = bx - ox
                        dy = by - oy
                        snapshot_distance = (dx * dx + dy * dy) ** 0.5
                        if snapshot_distance + slack <= reception_range:
                            append(node_id)
                            continue
                        if snapshot_distance > reception_range + slack:
                            continue
                    # Decide d <= range from the last exact position when
                    # the drift bound allows; interpolate only in the
                    # ambiguous band.  A negative age means the position is
                    # exact until a future time (paused node): zero drift.
                    known = known_get(node_id)
                    if known is not None:
                        # Clamp the age, not the product: an age of -inf
                        # (node static forever) times a zero speed bound
                        # would otherwise be NaN.
                        age = now - known[2]
                        drift = max_speed * age if age > 0.0 else 0.0
                        dx = known[0] - ox
                        dy = known[1] - oy
                        distance = (dx * dx + dy * dy) ** 0.5
                        if distance + drift <= reception_range:
                            append(node_id)
                            continue
                        if distance - drift > reception_range:
                            continue
                    position = position_of(node_id)
                    dx = position[0] - ox
                    dy = position[1] - oy
                    if (dx * dx + dy * dy) ** 0.5 <= reception_range:
                        append(node_id)
            result.sort(key=self._attach_order.__getitem__)
            return result
        for node_id in self._listeners:
            if node_id == exclude:
                continue
            position = self._position_of(node_id)
            dx = position[0] - ox
            dy = position[1] - oy
            if (dx * dx + dy * dy) ** 0.5 <= reception_range:
                result.append(node_id)
        return result

    def _reception_set(self, node_id: NodeId) -> List[NodeId]:
        """Nodes within reception range of ``node_id``, memoised per timestamp.

        Positions are pure functions of the clock and
        :meth:`_nodes_in_range_of` is deterministic in them, so two queries
        for the same node at one timestamp must agree — which is exactly
        what a flood burst does when several relays fire in the same slot.
        Callers must not mutate the returned list.
        """
        if not self._use_reception_memo:
            origin = self._position_of(node_id)
            return self._nodes_in_range_of(origin, exclude=node_id)
        now = self._simulator.now
        if now != self._memo_time:
            self._reception_memo.clear()
            self._memo_time = now
        cached = self._reception_memo.get(node_id)
        if cached is None:
            origin = self._position_of(node_id)
            cached = self._nodes_in_range_of(origin, exclude=node_id)
            self._reception_memo[node_id] = cached
        return cached

    def neighbors_of(self, node_id: NodeId) -> List[NodeId]:
        """Nodes currently within reception range of ``node_id``."""
        return list(self._reception_set(node_id))

    def in_range(self, a: NodeId, b: NodeId) -> bool:
        """True when nodes ``a`` and ``b`` can currently hear each other."""
        return (
            self._distance(self._position_of(a), self._position_of(b))
            <= self._phy.reception_range
        )

    # -- carrier sense ---------------------------------------------------------------

    def is_busy_near(self, node_id: NodeId) -> bool:
        """True when a transmission is in progress within carrier-sense range."""
        return self.busy_horizon(node_id) > self._simulator.now

    def busy_horizon(self, node_id: NodeId) -> float:
        """Latest end time of any in-progress transmission within carrier-sense
        range of ``node_id``, or ``0.0`` when the medium is idle there.

        The MAC's freeze/resume backoff reads it: a return value greater
        than ``now`` means *frozen until then*; a value at or below ``now``
        means the medium is idle and the countdown may run.  The horizon is
        evaluated against
        exact current positions — a transmission outside carrier-sense range
        now may drift into range later, and a new transmission may start
        before the horizon, so callers must re-check at every wake-up (the
        MAC does).  Expired transmissions are pruned first, so a wake-up
        scheduled *at* the horizon observes an idle medium.

        The returned value is *exact* (each in-or-out-of-range decision is
        settled conservatively from the last exact position plus a drift
        bound, with fresh interpolation only inside the ambiguity band), and
        deliberately independent of every FastPaths flag, so a trial is
        bit-identical across FastPaths settings.

        Under the finite-delay channel the horizon is the latest trailing-
        edge *arrival* (``end + delay * distance``), and deadlock-freedom
        still holds: every transmission's completion event runs at
        ``end + delay * cs_range``, at or after any node's horizon for it,
        and wake-checks the sleepers.
        """
        now = self._simulator.now
        if self._pd:
            return self._busy_horizon_delayed(node_id, now)
        active = self._active_transmissions
        while active and active[0][0] <= now:
            heapq.heappop(active)
        if not active:
            return 0.0
        carrier_sense_range = self._phy.carrier_sense_range
        known = self._last_exact.get(node_id)
        if known is not None:
            age = now - known[2]
            # Clamp the age, not the product: an age of -inf (node static
            # forever) times a zero speed bound would otherwise be NaN.
            drift = self._max_node_speed * age if age > 0.0 else 0.0
            px = known[0]
            py = known[1]
            horizon = 0.0
            ambiguous_end = 0.0
            for _, _, transmission in active:
                end = transmission.end
                if end <= horizon:
                    continue
                tx, ty = transmission.position
                dx = tx - px
                dy = ty - py
                distance = (dx * dx + dy * dy) ** 0.5
                if distance + drift <= carrier_sense_range:
                    horizon = end
                elif distance - drift <= carrier_sense_range and end > ambiguous_end:
                    ambiguous_end = end
            if ambiguous_end <= horizon:
                # Every undecided transmission ends at or before a certainly
                # in-range one: the exact answer cannot differ.
                return horizon
        px, py = self._position_of(node_id)
        horizon = 0.0
        for _, _, transmission in active:
            end = transmission.end
            if end <= horizon:
                continue
            tx, ty = transmission.position
            dx = tx - px
            dy = ty - py
            if (dx * dx + dy * dy) ** 0.5 <= carrier_sense_range:
                horizon = end
        return horizon

    def _busy_horizon_delayed(self, node_id: NodeId, now: float) -> float:
        """:meth:`busy_horizon` under finite propagation delay.

        A transmission occupies the medium at a node from its start until
        its trailing edge *arrives*: ``end + delay * distance``.  The
        leading edge is modelled conservatively as the transmit instant
        (physically it arrives ``delay * distance`` later; at realistic
        delays that is sub-microsecond, and sensing early only defers — it
        never misses a busy medium).  Heap entries are keyed by the latest
        possible trailing-edge arrival (``end + delay * cs_range``), so the
        lazy prune below is exact for every node.
        """
        active = self._active_transmissions
        while active and active[0][0] <= now:
            heapq.heappop(active)
        if not active:
            return 0.0
        pd = self._pd
        carrier_sense_range = self._phy.carrier_sense_range
        px, py = self._position_of(node_id)
        horizon = 0.0
        for _, _, transmission in active:
            tx, ty = transmission.position
            dx = tx - px
            dy = ty - py
            distance = (dx * dx + dy * dy) ** 0.5
            if distance > carrier_sense_range:
                continue
            sense_end = transmission.end + pd * distance
            if sense_end > horizon and sense_end > now:
                horizon = sense_end
        return horizon

    def freeze(
        self, node_id: NodeId, horizon: float, on_idle: Callable[[], None]
    ) -> None:
        """Register a frozen-backoff sleeper to be woken at an idle edge.

        The MAC calls this instead of scheduling its own wake-up when
        :meth:`busy_horizon` says the medium is busy: the
        medium near a frozen node can only become idle when a transmission
        ends (mobility-induced idleness is picked up at the next end, a few
        air times later at most), and every transmission end runs a finish
        event here in the channel — so the finish loop wake-checks the
        sleepers and calls ``on_idle`` for those whose horizon has passed.
        This replaces the refreeze event churn (a wake-up scheduled at a
        horizon that a newer transmission has since extended) with one
        inline check per (finish, expired-hint sleeper) pair and makes the
        model *more* faithful: a node resumes at the true first idle edge,
        not at a stale horizon estimate.

        ``horizon`` — the :meth:`busy_horizon` value the caller just
        computed — is kept as a wake hint: finishes before it cannot be
        this node's idle edge (the certifying transmission is still on the
        air), so the per-finish loop skips the sleeper with one float
        compare.  When a finish at or past the hint still finds the medium
        busy (a newer transmission extended it), the hint is advanced in
        place instead of waking anyone.  ``on_idle`` runs only at a
        *verified* idle edge, so it draws its backoff without re-checking.

        One registration per node (the MAC serialises on its head-of-line
        frame); re-registering overwrites.  A stale callback — the node
        crashed while frozen — is popped at the next idle wake-check and
        no-ops on its epoch guard.  Deadlock-free: a node only freezes when
        an in-range transmission is active, and that transmission's finish
        (like every finish) wake-checks the sleepers.
        """
        self._sleepers[node_id] = [horizon, on_idle]

    # -- transmission ---------------------------------------------------------------

    def transmit(
        self,
        transmitter: NodeId,
        frame: Frame,
        on_complete: Optional[Callable[[bool], None]] = None,
    ) -> float:
        """Put ``frame`` on the air from ``transmitter``.

        Returns the air time.  ``on_complete`` (used for unicast frames) is
        called at the end of the transmission with ``True`` when the intended
        receiver decoded the frame successfully — the idealised 802.11 ACK.
        """
        if self._pd:
            return self._transmit_delayed(transmitter, frame, on_complete)
        now = self._simulator.now
        duration = self.airtime(frame)
        origin = self._position_of(transmitter)

        transmission = _Transmission(frame, transmitter, now, now + duration, origin)
        active = self._active_transmissions
        while active and active[0][0] <= now:
            heapq.heappop(active)
        self._transmission_seq += 1
        heapq.heappush(active, (now + duration, self._transmission_seq, transmission))
        self.stats.transmissions += 1

        receptions: List[_Reception] = []
        receptions_append = receptions.append
        stats = self.stats
        is_transmitting = self._is_transmitting
        active_receptions = self._active_receptions
        pool = self._reception_pool if self._use_object_pool else None
        end = now + duration
        faults = self._faults
        pdes = self._pdes
        position_of = self._position_of
        receiver_ids = self._reception_set(transmitter)
        if self._use_batch_receptions:
            # Loop fission over the whole reception set (exactness argument
            # in repro.sim.tuning): the fault filter consumes its draws in
            # reception-set order, the half-duplex flags are pure state
            # reads batched in one pass, and overlap marking plus record
            # materialisation run in a final pass over the surviving set.
            if faults is not None:
                kept: List[NodeId] = []
                kept_append = kept.append
                for receiver_id in receiver_ids:
                    if faults.blocked(transmitter, receiver_id, position_of):
                        # The frame never reaches this radio: no reception
                        # record, no collision.
                        stats.fault_suppressed += 1
                    else:
                        kept_append(receiver_id)
                receiver_ids = kept
            collided_flags = [
                is_transmitting[receiver_id]() for receiver_id in receiver_ids
            ]
            for index, receiver_id in enumerate(receiver_ids):
                if pool:
                    reception = pool.pop()
                    reception.frame = frame
                    reception.transmitter = transmitter
                    reception.receiver = receiver_id
                    reception.start = now
                    reception.end = end
                    reception.collided = False
                else:
                    reception = _Reception(frame, transmitter, receiver_id, now, end)
                collided = collided_flags[index]
                actives = active_receptions[receiver_id]
                for other in actives:
                    if other.end > now:
                        other.collided = True
                        collided = True
                reception.collided = collided
                actives.append(reception)
                receptions_append(reception)
        else:
            for receiver_id in receiver_ids:
                if faults is not None and faults.blocked(
                    transmitter, receiver_id, position_of
                ):
                    # The frame never reaches this radio: no reception record,
                    # no collision.
                    stats.fault_suppressed += 1
                    continue
                if pool:
                    reception = pool.pop()
                    reception.frame = frame
                    reception.transmitter = transmitter
                    reception.receiver = receiver_id
                    reception.start = now
                    reception.end = end
                    reception.collided = False
                else:
                    reception = _Reception(frame, transmitter, receiver_id, now, end)
                # Half-duplex: a node that is itself transmitting cannot receive.
                collided = is_transmitting[receiver_id]()
                # Overlap with any reception already in progress collides both.
                actives = active_receptions[receiver_id]
                for other in actives:
                    if other.end > now:
                        other.collided = True
                        collided = True
                reception.collided = collided
                actives.append(reception)
                receptions_append(reception)
        stats.receptions_started += len(receptions)

        radio_receive = self._radio_receive
        swap_remove = self._use_batch_receptions

        def finish() -> None:
            delivered_to_target = False
            is_unicast = not frame.is_broadcast
            target = frame.receiver
            collisions = 0
            delivered = 0
            # Re-read the fault state: a node that crashed *during* the air
            # time loses the frame (and the sender's idealised ACK with it).
            down = None
            current_faults = self._faults
            if current_faults is not None and current_faults.down:
                down = current_faults.down
            for reception in receptions:
                receiver = reception.receiver
                # Every reception was appended in the loop above and is only
                # ever removed here, so it is always present.
                if swap_remove:
                    # Exact despite reordering the list: active-reception
                    # lists are only consumed by the overlap scan, which
                    # marks every overlapping pair regardless of order.
                    records = active_receptions[receiver]
                    last = records.pop()
                    if last is not reception:
                        records[records.index(reception)] = last
                else:
                    active_receptions[receiver].remove(reception)
                if reception.collided:
                    collisions += 1
                    continue
                if down is not None and receiver in down:
                    stats.fault_suppressed += 1
                    continue
                delivered += 1
                if pdes is not None:
                    # Cross-shard delivery: the receiver's follow-on events
                    # belong to its owner shard (and a seam crossing is a
                    # boundary event).
                    pdes.deliver_context(transmitter, receiver)
                radio_receive[receiver](frame, transmitter)
                if is_unicast and receiver == target:
                    delivered_to_target = True
            stats.collisions += collisions
            stats.receptions_delivered += delivered
            if pool is not None:
                # The records are out of every active list and the local
                # references die with this closure: recycle them.
                pool.extend(receptions)
            if pdes is not None:
                # The completion callback is the sender's: run it (and the
                # stats that follow) back in the transmitter's shard.
                pdes.set_node_context(transmitter)
            if on_complete is not None:
                on_complete(delivered_to_target)
            # Runs last so a retry scheduled by on_complete contends from
            # this same idle edge like every woken sleeper.
            self._wake_sleepers(pdes)

        self._simulator.call_in(duration, finish, 1)
        return duration

    def _transmit_delayed(
        self,
        transmitter: NodeId,
        frame: Frame,
        on_complete: Optional[Callable[[bool], None]] = None,
    ) -> float:
        """:meth:`transmit` under the finite-propagation-delay channel.

        Each receiver's copy of the frame occupies ``[start + delay * d,
        end + delay * d]`` at distance ``d``, so a nearer receiver always
        finishes decoding no later than a farther one and collision overlap
        is judged per-receiver against the *delayed* intervals.  Deliveries
        are per-receiver events at each trailing-edge arrival (so delivery
        order follows distance), and a single completion event at
        ``end + delay * cs_range`` — after every possible delivery and
        sense edge — runs the sender's ACK callback and the sleeper
        wake-check.  Half-duplex and fault checks are evaluated at the
        transmit instant like the instantaneous model (the leading-edge
        approximation; sub-microsecond at physical delays).
        """
        simulator = self._simulator
        now = simulator.now
        duration = self.airtime(frame)
        origin = self._position_of(transmitter)
        pd = self._pd
        phy = self._phy
        end = now + duration

        transmission = _Transmission(frame, transmitter, now, end, origin)
        active = self._active_transmissions
        # Heap key: the latest instant any node can still sense this frame
        # (trailing edge at the carrier-sense rim), so the lazy prunes in
        # the delayed query paths never drop a still-audible transmission.
        latest_sense = end + pd * phy.carrier_sense_range
        while active and active[0][0] <= now:
            heapq.heappop(active)
        self._transmission_seq += 1
        heapq.heappush(active, (latest_sense, self._transmission_seq, transmission))
        self.stats.transmissions += 1
        if self._transmit_tap is not None:
            self._transmit_tap(transmitter, frame, now)

        stats = self.stats
        is_transmitting = self._is_transmitting
        active_receptions = self._active_receptions
        pool = self._reception_pool if self._use_object_pool else None
        faults = self._faults
        pdes = self._pdes
        position_of = self._position_of
        radio_receive = self._radio_receive
        call_in = simulator.call_in
        ox, oy = origin
        receptions: List[_Reception] = []
        receptions_append = receptions.append
        # Mutable cell shared by the per-receiver deliveries and the
        # completion event: [delivered_to_target].
        outcome = [False]
        is_unicast = not frame.is_broadcast
        target = frame.receiver

        def deliver(reception: _Reception) -> None:
            receiver = reception.receiver
            records = active_receptions[receiver]
            last = records.pop()
            if last is not reception:
                records[records.index(reception)] = last
            if reception.collided:
                stats.collisions += 1
                return
            current_faults = self._faults
            if (
                current_faults is not None
                and current_faults.down
                and receiver in current_faults.down
            ):
                # Crashed while the frame was in flight: the radio is gone.
                stats.fault_suppressed += 1
                return
            stats.receptions_delivered += 1
            if pdes is not None:
                pdes.deliver_context(transmitter, receiver)
            radio_receive[receiver](frame, transmitter)
            if is_unicast and receiver == target:
                outcome[0] = True

        for receiver_id in self._reception_set(transmitter):
            if faults is not None and faults.blocked(
                transmitter, receiver_id, position_of
            ):
                stats.fault_suppressed += 1
                continue
            rx, ry = position_of(receiver_id)
            dx = rx - ox
            dy = ry - oy
            flight = pd * (dx * dx + dy * dy) ** 0.5
            arrival = now + flight
            rec_end = end + flight
            if pool:
                reception = pool.pop()
                reception.frame = frame
                reception.transmitter = transmitter
                reception.receiver = receiver_id
                reception.start = arrival
                reception.end = rec_end
                reception.collided = False
            else:
                reception = _Reception(
                    frame, transmitter, receiver_id, arrival, rec_end
                )
            collided = is_transmitting[receiver_id]()
            actives = active_receptions[receiver_id]
            for other in actives:
                if other.end > arrival and other.start < rec_end:
                    other.collided = True
                    collided = True
            reception.collided = collided
            actives.append(reception)
            receptions_append(reception)
            call_in(rec_end - now, lambda r=reception: deliver(r), 1)
        stats.receptions_started += len(receptions)

        def complete() -> None:
            if pool is not None:
                # Every delivery event has run (they were scheduled earlier
                # at times <= this one): the records are free.
                pool.extend(receptions)
            if pdes is not None:
                pdes.set_node_context(transmitter)
            if on_complete is not None:
                on_complete(outcome[0])
            self._wake_sleepers(pdes)

        # At or after every delivery (reception range <= cs range) and every
        # node's sense horizon for this frame; scheduled after the delivery
        # events above, so equal-time ties still run deliveries first.
        call_in(duration + pd * phy.carrier_sense_range, complete, 1)
        return duration

    def _wake_sleepers(self, pdes) -> None:
        """Idle-edge wake-check for frozen-backoff sleepers (see freeze()).

        Called last by every transmission's completion event.  Value
        mutation is legal mid-iteration; deletions are batched after it.
        """
        sleepers = self._sleepers
        if not sleepers:
            return
        wake_now = self._simulator.now
        active = self._active_transmissions
        while active and active[0][0] <= wake_now:
            heapq.heappop(active)
        woke = None
        if not active:
            woke = list(sleepers)
        else:
            busy_horizon = self.busy_horizon
            for node_id, entry in sleepers.items():
                if entry[0] > wake_now:
                    continue
                horizon = busy_horizon(node_id)
                if horizon > wake_now:
                    entry[0] = horizon
                elif woke is None:
                    woke = [node_id]
                else:
                    woke.append(node_id)
        if woke is not None:
            for node_id in woke:
                on_idle = sleepers.pop(node_id)[1]
                if pdes is not None:
                    pdes.set_node_context(node_id)
                on_idle()
