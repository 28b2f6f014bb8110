"""Machinery shared by the routing protocols.

All four on-demand protocols in the paper share the same outer skeleton:

* a **route-request cache** that remembers which ``(source, rreq_id)``
  computations this node has already participated in, with the
  passive / engaged / active states of LDR and SRP, the cached reverse-path
  last hop and any per-computation ordering information;
* a **route-discovery controller** per destination at the source: it numbers
  RREQs, runs the retry timer (``2 * ttl * latency`` in the paper), counts
  attempts and finally gives up, dropping buffered data.

Keeping these here means the per-protocol modules contain only what actually
differs: the loop-prevention state (sequence numbers, feasible distances,
fraction orderings) and the reply/accept conditions.

Every protocol drives its periodic maintenance with :class:`PeriodicTimer`,
and the link-state floods (OLSR's TCs, LSR's LSAs) dedup on
:class:`SeenSequences`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = [
    "ComputationState",
    "RreqCacheEntry",
    "RreqCache",
    "DiscoveryController",
    "DiscoveryState",
    "PeriodicTimer",
    "SeenSequences",
    "CONTROL_SIZES",
]

NodeId = Hashable

#: Nominal control-packet sizes in bytes (IP + UDP + protocol header), used
#: only for transmission-time computation.
CONTROL_SIZES = {
    "rreq": 52,
    "rrep": 44,
    "rerr": 32,
    "hello": 40,
    "tc": 60,
}


class PeriodicTimer:
    """One repeating timer event driving a per-node maintenance scan.

    Every protocol in the repository aggregates its per-entry timeouts
    (route lifetimes, RREQ-cache ages, discovery retries that expired) into
    one periodic tick per node instead of one timer event per entry —
    the timer-wheel idea at its coarsest.  This class is that tick: it
    calls ``callback(now)`` every ``interval`` seconds, rescheduling itself
    *after* the callback exactly as the protocols' hand-rolled maintenance
    loops did (so event sequence numbers, and with them same-instant
    tie-breaking, are unchanged).  ``clock`` is any
    :class:`~repro.runtime.base.Clock` — the simulator in a trial, the
    asyncio clock live.

    ``start(first_delay=...)`` supports the desynchronised first firings
    the periodic protocols use (OLSR's per-node hello/TC offsets).
    """

    __slots__ = ("_clock", "_interval", "_callback")

    def __init__(self, clock, interval: float, callback) -> None:
        self._clock = clock
        self._interval = interval
        self._callback = callback

    def start(self, first_delay: Optional[float] = None) -> None:
        """Schedule the first tick (default: one full interval from now)."""
        delay = self._interval if first_delay is None else first_delay
        self._clock.schedule_in(delay, self._tick)

    def _tick(self) -> None:
        self._callback(self._clock.now)
        self._clock.schedule_in(self._interval, self._tick)


class SeenSequences:
    """The ``(origin, seq)`` pairs a flooding node has already handled.

    Exactly the membership of a ``set`` of tuples — out-of-order and
    duplicate arrivals included — stored as one int bitmask per origin
    (bit ``seq`` set once seen).  Link-state floods number each origin's
    advertisements 1, 2, 3, …, so a node's whole dedup memory is one small
    int per origin instead of one tuple per flood it ever relayed, and
    nothing is forgotten to keep it bounded.  A mask costs one bit per
    sequence number up to the highest seen.
    """

    __slots__ = ("_masks",)

    def __init__(self) -> None:
        self._masks: Dict[NodeId, int] = {}

    def add(self, origin: NodeId, seq: int) -> bool:
        """Record ``(origin, seq)``; True when it was not seen before."""
        if seq < 0:
            raise ValueError(f"sequence number must be >= 0, got {seq!r}")
        masks = self._masks
        mask = masks.get(origin, 0)
        bit = 1 << seq
        if mask & bit:
            return False
        masks[origin] = mask | bit
        return True

    def clear(self) -> None:
        """Forget everything (a crashed node's volatile state)."""
        self._masks.clear()


class ComputationState(enum.Enum):
    """LDR/SRP route-computation states for one ``(source, rreq_id)`` pair."""

    PASSIVE = "passive"
    ENGAGED = "engaged"
    ACTIVE = "active"


@dataclass
class RreqCacheEntry:
    """What a node remembers about one route computation it participates in."""

    source: NodeId
    rreq_id: int
    state: ComputationState
    last_hop: Optional[NodeId] = None
    cached_ordering: Any = None
    replied: bool = False
    created_at: float = 0.0


class RreqCache:
    """The per-node table of route computations, keyed by ``(source, rreq_id)``.

    A node enters each computation at most once (Theorem 7's argument for
    control packets not looping), so :meth:`try_engage` refuses a second entry
    for the same key.
    """

    def __init__(self, *, max_age: float = 60.0) -> None:
        self._entries: Dict[Tuple[NodeId, int], RreqCacheEntry] = {}
        self._max_age = max_age

    def state_of(self, source: NodeId, rreq_id: int) -> ComputationState:
        """Current state for the pair; PASSIVE when never seen."""
        entry = self._entries.get((source, rreq_id))
        return entry.state if entry else ComputationState.PASSIVE

    def get(self, source: NodeId, rreq_id: int) -> Optional[RreqCacheEntry]:
        """The cache entry, or ``None`` when the node is passive for the pair."""
        return self._entries.get((source, rreq_id))

    def activate(self, source: NodeId, rreq_id: int, now: float) -> RreqCacheEntry:
        """Record that this node originated the computation (state ACTIVE)."""
        entry = RreqCacheEntry(
            source, rreq_id, ComputationState.ACTIVE, created_at=now
        )
        self._entries[(source, rreq_id)] = entry
        return entry

    def try_engage(
        self,
        source: NodeId,
        rreq_id: int,
        now: float,
        *,
        last_hop: Optional[NodeId],
        cached_ordering: Any = None,
    ) -> Optional[RreqCacheEntry]:
        """Move PASSIVE -> ENGAGED and return the entry; ``None`` if not passive."""
        if self.state_of(source, rreq_id) is not ComputationState.PASSIVE:
            return None
        entry = RreqCacheEntry(
            source,
            rreq_id,
            ComputationState.ENGAGED,
            last_hop=last_hop,
            cached_ordering=cached_ordering,
            created_at=now,
        )
        self._entries[(source, rreq_id)] = entry
        return entry

    def expire(self, now: float) -> None:
        """Drop entries older than the cache lifetime (DELETE_PERIOD).

        Entries are inserted with ``created_at = now`` and never re-keyed,
        so dict insertion order is creation order and the stale entries are
        exactly a prefix: the scan stops at the first live entry instead of
        walking the whole table once per maintenance tick per node.
        """
        entries = self._entries
        stale = []
        max_age = self._max_age
        for key, entry in entries.items():
            if now - entry.created_at <= max_age:
                break
            stale.append(key)
        for key in stale:
            del entries[key]

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class DiscoveryState:
    """The source-side state of one in-progress route discovery."""

    destination: NodeId
    rreq_id: int
    attempts: int = 1
    timer: Any = None


class DiscoveryController:
    """Runs route-discovery attempts and retries for a source node.

    The caller supplies ``send_request(destination, rreq_id, attempt)`` which
    actually floods the RREQ, and ``give_up(destination)`` which is invoked
    when the final retry times out (the protocol then drops buffered data, as
    Procedure 1 prescribes).
    """

    def __init__(
        self,
        clock,
        *,
        send_request: Callable[[NodeId, int, int], None],
        give_up: Callable[[NodeId], None],
        timeout: float = 1.0,
        max_attempts: int = 3,
    ) -> None:
        self._clock = clock
        self._send_request = send_request
        self._give_up = give_up
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._next_rreq_id = 0
        self._active: Dict[NodeId, DiscoveryState] = {}

    def is_active(self, destination: NodeId) -> bool:
        """True while a discovery for ``destination`` is outstanding."""
        return destination in self._active

    def next_rreq_id(self) -> int:
        """A fresh, node-locally unique RREQ identifier."""
        self._next_rreq_id += 1
        return self._next_rreq_id

    def begin(self, destination: NodeId) -> Optional[DiscoveryState]:
        """Start a discovery unless one is already active (Procedure 1)."""
        if self.is_active(destination):
            return None
        state = DiscoveryState(destination, self.next_rreq_id())
        self._active[destination] = state
        self._send_request(destination, state.rreq_id, state.attempts)
        self._arm_timer(state)
        return state

    def _arm_timer(self, state: DiscoveryState) -> None:
        state.timer = self._clock.schedule_in(
            self._timeout * state.attempts, lambda: self._on_timeout(state)
        )

    def _on_timeout(self, state: DiscoveryState) -> None:
        if state.destination not in self._active:
            return
        if state.attempts >= self._max_attempts:
            del self._active[state.destination]
            self._give_up(state.destination)
            return
        state.attempts += 1
        state.rreq_id = self.next_rreq_id()
        self._send_request(state.destination, state.rreq_id, state.attempts)
        self._arm_timer(state)

    def complete(self, destination: NodeId) -> None:
        """A route was found; cancel the retry timer."""
        state = self._active.pop(destination, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()

    def abandon_all(self) -> None:
        """Drop every outstanding discovery without invoking ``give_up``.

        Used by the fault layer when a node crashes: the in-flight
        computations die with the node (their retry timers are cancelled so
        a rebooted node does not resurrect pre-crash solicitations).
        """
        for state in self._active.values():
            if state.timer is not None:
                state.timer.cancel()
        self._active.clear()
