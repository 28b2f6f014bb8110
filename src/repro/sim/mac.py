"""A simplified CSMA/CA MAC with retries and link-layer loss reporting.

The MAC models the parts of 802.11 DCF the paper's evaluation depends on:

* a drop-tail interface queue of bounded length,
* carrier sensing with random binary-exponential backoff,
* unicast frames that are retried up to a retry limit and reported to the
  routing protocol as a *link failure* when every retry fails (the paper's
  protocols — SRP, AODV, DSR, LDR — all use link-layer unicast loss detection
  instead of hello packets),
* broadcast frames sent once with a small random jitter and no retries, and
* per-node MAC drop counters (queue overflows plus retry exhaustion), the
  metric plotted in Fig. 3.

Collisions themselves are decided by the :class:`~repro.sim.channel.Channel`.

Backoff is event-driven freeze/resume — what DCF's frozen backoff counter
does (:class:`_Backoff`): while the medium is busy the MAC schedules **no
events at all** and the channel wakes it at the first verified idle edge, so
a saturated trial costs a handful of events per transmitted frame (8.7 in a
paper-tier OLSR trial).  This is a modelling choice, validated by the
science gate rather than against a slot-by-slot DCF; EXPERIMENTS.md "The
engine floor" states its error bound.

Each (frame, attempt) backoff is one ``__slots__`` object whose bound
methods ``on_idle`` and ``fire`` are what the event queue and
:meth:`~repro.sim.channel.Channel.freeze` hold.  It points at its MAC and
frame and nothing points back, so it dies by reference counting the moment
the last of those callbacks has run: a trial leaves the cyclic garbage
collector nothing to free (``tests/sim/test_gc_free.py``).  Keep it that
way: an ``on_idle``/``fire`` pair of closures that name each other is a
reference cycle per attempt — millions per dense trial — that only the
collector can reclaim, at ~9 % of a trial's wall time.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Hashable, Optional

from .channel import Channel
from .engine import Simulator
from .packet import BROADCAST, Frame, Packet

__all__ = ["Mac", "MacStats"]

_Random = random.Random

NodeId = Hashable

#: Callback signature used to hand received packets up to the routing layer.
ReceiveHandler = Callable[[Packet, NodeId], None]
#: Callback signature for unicast loss: (packet, intended next hop).
FailureHandler = Callable[[Packet, NodeId], None]


@dataclass(slots=True)
class MacStats:
    """Per-node MAC counters."""

    enqueued: int = 0
    transmitted_frames: int = 0
    delivered_unicasts: int = 0
    queue_drops: int = 0
    retry_drops: int = 0
    retries: int = 0
    #: Frames lost to a node crash (fault injection): queued frames dropped at
    #: power-down plus sends attempted while down.  Counted separately so
    #: Fig. 3's congestion-driven drop metric is not polluted by faults.
    fault_drops: int = 0

    @property
    def drops(self) -> int:
        """Total MAC-layer drops (queue overflow + retry exhaustion) — Fig. 3."""
        return self.queue_drops + self.retry_drops


class _Backoff:
    """One event-driven freeze/resume backoff for ``(frame, attempt)``.

    A busy medium costs *no events at all*: the MAC registers ``on_idle``
    as a channel sleeper (:meth:`~repro.sim.channel.Channel.freeze`) and
    the channel's own end-of-transmission events wake it at the first idle
    edge:

    * Medium busy (when :meth:`Mac._attempt` starts it, or when ``fire``
      finds the countdown was interrupted) — freeze: register with the
      channel and wait, with **no RNG draw** (the counter is frozen).
    * Medium idle (at the start, or at the idle edge the channel calls
      ``on_idle`` at) — draw the backoff ``randint(0, w)`` once and count it
      down in a single scheduled event, ``fire``, which transmits if the
      medium is still idle.

    Contention resolution is DCF-shaped: every contender frozen on one
    transmission wakes at the same idle edge and draws an independent
    backoff, so the earliest draw wins the channel and equal draws collide.

    ``epoch`` is the MAC's fault epoch when the attempt began: a power-down
    bumps the MAC's, and every later callback of this backoff no-ops.
    """

    __slots__ = ("mac", "frame", "attempt", "epoch")

    def __init__(self, mac: "Mac", frame: Frame, attempt: int) -> None:
        self.mac = mac
        self.frame = frame
        self.attempt = attempt
        self.epoch = mac._epoch

    def draw(self) -> int:
        """The backoff slot count, ``randint(0, w)`` for this attempt's window.

        The draw goes straight through the primitive ``randint`` bottoms out
        in: ``randint(0, w)`` is exactly ``_randbelow(w + 1)``, and
        ``Random._randbelow(n)`` is the rejection loop over
        ``getrandbits(n.bit_length())``.  Re-running that loop inline with a
        precomputed bit length consumes the identical underlying getrandbits
        draws, so the slot sequence is bit-identical while skipping three
        layers of dispatch per draw.  Only exact for ``random.Random`` itself
        (a subclass could override the primitives), hence the type check.
        """
        mac = self.mac
        rng = mac._rng
        if rng.__class__ is not _Random:
            return rng.randint(0, mac._windows[self.attempt])
        n, bits = mac._draw_ranges[self.attempt]
        getrandbits = rng.getrandbits
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    def on_idle(self) -> None:
        """The channel's wake-up at a *verified* idle edge (and only there),
        so the countdown starts without re-checking the medium."""
        mac = self.mac
        if mac._epoch != self.epoch:
            return
        mac._push(
            (
                self.draw() * mac._slot_time + mac._simulator.now,
                0,
                mac._next_sequence(),
                self.fire,
            )
        )

    def fire(self) -> None:
        """End of the countdown: transmit, or freeze if the medium got busy."""
        mac = self.mac
        if mac._epoch != self.epoch:
            return
        channel = mac._channel
        horizon = channel.busy_horizon(mac.node_id)
        if horizon > mac._simulator.now:
            # Interrupted countdown: freeze; redraw at the next idle edge
            # the channel wakes us at.
            channel.freeze(mac.node_id, horizon, self.on_idle)
        else:
            mac._transmit_frame(self.frame, self.attempt)


class Mac:
    """One node's MAC instance; also the channel's :class:`RadioListener`."""

    def __init__(
        self,
        node_id: NodeId,
        simulator: Simulator,
        channel: Channel,
        rng: random.Random,
        *,
        position_provider: Callable[[], "tuple[float, float]"],
    ) -> None:
        self.node_id = node_id
        self._simulator = simulator
        self._channel = channel
        self._rng = rng
        self._call_in = simulator.call_in
        self._push, self._next_sequence = simulator.hot_scheduler()
        # Free list of Frame objects (recycled once off the air).
        self._frame_pool: "list[Frame]" = []
        self._position_provider = position_provider
        self._phy = channel.phy
        # Contention windows per attempt, precomputed: the window formula sits
        # on the per-attempt hot path and is pure in `attempt`, which never
        # exceeds retry_limit + 1.
        self._windows = tuple(
            min(self._phy.min_contention_window * (2**attempt),
                self._phy.max_contention_window)
            for attempt in range(self._phy.retry_limit + 2)
        )
        # (n, n.bit_length()) per window for the inlined randint(0, w) draw.
        self._draw_ranges = tuple(
            (window + 1, (window + 1).bit_length()) for window in self._windows
        )
        self._slot_time = self._phy.slot_time_s
        self._queue: Deque[Frame] = deque()
        self._busy = False
        self._transmitting_until = 0.0
        # Fault-injection lifecycle.  `_epoch` increments at every power-down;
        # deferred backoffs and retry closures record the epoch they were
        # created in and abort on mismatch, so a rebooted MAC never executes
        # a stale continuation against a dropped frame.  Without faults the epoch is
        # constant and every guard is a no-op (no RNG draw, no event change).
        self._down = False
        self._epoch = 0
        self._receive_handler: Optional[ReceiveHandler] = None
        self._failure_handler: Optional[FailureHandler] = None
        self.stats = MacStats()
        channel.attach(self)

    # -- wiring --------------------------------------------------------------------

    def set_handlers(
        self, on_receive: ReceiveHandler, on_failure: FailureHandler
    ) -> None:
        """Install the routing layer's receive and link-failure callbacks."""
        self._receive_handler = on_receive
        self._failure_handler = on_failure

    # -- RadioListener interface ------------------------------------------------------

    def position(self) -> "tuple[float, float]":
        """Current node position, supplied by the owning node's mobility model."""
        return self._position_provider()

    def is_transmitting(self) -> bool:
        """True while this radio is on the air (half-duplex check)."""
        return self._simulator.now < self._transmitting_until

    def radio_receive(self, frame: Frame, transmitter: NodeId) -> None:
        """Called by the channel for each successfully decoded frame."""
        if self._down:
            return
        receiver = frame.receiver
        if receiver is BROADCAST or receiver == self.node_id:
            if self._receive_handler is not None:
                self._receive_handler(frame.packet, transmitter)

    # -- transmit path -----------------------------------------------------------------

    def power_down(self) -> None:
        """Fault injection: the node crashes.

        Queued frames are lost (counted as ``fault_drops``, not Fig. 3
        drops), the radio stops mid-transmission, and every outstanding
        backoff/retry continuation is invalidated via the epoch bump.
        """
        if self._down:
            return
        self._down = True
        self._epoch += 1
        self.stats.fault_drops += len(self._queue)
        self._queue.clear()
        self._busy = False
        self._transmitting_until = 0.0

    def power_up(self) -> None:
        """Fault injection: the node reboots with an empty interface queue."""
        self._down = False

    def send(self, packet: Packet, next_hop: Optional[NodeId]) -> None:
        """Queue ``packet`` for transmission to ``next_hop`` (``None`` = broadcast)."""
        if self._down:
            self.stats.fault_drops += 1
            return
        if len(self._queue) >= self._phy.max_queue_length:
            self.stats.queue_drops += 1
            return
        pool = self._frame_pool
        if pool:
            frame = pool.pop().reinit(
                packet, self.node_id, next_hop, self._simulator.now
            )
        else:
            frame = Frame(
                packet=packet,
                transmitter=self.node_id,
                receiver=next_hop,
                enqueued_at=self._simulator.now,
            )
        self._queue.append(frame)
        self.stats.enqueued += 1
        self._try_dequeue()

    def _try_dequeue(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        frame = self._queue[0]
        self._attempt(frame, attempt=0)

    def _attempt(self, frame: Frame, attempt: int) -> None:
        """Start the freeze/resume backoff (:class:`_Backoff`) for
        ``(frame, attempt)``: freeze on a busy medium, else draw and
        schedule ``fire``."""
        backoff = _Backoff(self, frame, attempt)
        channel = self._channel
        now = self._simulator.now
        horizon = channel.busy_horizon(self.node_id)
        if horizon > now:
            channel.freeze(self.node_id, horizon, backoff.on_idle)
        else:
            self._push(
                (
                    backoff.draw() * self._slot_time + now,
                    0,
                    self._next_sequence(),
                    backoff.fire,
                )
            )

    def _transmit_frame(self, frame: Frame, attempt: int) -> None:
        """Put the frame on the air (the channel was just sensed idle)."""
        duration = self._channel.airtime(frame)
        self._transmitting_until = self._simulator.now + duration
        self.stats.transmitted_frames += 1
        frame.packet.hops += 1
        if attempt > 0:
            self.stats.retries += 1

        if frame.is_broadcast:
            self._channel.transmit(self.node_id, frame)
            self._finish_frame()
            return

        epoch = self._epoch

        def on_complete(success: bool) -> None:
            if self._epoch != epoch:
                # The node crashed while the frame was on the air: the
                # power-down already reset the queue and busy state, and the
                # retry chain must not resurrect the abandoned frame.
                return
            if success:
                self.stats.delivered_unicasts += 1
                self._finish_frame()
            elif attempt + 1 <= self._phy.retry_limit:
                self._attempt(frame, attempt + 1)
            else:
                self.stats.retry_drops += 1
                self._finish_frame()
                if self._failure_handler is not None:
                    self._failure_handler(frame.packet, frame.receiver)

        self._channel.transmit(self.node_id, frame, on_complete)

    def _finish_frame(self) -> None:
        """The head-of-line frame is done (delivered, dropped, or broadcast)."""
        epoch = self._epoch

        def proceed() -> None:
            if self._epoch != epoch:
                return
            if self._queue:
                # The channel's end-of-air-time completion ran at this
                # timestamp with priority 1, before this priority-2
                # callback: every reception of the frame is settled and
                # nothing will read it again, so it is recycled.
                self._frame_pool.append(self._queue.popleft())
            self._busy = False
            self._try_dequeue()

        # Wait out our own air time before starting the next frame.
        remaining = max(self._transmitting_until - self._simulator.now, 0.0)
        self._call_in(remaining, proceed, 2)
