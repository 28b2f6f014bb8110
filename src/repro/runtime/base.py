"""The Runtime seam: the execution environment a routing protocol needs.

Every protocol in this repository speaks packets and timers — nothing else.
This module pins that dependency surface down as two small interfaces so the
*same* protocol classes run unchanged in two very different worlds:

* inside the discrete-event :class:`~repro.sim.engine.Simulator` (the
  ``Node``/``Mac``/``Channel`` stack, bit-exact and paper-faithful), and
* as real asyncio router daemons over UDP or an in-process loopback
  transport (:mod:`repro.runtime.live`), against wall-clock timers.

The interfaces:

:class:`Clock`
    ``now`` plus cancellable ``schedule_in``/``schedule_at``.  The sim's
    :class:`~repro.sim.engine.Simulator` already satisfies it verbatim (it
    *is* the sim clock); the live runtime implements it over the asyncio
    event loop.  ``priority`` orders same-instant callbacks in the sim and
    is advisory (ignored) live, where simultaneity has no exact meaning.

:class:`Runtime`
    The per-node half: identity, the clock, the transport sends and local
    delivery.  The sim's
    :class:`~repro.sim.node.Node` and the live
    :class:`~repro.runtime.live.LiveNode` both implement it.

This module must stay importable without the simulator: the CI import-
hygiene check (``tests/test_import_hygiene.py``) asserts that nothing under
``repro.protocols`` or ``repro.runtime`` imports a sim-only module at
runtime.  (``repro.sim.packet`` and ``repro.sim.stats`` are runtime-agnostic
data models that happen to live under ``sim/`` and are explicitly allowed.)
"""

from __future__ import annotations

import abc
from typing import Callable, Hashable, Protocol, runtime_checkable

from ..sim.packet import Packet

__all__ = ["Clock", "Runtime", "TimerHandle", "TOPOLOGIES", "TRANSPORTS"]

NodeId = Hashable

#: The live runtime's static placements and transports.  They live here, not
#: in :mod:`repro.runtime.live`, so the CLI parser can offer them as choices
#: without importing asyncio.
TOPOLOGIES = ("line", "ring", "grid", "random")
TRANSPORTS = ("loopback", "udp")


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled before it fires."""

    def cancel(self) -> None:  # pragma: no cover - structural protocol
        ...


@runtime_checkable
class Clock(Protocol):
    """What protocols may assume about time, wherever they run.

    ``now`` is the current time in seconds (simulated time in a trial,
    scaled wall-clock time live).  The scheduling calls return a
    :class:`TimerHandle`; ``priority`` breaks same-instant ties in the
    deterministic simulator and is advisory elsewhere.
    """

    now: float

    def schedule_in(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> TimerHandle:  # pragma: no cover - structural protocol
        ...

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> TimerHandle:  # pragma: no cover - structural protocol
        ...


class Runtime(abc.ABC):
    """The per-node execution environment a :class:`RoutingProtocol` binds to.

    Implementations own the transport (a simulated MAC + channel, or a UDP /
    loopback socket) and the node's statistics sinks; the protocol only ever
    sees this surface.  The sim's ``Node`` and the live
    ``LiveNode`` are the two implementations.
    """

    #: This node's identifier (stable, hashable, unique in the network).
    node_id: NodeId

    #: The time source and timer scheduler for this node.
    clock: Clock

    @abc.abstractmethod
    def send_unicast(self, packet: Packet, next_hop: NodeId) -> None:
        """Transmit ``packet`` to a specific neighbour.

        In the sim this goes through the MAC with retries and link-failure
        detection; live it is a fire-and-forget datagram.
        """

    @abc.abstractmethod
    def send_broadcast(self, packet: Packet) -> None:
        """Transmit ``packet`` to every neighbour in range (no retries)."""

    @abc.abstractmethod
    def deliver_data(self, packet: Packet) -> None:
        """Record the local delivery of an application data packet."""
