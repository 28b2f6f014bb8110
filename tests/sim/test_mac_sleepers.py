"""No stranded sleeper: the freeze/resume backoff's liveness, as a property.

A MAC that finds the medium busy schedules nothing: it registers with
:meth:`Channel.freeze` and relies on the channel's end-of-transmission
wake-check to resume it.  A sleeper the wake-check misses would stay frozen
forever — silently, because nothing else ever looks at it.  Over seeded
random small topologies x {static, mobile} x {clean, ``churn-partition``,
``blackout-burst``, a node crashed *while frozen* and rebooted} this module
asserts:

* after **every** wake-check, no sleeper is left with an expired hint and
  an idle medium (it should have been woken just now), and every sleeper
  whose hint lies in the future has a transmission ending at or after it
  still on the air — whose finish is therefore guaranteed to look at the
  sleeper again;
* at **trial end** every MAC with a queued frame is either such a sleeper
  or is reachable from a pending event (its countdown, its own frame's
  completion, or its proceed step);
* the trial is bit-identical on the serial engine and the sharded backend
  at K = 2 and 4, watcher installed on all three.
"""

import itertools

import pytest

from repro.protocols import protocol_factory
from repro.sim.engine import Event
from repro.sim.faults import FaultSpec, fault_preset
from repro.sim.mac import Mac
from repro.sim.network import build_network
from repro.sim.tuning import EngineTuning
from repro.workloads.scenario import scaled_scenario

#: (scenario seed, protocol): broadcast floods (OLSR) and unicast retry
#: chains (SRP, AODV) reach ``freeze`` through different call paths.
TOPOLOGIES = ((11, "OLSR"), (12, "SRP"), (13, "AODV"))

FAULTS = ("clean", "churn-partition", "blackout-burst", "crash-while-frozen")

BACKENDS = (("serial", 0), ("sharded", 2), ("sharded", 4))


def small_scenario(seed):
    # Dense on purpose: most nodes carrier-sense each other, so nearly
    # every attempt freezes at least once.
    return scaled_scenario(
        node_count=14,
        flow_count=5,
        duration=12.0,
        seed=seed,
        terrain_width=700.0,
        terrain_height=300.0,
    )


def build(scenario, protocol, *, static, backend=("serial", 0)):
    # The heap queue keeps pending entries in plain lists the trial-end
    # check can walk; trials are bit-identical under either queue.
    return build_network(
        scenario,
        protocol_factory(protocol),
        static_positions=static,
        tuning=EngineTuning(
            event_queue="heap", engine_backend=backend[0], shard_count=backend[1]
        ),
    )


class SleeperWatch:
    """Checks the sleeper invariant after every wake-check of a network."""

    def __init__(self, network):
        self.network = network
        self.wake_checks = 0
        self.freezes = []  # (time, node, horizon)
        self.violations = []
        channel = network.channel
        simulator = network.simulator
        wake = channel._wake_sleepers
        freeze = channel.freeze

        def checked_wake(pdes):
            wake(pdes)
            self.wake_checks += 1
            self.violations.extend(self.stranded())

        def recorded_freeze(node_id, horizon, on_idle):
            self.freezes.append((simulator.now, node_id, horizon))
            freeze(node_id, horizon, on_idle)

        channel._wake_sleepers = checked_wake
        channel.freeze = recorded_freeze

    def stranded(self):
        """Sleepers that missed their idle edge, or that no future finish
        is guaranteed to look at."""
        channel = self.network.channel
        now = self.network.simulator.now
        on_air = [key for key, _, _ in channel._active_transmissions if key > now]
        return [
            (now, node_id, hint)
            for node_id, (hint, _) in channel._sleepers.items()
            if (
                channel.busy_horizon(node_id) <= now
                if hint <= now
                else not any(key >= hint for key in on_air)
            )
        ]


def pending_callbacks(simulator):
    queues = getattr(simulator, "_queues", None)
    entries = (
        itertools.chain.from_iterable(queue._heap for queue in queues)
        if queues is not None
        else simulator._queue
    )
    for entry in entries:
        payload = entry[3]
        callback = payload.callback if isinstance(payload, Event) else payload
        if callback is not None:
            yield callback


def macs_behind(callbacks):
    """Every Mac reachable from ``callbacks`` through closures and bound
    methods (``fire``/``proceed`` capture their MAC directly; a channel
    completion captures the sender's ``on_complete``, which does)."""
    macs, seen, stack = set(), set(), list(callbacks)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Mac):
            macs.add(obj)
            continue
        owner = getattr(obj, "__self__", None)
        if owner is not None:
            stack.append(owner)
        for cell in getattr(obj, "__closure__", None) or ():
            try:
                stack.append(cell.cell_contents)
            except ValueError:  # an empty cell
                pass
    return macs


def assert_live_at_trial_end(network, watch):
    assert watch.stranded() == []
    live = macs_behind(pending_callbacks(network.simulator))
    sleepers = network.channel._sleepers
    for node_id, node in network.nodes.items():
        if node.mac.queue_length:
            assert node_id in sleepers or node.mac in live, (
                f"node {node_id} holds {node.mac.queue_length} queued frame(s) "
                "with no sleeper registration and no pending event"
            )


def crash_while_frozen(scenario, protocol, *, static):
    """A node_crash spec that powers a node off in the middle of a freeze.

    Taken from a clean probe run: the fault layer draws nothing before the
    crash, so the faulted trial replays the probe up to that instant and the
    node is verifiably asleep when it dies.
    """
    probe = build(scenario, protocol, static=static)
    watch = SleeperWatch(probe)
    probe.run()
    window = [
        freeze
        for freeze in watch.freezes
        if 0.3 * scenario.duration <= freeze[0] <= 0.6 * scenario.duration
    ]
    assert window, "the probe trial never froze a MAC mid-trial"
    frozen_at, node_id, horizon = max(window, key=lambda f: f[2] - f[0])
    return FaultSpec.node_crash(
        node=node_id, start=(frozen_at + horizon) / 2.0, duration=2.0
    )


@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("static", [True, False], ids=["static", "mobile"])
@pytest.mark.parametrize(
    "seed, protocol", TOPOLOGIES, ids=[f"{p}-seed{s}" for s, p in TOPOLOGIES]
)
def test_no_sleeper_is_ever_stranded(seed, protocol, static, faults):
    scenario = small_scenario(seed)
    crash = None
    if faults == "crash-while-frozen":
        crash = crash_while_frozen(scenario, protocol, static=static)
        scenario = scenario.with_faults((crash,))
    elif faults != "clean":
        scenario = scenario.with_faults(fault_preset(faults, scenario))

    results = {}
    for backend in BACKENDS:
        network = build(scenario, protocol, static=static, backend=backend)
        watch = SleeperWatch(network)
        asleep_at_crash = []
        at_reboot = []
        if crash is not None:
            mac = network.nodes[crash.node].mac
            power_down, power_up = mac.power_down, mac.power_up

            def recorded_power_down():
                asleep_at_crash.append(crash.node in network.channel._sleepers)
                power_down()

            def recorded_power_up():
                at_reboot.append((mac.stats.enqueued, mac.stats.transmitted_frames))
                power_up()

            mac.power_down = recorded_power_down
            mac.power_up = recorded_power_up
        summary = network.run()

        assert watch.wake_checks > 0 and watch.freezes
        assert watch.violations == []
        assert_live_at_trial_end(network, watch)
        if crash is not None:
            assert asleep_at_crash == [True]
            # Rebooted and back on the air, not wedged behind the stale
            # sleeper entry its crash left registered.
            [(enqueued, transmitted)] = at_reboot
            stats = network.nodes[crash.node].mac.stats
            assert stats.enqueued > enqueued
            assert stats.transmitted_frames > transmitted
        results[backend] = (summary, network.simulator.events_processed)

    serial = results[("serial", 0)]
    assert results[("sharded", 2)] == serial
    assert results[("sharded", 4)] == serial
