"""Execution runtimes for the routing protocols.

``repro.runtime.base`` defines the seam (:class:`Clock`, :class:`Runtime`)
that both the discrete-event simulator and the live asyncio daemons
implement; ``repro.runtime.live`` is the live implementation (UDP and
in-process loopback transports plus the soak harness).

This package re-exports nothing: import from the submodule that defines a
name.
"""
