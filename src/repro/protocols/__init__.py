"""Routing protocols: SRP (the paper's contribution), its baselines, and LSR.

``PROTOCOLS`` is the single registry every consumer goes through — the sweep
planner, the CLI, the profiler's reference side and the live runtime all
resolve a protocol name to a :class:`ProtocolSpec` here, so "what protocols
exist and how is one configured" lives in exactly one place instead of
per-protocol conditionals scattered over ``build_network``/CLI/scenario code.

A spec bundles the protocol class with its config dataclass;
:meth:`ProtocolSpec.factory` produces the per-node factory shape
:func:`repro.sim.network.build_network` and the live runtime both expect,
from a config instance or nothing for defaults.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

from .aodv import AodvConfig, AodvProtocol
from .base import PacketBuffer, ProtocolConfig, RoutingProtocol
from .common import ComputationState, DiscoveryController, RreqCache
from .dsr import DsrConfig, DsrProtocol
from .ldr import LdrConfig, LdrProtocol
from .lsr import LsrConfig, LsrProtocol
from .olsr import OlsrConfig, OlsrProtocol
from .oracle import OracleProtocol
from .srp import SrpConfig, SrpProtocol

__all__ = [
    "AodvConfig",
    "AodvProtocol",
    "PacketBuffer",
    "ProtocolConfig",
    "RoutingProtocol",
    "ComputationState",
    "DiscoveryController",
    "RreqCache",
    "DsrConfig",
    "DsrProtocol",
    "LdrConfig",
    "LdrProtocol",
    "LsrConfig",
    "LsrProtocol",
    "OlsrConfig",
    "OlsrProtocol",
    "OracleProtocol",
    "SrpConfig",
    "SrpProtocol",
    "ProtocolSpec",
    "PROTOCOLS",
    "protocol_factory",
]

NodeId = Hashable


@dataclass(frozen=True)
class ProtocolSpec:
    """One registry row: a protocol class plus how to configure it."""

    name: str
    protocol_class: type
    #: The protocol's config dataclass; ``None`` for configless protocols
    #: (the testing Oracle).
    config_class: Optional[type] = None

    def default_config(self) -> Optional[ProtocolConfig]:
        """A fresh default config instance (``None`` when configless)."""
        return self.config_class() if self.config_class is not None else None

    def make_config(
        self, config: Optional[ProtocolConfig] = None
    ) -> Optional[ProtocolConfig]:
        """``config`` itself, or the defaults for ``None``."""
        if config is None:
            return self.default_config()
        if self.config_class is None:
            raise ValueError(f"protocol {self.name!r} takes no config")
        if isinstance(config, self.config_class):
            return config
        raise TypeError(
            f"config for {self.name!r} must be {self.config_class.__name__} "
            f"or None; got {type(config).__name__}"
        )

    def factory(
        self, config: Optional[ProtocolConfig] = None
    ) -> Callable[[NodeId], RoutingProtocol]:
        """A per-node factory (the shape ``build_network`` expects)."""
        resolved = self.make_config(config)
        if resolved is None:
            return lambda node_id: self.protocol_class()
        return lambda node_id: self.protocol_class(resolved)


#: Name -> spec for the five protocols in the paper's evaluation, the LSR
#: link-state addition, and the testing oracle.
PROTOCOLS: Dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec("SRP", SrpProtocol, SrpConfig),
        ProtocolSpec("LDR", LdrProtocol, LdrConfig),
        ProtocolSpec("AODV", AodvProtocol, AodvConfig),
        ProtocolSpec("DSR", DsrProtocol, DsrConfig),
        ProtocolSpec("OLSR", OlsrProtocol, OlsrConfig),
        ProtocolSpec("LSR", LsrProtocol, LsrConfig),
        ProtocolSpec("Oracle", OracleProtocol, None),
    )
}


def _spec(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        ) from None


def protocol_factory(
    name: str, config: Optional[ProtocolConfig] = None
) -> Callable[[NodeId], RoutingProtocol]:
    """A per-node factory for the named protocol (for ``build_network``).

    ``config`` is a config instance, or ``None`` for the protocol's defaults.
    """
    return _spec(name).factory(config)
