"""Split-label Routing Protocol (SRP) — the paper's protocol (Section III)."""

from .messages import DELETE_PERIOD, SrpRerr, SrpRrep, SrpRreq
from .protocol import SrpConfig, SrpProtocol
from .table import SrpRouteEntry, SrpRoutingTable, SuccessorEntry

__all__ = [
    "DELETE_PERIOD",
    "SrpRerr",
    "SrpRrep",
    "SrpRreq",
    "SrpConfig",
    "SrpProtocol",
    "SrpRouteEntry",
    "SrpRoutingTable",
    "SuccessorEntry",
]
