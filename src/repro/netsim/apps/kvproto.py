"""Wire protocol for the key-value case study (NetCache / Pegasus).

Both systems are UDP request/response key-value stores; the switch data
planes inspect and sometimes rewrite or answer these messages.  The protocol
objects are shared between protocol-level clients/servers
(:mod:`repro.netsim.apps.kv`) and the guest applications that run on
detailed hosts (:mod:`repro.hostsim.guest`), so every fidelity mix speaks
the same protocol — a prerequisite for mixed-fidelity simulation.
"""

from __future__ import annotations

from ...record import Record

OP_READ = "r"
OP_WRITE = "w"

#: application payload bytes of a request (op, key, id, padding)
REQUEST_BYTES = 32
#: application payload bytes of a write reply
WRITE_REPLY_BYTES = 16
#: default value size carried by read replies
DEFAULT_VALUE_BYTES = 128

KV_PORT = 7000


class KvRequest(Record):
    """A read or write request for one key."""

    __slots__ = ("op", "key", "req_id", "client_addr", "client_ts")

    def __init__(self, op: str, key: int, req_id: int, client_addr: int,
                 client_ts: int = 0) -> None:
        self.op = op
        self.key = key
        self.req_id = req_id
        self.client_addr = client_addr
        self.client_ts = client_ts


class KvReply(Record):
    """Reply to a request, matched by ``req_id``."""

    __slots__ = ("op", "key", "req_id", "served_by", "value_bytes")

    def __init__(self, op: str, key: int, req_id: int, served_by: int = 0,
                 value_bytes: int = DEFAULT_VALUE_BYTES) -> None:
        self.op = op
        self.key = key
        self.req_id = req_id
        #: address of the entity that served the request (server addr, or
        #: the special value ``SERVED_BY_SWITCH`` for NetCache cache hits)
        self.served_by = served_by
        self.value_bytes = value_bytes


SERVED_BY_SWITCH = -1


def home_server(key: int, server_addrs: list) -> int:
    """Static key-to-server mapping (consistent-hash stand-in)."""
    return server_addrs[key % len(server_addrs)]
