"""Instruction-count costs of network stack operations.

The transport code is shared between protocol-level hosts (where
``env.charge`` is a no-op — host software is free, as in ns-3) and detailed
hosts (where every charged instruction advances the simulated CPU).  An env
whose ``charge`` is a no-op says so once, ``models_cost = False``, and the
stack's callers then skip both the call and the arithmetic of its argument
(``Stack.models_cost``).  The counts below are rough Linux-stack
magnitudes: a few thousand instructions per UDP datagram and per TCP
segment, which at a few GHz yields the microsecond-scale per-packet
software costs that make end-to-end results diverge from protocol-level
ones.
"""

#: Sending one UDP datagram (syscall + ip/udp tx path + driver handoff).
UDP_TX_INSTR = 3_200
#: Receiving one UDP datagram (irq bottom half + demux + copy to user).
UDP_RX_INSTR = 4_000

#: Transmitting one TCP segment.
TCP_TX_INSTR = 5_200
#: Receiving one TCP segment (incl. ACK generation).
TCP_RX_INSTR = 6_000
#: Pure ACK processing at the sender.
TCP_ACK_INSTR = 1_800

#: Per-byte copy cost (applies to payload bytes moved to/from user space).
COPY_INSTR_PER_BYTE = 0.05

