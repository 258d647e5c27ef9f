"""Shared-memory SPSC message ring for multi-process channels.

This is the transport that backs SplitSim channels when component simulators
run as separate OS processes, mirroring SimBricks' shared-memory queues.
One ring is single-producer/single-consumer: the producer owns the write
cursor, the consumer owns the read cursor, and each cursor lives in its own
cache line.  Frames are laid out in a contiguous byte ring as
``[4-byte length][payload]``; a length of ``0xFFFFFFFF`` is a wrap marker.

Payloads are wire-codec frames (:mod:`repro.channels.wire`): a one-byte
type tag, the sender's piggybacked sync promise, then struct-packed fields
— pickle is only paid for unregistered message types.  The batched API
(:meth:`send_batch`/:meth:`recv_batch`) amortizes the shared cursor
traffic: one cursor publish covers a whole batch of frames on the producer
side, and one cursor store covers everything drained on the consumer side;
it is the only API channel ends use.  The single-message
:meth:`push`/:meth:`pop` calls are thin wrappers kept for tests.

Cursor updates are 8-byte aligned stores; on x86-64 these are atomic in
practice, which is the same assumption SimBricks' C implementation makes.

The header also holds an abort word next to the write cursor: the parent
sets it in every ring when a child fails, and a waiting child reads it
at each backoff step of its wait loop.

Lifecycle: a ring is an anonymous ``MAP_SHARED`` mapping that the parent
creates before it forks and every child inherits.  Nothing is named, so
nothing needs unlinking and no ``/dev/shm`` entry ever exists; the memory
goes with the last process that maps it.  :meth:`close` drops this
process's mapping early (idempotent; the ring is also a context manager).
"""

from __future__ import annotations

import mmap
import struct
from typing import List, Optional, Sequence, Tuple

from ..channels.messages import Msg
from ..channels.wire import decode, encode

_HEADER = 128  # two cache-line-separated cursors
_ABORT = 8  # abort word, in the write cursor's cache line
_WRAP = 0xFFFFFFFF
_LEN = struct.Struct("<I")
_LEN_SIZE = _LEN.size


class ShmRing:
    """One directed message queue in shared memory.

    Create with :meth:`create` in the parent, then fork: the producer and
    the consumer child each use their inherited copy of the object.
    """

    def __init__(self, mm: mmap.mmap) -> None:
        self._mm = mm
        self._buf = memoryview(mm)
        self._capacity = len(mm) - _HEADER
        # local cursor caches (avoid re-reading shared memory when possible)
        self._local_head = self._read_u64(0)
        self._local_tail = self._read_u64(64)
        # transport counters (per process side; monotonic)
        self.frames_out = 0
        self.batches_out = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.batches_in = 0
        self.bytes_in = 0

    @classmethod
    def create(cls, size_bytes: int = 1 << 20) -> "ShmRing":
        """Map a new zeroed ring that children forked later will share."""
        return cls(mmap.mmap(-1, _HEADER + size_bytes))

    # -- cursor helpers ------------------------------------------------------

    def _read_u64(self, off: int) -> int:
        return int.from_bytes(self._buf[off:off + 8], "little")

    def _write_u64(self, off: int, value: int) -> None:
        self._buf[off:off + 8] = value.to_bytes(8, "little")

    # head (write cursor) at offset 0, tail (read cursor) at offset 64.

    # -- producer API --------------------------------------------------------

    def send_batch(self, msgs: Sequence[Msg], promise: int = 0) -> int:
        """Encode and append messages, publishing the cursor once.

        ``promise`` (the sender's sync horizon) rides on the *last* frame
        written; earlier frames carry 0 (their stamp is the only promise).
        Returns how many messages were written — fewer than ``len(msgs)``
        when the ring fills, in which case the caller retries the remainder
        (the promise correctly follows the retried tail).
        """
        buf = self._buf
        cap = self._capacity
        head = self._local_head
        tail = self._read_u64(64)
        self._local_tail = tail
        last = len(msgs) - 1
        written = 0
        nbytes = 0
        for i, msg in enumerate(msgs):
            data = encode(msg, promise if i == last else 0)
            need = _LEN_SIZE + len(data)
            if need > cap:
                raise ValueError(
                    f"frame of {need} bytes exceeds ring capacity {cap}")
            pos = head % cap
            # Never split a record across the wrap point: emit a wrap marker.
            tail_room = cap - pos
            if tail_room < need:
                if head - tail + tail_room + need > cap:
                    break
                if tail_room >= _LEN_SIZE:
                    buf[_HEADER + pos:_HEADER + pos + _LEN_SIZE] = _LEN.pack(_WRAP)
                head += tail_room
                pos = 0
            elif head - tail + need > cap:
                break
            off = _HEADER + pos
            buf[off:off + _LEN_SIZE] = _LEN.pack(len(data))
            buf[off + _LEN_SIZE:off + need] = data
            head += need
            written += 1
            nbytes += need
        if written:
            self._local_head = head
            self._write_u64(0, head)
            self.frames_out += written
            self.batches_out += 1
            self.bytes_out += nbytes
        return written

    def push(self, msg: Msg, promise: int = 0) -> bool:
        """Append a single message; returns ``False`` if the ring is full."""
        return self.send_batch((msg,), promise) == 1

    # -- consumer API ----------------------------------------------------------

    def recv_batch(self, max_msgs: Optional[int] = None
                   ) -> List[Tuple[Msg, int]]:
        """Drain every published frame, storing the cursor once.

        Returns ``[(message, promise), ...]`` in FIFO order — possibly
        empty.  ``max_msgs`` bounds the drain (used by :meth:`pop`).
        """
        head = self._read_u64(0)
        tail = self._local_tail
        if tail >= head:
            return []
        buf = self._buf
        cap = self._capacity
        out: List[Tuple[Msg, int]] = []
        nbytes = 0
        while tail < head:
            pos = tail % cap
            tail_room = cap - pos
            if tail_room < _LEN_SIZE:
                tail += tail_room
                continue
            (length,) = _LEN.unpack(buf[_HEADER + pos:_HEADER + pos + _LEN_SIZE])
            if length == _WRAP:
                tail += tail_room
                continue
            off = _HEADER + pos + _LEN_SIZE
            out.append(decode(bytes(buf[off:off + length])))
            tail += _LEN_SIZE + length
            nbytes += _LEN_SIZE + length
            if max_msgs is not None and len(out) >= max_msgs:
                break
        self._local_tail = tail
        self._write_u64(64, tail)
        if out:
            self.frames_in += len(out)
            self.batches_in += 1
            self.bytes_in += nbytes
        return out

    def pop(self) -> Optional[Msg]:
        """Remove and return the next message, or ``None`` if empty."""
        got = self.recv_batch(max_msgs=1)
        return got[0][0] if got else None

    def empty(self) -> bool:
        """True when the consumer has drained everything published."""
        return self._read_u64(0) <= self._local_tail

    def fill_fraction(self) -> float:
        """Occupancy in [0, 1]: published-but-unconsumed bytes / capacity.

        Reads both shared cursors; either side may call it (telemetry
        heartbeats sample it off the hot path).
        """
        used = self._read_u64(0) - self._read_u64(64)
        if used <= 0:
            return 0.0
        return min(1.0, used / self._capacity)

    def stats(self) -> dict:
        """Snapshot of this side's transport counters."""
        return {
            "frames_out": self.frames_out,
            "batches_out": self.batches_out,
            "bytes_out": self.bytes_out,
            "frames_in": self.frames_in,
            "batches_in": self.batches_in,
            "bytes_in": self.bytes_in,
        }

    # -- abort word ------------------------------------------------------------

    def abort(self) -> None:
        """Tell both sides that the run is over (parent, on a failure)."""
        self._write_u64(_ABORT, 1)

    def aborted(self) -> bool:
        """True once :meth:`abort` was called in any process."""
        return self._read_u64(_ABORT) != 0

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping of the ring (idempotent)."""
        if self._buf is None:
            return
        self._buf.release()  # the mapping cannot close while exported
        self._buf = None
        self._mm.close()

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
