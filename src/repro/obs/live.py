"""Live inspection & control plane for running multiprocess simulations.

Post-hoc observability (traces, flow reports, ``run_report.json``) only
exists after a run ends; this module makes a *running*
:class:`~repro.parallel.procrunner.ProcessRunner` deployment inspectable
and steerable:

* The **parent** serves a control endpoint: a unix-domain socket whose
  path is published in a discoverable ``control.json`` inside the run
  directory.  The protocol is newline-delimited JSON — one request object
  per line, one reply object per line (``{"ok": true, ...}`` or
  ``{"ok": false, "error": ...}``), versioned by :data:`CONTROL_SCHEMA`.
* **Children** poll a lightweight command mailbox at sync-round
  boundaries — i.e. between ``advance()`` calls, when the component sits
  at a quiescent horizon — so commands can never interleave with event
  execution and never perturb the determinism digest (pinned by test).
  The idle cost is one pipe poll per sync round.

Commands
--------
``status``
    Structured live snapshot assembled parent-side from the run's
    :class:`~repro.obs.telemetry.RunWatch`: per-component sim-time/horizon
    progress, events/sec, ring fill, wait state, heartbeat age, and the
    health verdict.
``metrics``
    On-demand metrics snapshot: each child replies with its component's
    :func:`~repro.obs.metrics.component_counters` at the current horizon
    plus its ``transport.<comp>.*`` counters; the parent merges the flat
    dicts into one versioned snapshot document.
``dump-trace``
    Children flush their tracer rings to ``<name>.trace.partial.jsonl``
    under the run directory's ``traces/`` and the parent merges them (plus
    the finished children's traces and its own phase spans) into
    ``traces/trace.partial.json`` — a valid Chrome-trace document of the
    run *so far*, without stopping anything.
``set-flow-sample``
    Retune origin-side 1-in-N flow sampling mid-run (``{"n": N}``).
``stop``
    Graceful teardown: every child finishes at its next horizon and
    reports results normally; the run exits cleanly before ``until_ps``.
``ping``
    Liveness check of the control endpoint itself.

The client side (:class:`ControlClient`, :func:`wait_for_control`) backs
``splitsim-inspect attach``.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from queue import Empty
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Version of the control protocol and of ``control.json``
#: (re-exported from the central registry in :mod:`repro.obs.schema`).
from .schema import CONTROL_SCHEMA

#: Discovery file written into the run directory.
CONTROL_FILE = "control.json"

#: Socket filename inside the run directory (may be relocated; always
#: resolve through ``control.json``).
CONTROL_SOCK = "control.sock"

#: Commands understood by the control plane.
COMMANDS = ("status", "metrics", "dump-trace", "set-flow-sample", "stop",
            "ping")

#: Commands that fan out to the children's mailboxes.
CHILD_COMMANDS = ("metrics", "dump-trace", "set-flow-sample", "stop")

#: AF_UNIX sun_path is ~108 bytes; relocate the socket when the run dir
#: would overflow it (control.json still points at the real path).
_SOCK_PATH_MAX = 96


class ControlError(RuntimeError):
    """Raised by the client for connection/protocol failures."""


def socket_path_for(rundir: str) -> str:
    """Socket path for a run dir, relocated to tmp when too long."""
    path = os.path.join(os.path.abspath(rundir), CONTROL_SOCK)
    if len(path.encode()) <= _SOCK_PATH_MAX:
        return path
    short = tempfile.mkdtemp(prefix="splitsim-ctl-")
    return os.path.join(short, CONTROL_SOCK)


def read_control_file(rundir: str) -> dict:
    """Load and validate ``control.json`` from a run directory."""
    path = rundir if rundir.endswith(".json") \
        else os.path.join(rundir, CONTROL_FILE)
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != CONTROL_SCHEMA:
        raise ControlError(f"{path}: control schema "
                           f"{doc.get('schema')!r} != {CONTROL_SCHEMA}")
    if not doc.get("socket"):
        raise ControlError(f"{path}: no socket path")
    return doc


def wait_for_control(rundir: str, timeout_s: float = 10.0,
                     poll_s: float = 0.05) -> dict:
    """Poll for ``control.json`` to appear (a run that is still starting)."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            return read_control_file(rundir)
        except (OSError, json.JSONDecodeError, ControlError):
            if time.monotonic() > deadline:
                raise ControlError(
                    f"no control endpoint in {rundir} after "
                    f"{timeout_s:.0f}s — is the run alive and started "
                    "with the control plane (splitsim-run --control / "
                    "run_mp(rundir=..., control=True))?") from None
            time.sleep(poll_s)


# -- child side ---------------------------------------------------------------

class ChildMailbox:
    """Per-child command mailbox, polled at sync-round boundaries.

    ``cmd_q`` is the child's end of its command pipe (anything with a
    non-blocking ``get_nowait`` that raises :class:`queue.Empty`), so
    ``poll`` costs one zero-timeout pipe ``poll`` when idle.  Commands are
    executed at the quiescent horizon the child currently sits on;
    replies go up the child's pipe to the parent (``reply_q.put``) as
    ``(req_id, component, payload)`` tuples.  Returns ``True`` once a
    graceful ``stop`` has been requested.
    """

    __slots__ = ("name", "cmd_q", "reply_q", "comp", "tracer", "rundir",
                 "transport_stats", "stop_requested")

    def __init__(self, name: str, cmd_q, reply_q, comp, tracer=None,
                 rundir: Optional[str] = None,
                 transport_stats: Optional[Callable[[], dict]] = None
                 ) -> None:
        self.name = name
        self.cmd_q = cmd_q
        self.reply_q = reply_q
        self.comp = comp
        self.tracer = tracer
        self.rundir = rundir
        self.transport_stats = transport_stats
        self.stop_requested = False

    def poll(self, commit: int) -> bool:
        """Drain pending commands; True when the child should stop."""
        if self.stop_requested:
            return True
        while True:
            try:
                req = self.cmd_q.get_nowait()
            except Empty:
                break
            try:
                self._handle(req, commit)
            except Exception as exc:  # never let a command kill the child
                self._reply(req, {"error": f"{type(exc).__name__}: {exc}"})
        return self.stop_requested

    def _reply(self, req: dict, payload: dict) -> None:
        try:
            self.reply_q.put((req.get("req"), self.name, payload))
        except Exception:  # pragma: no cover - parent gone
            pass

    def _handle(self, req: dict, commit: int) -> None:
        cmd = req.get("cmd")
        if cmd == "stop":
            self.stop_requested = True
            self._reply(req, {"stopping_at_ps": commit})
        elif cmd == "metrics":
            from .metrics import component_counters, transport_counters
            payload = component_counters(self.comp)
            if self.transport_stats is not None:
                payload.update(transport_counters(self.name,
                                                  self.transport_stats()))
            self._reply(req, payload)
        elif cmd == "dump-trace":
            tracer = self.tracer
            if tracer is None or self.rundir is None:
                self._reply(req, {"error": "tracing off (no trace "
                                           "recorder)"})
                return
            from .rundir import partial_trace
            path = partial_trace(self.rundir, self.name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tracer.save_jsonl(path)
            self._reply(req, {"path": path, "records": len(tracer),
                              "dropped": tracer.dropped})
        elif cmd == "set-flow-sample":
            from .flows import retune_sample
            n = int(req.get("n", 0))
            if n < 1:
                self._reply(req, {"error": "n must be >= 1"})
                return
            if retune_sample(n):
                self._reply(req, {"sample_n": n})
            else:
                self._reply(req, {"error": "no flow recorder installed "
                                           "(run with flow tracing on)"})
        else:
            self._reply(req, {"error": f"unhandled child command {cmd!r}"})


# -- parent side --------------------------------------------------------------

class ControlPlane:
    """Parent-side control endpoint of one multiprocess run.

    Owns the unix socket, the ``control.json`` discovery file, and the
    command fan-out to the per-child mailboxes.  ``status`` is answered
    entirely parent-side from ``watch``, the run's
    :class:`~repro.obs.telemetry.RunWatch`, which also knows which
    children finished; the other commands broadcast to every still-running
    child and gather replies with a timeout, so a wedged child degrades a
    reply (listed in ``missing``) instead of hanging the control plane.  ``cmd_queues``
    maps each child to the parent's end of its command pipe (``put``);
    ``reply_q`` is a :class:`queue.Queue` that the runner's read loop
    fills with the replies arriving on the children's pipes.
    """

    def __init__(self, rundir: str, until_ps: int, watch,
                 cmd_queues: Dict[str, Any], reply_q,
                 merge_partial: Optional[Callable[[], str]] = None,
                 reply_timeout_s: float = 5.0) -> None:
        self.rundir = os.path.abspath(rundir)
        self.components = watch.components
        self.until_ps = until_ps
        self.watch = watch
        self.cmd_queues = cmd_queues
        self.reply_q = reply_q
        self.merge_partial = merge_partial
        self.reply_timeout_s = reply_timeout_s
        self.socket_path = socket_path_for(rundir)
        self.control_path = os.path.join(self.rundir, CONTROL_FILE)
        self.stop_requested = False
        self._req = 0
        self._t0 = time.monotonic()
        self._server: Optional[_ControlServer] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the socket, write ``control.json``, start serving."""
        os.makedirs(self.rundir, exist_ok=True)
        self._server = _ControlServer(self.socket_path, self.handle)
        self._server.start()
        doc = {
            "schema": CONTROL_SCHEMA,
            "socket": self.socket_path,
            "pid": os.getpid(),
            "components": self.components,
            "until_ps": self.until_ps,
            "started_unix": time.time(),
        }
        tmp = self.control_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, self.control_path)  # appear atomically

    def close(self) -> None:
        """Stop serving and remove the discovery file and socket."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for path in (self.control_path, self.socket_path):
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- command handling (runs on the server thread) ----------------------

    def handle(self, req: dict) -> dict:
        cmd = req.get("cmd")
        if cmd == "ping":
            return {"ok": True, "cmd": "ping", "schema": CONTROL_SCHEMA}
        if cmd == "status":
            return self.status_reply()
        if cmd == "metrics":
            return self._metrics_reply(req)
        if cmd == "dump-trace":
            return self._dump_trace_reply(req)
        if cmd == "set-flow-sample":
            return self._set_flow_sample_reply(req)
        if cmd == "stop":
            return self._stop_reply(req)
        return {"ok": False, "cmd": cmd,
                "error": f"unknown command {cmd!r} "
                         f"(known: {', '.join(COMMANDS)})"}

    def status_reply(self) -> dict:
        """The parent-side live snapshot (no child round-trip)."""
        done = self.watch.done
        return {
            "ok": True,
            "cmd": "status",
            "schema": CONTROL_SCHEMA,
            "until_ps": self.until_ps,
            "elapsed_s": round(time.monotonic() - self._t0, 3),
            "stop_requested": self.stop_requested,
            "components": self.watch.status(self.until_ps),
            "done": sorted(done),
            "running": [n for n in self.components if n not in done],
            "health": self.watch.report(),
        }

    def _metrics_reply(self, req: dict) -> dict:
        replies, missing = self._broadcast({"cmd": "metrics"})
        from .metrics import snapshot
        ok = {n: p for n, p in replies.items() if "error" not in p}
        merged: Dict[str, float] = {}
        for payload in ok.values():
            merged.update(payload)
        return {"ok": True, "cmd": "metrics", "snapshot": snapshot(merged),
                "components": sorted(ok), "missing": missing,
                "errors": {n: p["error"] for n, p in replies.items()
                           if "error" in p}}

    def _dump_trace_reply(self, req: dict) -> dict:
        if self.merge_partial is None:
            return {"ok": False, "cmd": "dump-trace",
                    "error": "run has no trace recorder — start with "
                             "tracing on (splitsim-run --control --trace, "
                             "or Instantiation(trace=True))"}
        replies, missing = self._broadcast({"cmd": "dump-trace"})
        errors = {n: p["error"] for n, p in replies.items() if "error" in p}
        path = self.merge_partial()
        return {"ok": True, "cmd": "dump-trace", "path": path,
                "children": {n: p for n, p in replies.items()
                             if "error" not in p},
                "missing": missing, "errors": errors}

    def _set_flow_sample_reply(self, req: dict) -> dict:
        try:
            n = int(req.get("n", 0))
        except (TypeError, ValueError):
            n = 0
        if n < 1:
            return {"ok": False, "cmd": "set-flow-sample",
                    "error": "need an integer n >= 1"}
        replies, missing = self._broadcast({"cmd": "set-flow-sample",
                                            "n": n})
        errors = {c: p["error"] for c, p in replies.items() if "error" in p}
        return {"ok": not errors, "cmd": "set-flow-sample", "n": n,
                "applied": sorted(c for c in replies if c not in errors),
                "missing": missing, "errors": errors}

    def _stop_reply(self, req: dict) -> dict:
        self.stop_requested = True
        replies, missing = self._broadcast({"cmd": "stop"},
                                           timeout_s=2.0)
        return {"ok": True, "cmd": "stop",
                "acked": sorted(replies),
                "already_done": sorted(self.watch.done),
                "missing": missing}

    # -- fan-out -----------------------------------------------------------

    def _broadcast(self, payload: dict,
                   timeout_s: Optional[float] = None
                   ) -> Tuple[Dict[str, dict], List[str]]:
        """Send one command to every running child; gather replies.

        A child that finishes (or is wedged) during the window simply
        goes missing from the reply set — the control plane never blocks
        longer than the reply timeout.
        """
        self._req += 1
        req = self._req
        message = dict(payload, req=req)
        done = self.watch.done
        targets = [n for n in self.components if n not in done]
        for name in targets:
            try:
                self.cmd_queues[name].put(message)
            except Exception:  # pragma: no cover - queue torn down
                pass
        replies: Dict[str, dict] = {}
        deadline = time.monotonic() + (self.reply_timeout_s
                                       if timeout_s is None else timeout_s)
        while len(replies) < len(targets):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                rq, comp, data = self.reply_q.get(
                    timeout=min(0.1, remaining))
            except Empty:
                # children that finished meanwhile will never reply
                targets = [n for n in targets if n not in done
                           or n in replies]
                continue
            if rq != req:
                continue  # stale reply from a timed-out earlier request
            replies[comp] = data
        missing = [n for n in targets if n not in replies]
        return replies, missing


class _ControlServer(threading.Thread):
    """Accept loop over the unix socket; one client served at a time."""

    def __init__(self, socket_path: str, handler: Callable[[dict], dict]
                 ) -> None:
        super().__init__(name="splitsim-control", daemon=True)
        self._handler = handler
        self._closed = threading.Event()
        self._conn: Optional[socket.socket] = None
        try:
            os.unlink(socket_path)
        except OSError:
            pass
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(socket_path)
        self._sock.listen(4)
        self._sock.settimeout(0.25)

    def run(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self._conn = conn
            try:
                self._serve(conn)
            except Exception:  # pragma: no cover - client misbehaved
                pass
            finally:
                self._conn = None
                try:
                    conn.close()
                except OSError:
                    pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def _serve(self, conn: socket.socket) -> None:
        buf = b""
        while not self._closed.is_set():
            try:
                chunk = conn.recv(1 << 16)
            except OSError:
                return
            if not chunk:
                return
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                if not line.strip():
                    continue
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                    reply = self._handler(req)
                except Exception as exc:
                    reply = {"ok": False,
                             "error": f"{type(exc).__name__}: {exc}"}
                try:
                    conn.sendall(json.dumps(reply, default=str).encode()
                                 + b"\n")
                except OSError:
                    return

    def close(self) -> None:
        self._closed.set()
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass
        self.join(timeout=2.0)


# -- client side --------------------------------------------------------------

class ControlClient:
    """Blocking newline-JSON client over the run's control socket."""

    def __init__(self, socket_path: str, timeout_s: float = 10.0) -> None:
        self.socket_path = socket_path
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        try:
            self._sock.connect(socket_path)
        except OSError as exc:
            self._sock.close()
            raise ControlError(
                f"cannot connect to {socket_path}: {exc} "
                "(run finished or control plane not enabled?)") from exc
        self._file = self._sock.makefile("rb")

    @classmethod
    def attach(cls, rundir: str, wait_s: float = 0.0,
               timeout_s: float = 10.0) -> "ControlClient":
        """Connect via a run directory's ``control.json``.

        ``wait_s`` > 0 polls for the discovery file first, so a client can
        attach to a run that is still starting up.
        """
        if wait_s > 0:
            doc = wait_for_control(rundir, timeout_s=wait_s)
        else:
            try:
                doc = read_control_file(rundir)
            except (OSError, ValueError) as exc:
                # ValueError covers a corrupt control.json
                # (json.JSONDecodeError subclasses it)
                raise ControlError(
                    f"no usable {CONTROL_FILE} in {rundir}: {exc}") from exc
        return cls(doc["socket"], timeout_s=timeout_s)

    def request(self, cmd: str, **kwargs) -> dict:
        """Send one command; return the decoded reply object."""
        req = dict(kwargs, cmd=cmd)
        try:
            self._sock.sendall(json.dumps(req).encode() + b"\n")
            line = self._file.readline()
        except OSError as exc:
            raise ControlError(f"control connection lost: {exc}") from exc
        if not line:
            raise ControlError("control connection closed by the run "
                               "(simulation finished?)")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ControlError(f"bad control reply: {exc}") from exc

    # conveniences mirroring the command set
    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        return self.request("status")

    def metrics(self) -> dict:
        return self.request("metrics")

    def dump_trace(self) -> dict:
        return self.request("dump-trace")

    def set_flow_sample(self, n: int) -> dict:
        return self.request("set-flow-sample", n=n)

    def stop(self) -> dict:
        return self.request("stop")

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
