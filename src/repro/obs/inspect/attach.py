"""``splitsim-inspect attach RUN``: the live control-plane client.

Connects to a *running* multiprocess simulation's control plane
(``splitsim-run --control --out DIR`` / ``run_mp(rundir=DIR,
control=True)``; see
:mod:`repro.obs.live`): a refreshing live status view by default,
``--json`` for a one-shot machine-readable snapshot, or positional
commands (``status``, ``metrics``, ``dump-trace``, ``set-flow-sample N``,
``stop``, ``ping``) for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Tuple

from ...kernel.simtime import fmt_time
from ..live import ControlClient, ControlError


def render_status(reply: dict) -> str:
    """Text rendering of a control-plane ``status`` reply (pure function)."""
    lines: List[str] = []
    until = reply.get("until_ps", 0)
    header = (f"run: {fmt_time(until)} horizon, "
              f"{reply.get('elapsed_s', 0.0):.1f}s elapsed, "
              f"{len(reply.get('running', []))} running / "
              f"{len(reply.get('done', []))} done")
    if reply.get("stop_requested"):
        header += "  [stopping]"
    lines.append(header)
    components = reply.get("components", {})
    width = max((len(n) for n in components), default=0)
    for name in sorted(components):
        entry = components[name]
        state = entry.get("state", "?")
        sim_ps = entry.get("sim_ps")
        if sim_ps is None:
            lines.append(f"  {name:<{width}}  {state}")
            continue
        progress = entry.get("progress", 0.0)
        bar = "#" * int(progress * 20)
        flag = " waiting" if entry.get("waiting") else ""
        age = entry.get("age_s")
        age_txt = f" ({age:.1f}s ago)" if age is not None and age > 1.0 else ""
        lines.append(
            f"  {name:<{width}}  [{bar:<20}] {progress:>4.0%} "
            f"{fmt_time(sim_ps):>10} {entry.get('events', 0):>9} ev "
            f"{entry.get('events_per_sec', 0.0):>10,.0f} ev/s "
            f"ring {entry.get('ring_fill', 0.0):>4.0%} "
            f"{state}{flag}{age_txt}")
    health = reply.get("health") or {}
    if health.get("degraded"):
        lines.append("  health: DEGRADED")
    for alert in (health.get("alerts") or [])[-3:]:
        lines.append(f"  [{alert.get('t_s', 0):>7.1f}s] {alert.get('comp')}: "
                     f"{alert.get('kind')} — {alert.get('detail')}")
    return "\n".join(lines)


def _parse_commands(tokens: List[str]) -> List[Tuple[str, dict]]:
    """Parse scripted attach commands (``set-flow-sample`` eats one arg)."""
    out: List[Tuple[str, dict]] = []
    args = iter(tokens)
    for cmd in args:
        if cmd != "set-flow-sample":
            out.append((cmd, {}))
            continue
        n = next(args, None)
        if n is None:
            raise ValueError("set-flow-sample needs a sampling divisor N")
        try:
            out.append((cmd, {"n": int(n)}))
        except ValueError:
            raise ValueError(f"set-flow-sample: {n!r} is not "
                             "an integer") from None
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="splitsim-inspect attach",
        description="Attach to a running multiprocess simulation's control "
                    "plane (a run started with splitsim-run --control "
                    "--out DIR or run_mp(rundir=DIR, control=True)).")
    parser.add_argument("rundir",
                        help="run directory containing control.json")
    parser.add_argument("command", nargs="*",
                        help="scripted command sequence: status, metrics, "
                             "dump-trace, set-flow-sample N, stop, ping "
                             "(default: live status view)")
    parser.add_argument("--json", action="store_true",
                        help="print one status snapshot as JSON and exit "
                             "(scripted commands always print JSON)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="live-view refresh period in seconds")
    parser.add_argument("--wait", type=float, default=5.0,
                        help="seconds to wait for the control endpoint to "
                             "appear (a run that is still starting)")
    args = parser.parse_args(argv)
    try:
        commands = _parse_commands(args.command)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with ControlClient.attach(args.rundir, wait_s=args.wait) as client:
            if commands:
                failed = False
                for cmd, kwargs in commands:
                    reply = client.request(cmd, **kwargs)
                    print(json.dumps(reply, indent=2, default=str))
                    failed = failed or not reply.get("ok")
                return 1 if failed else 0
            if args.json:
                print(json.dumps(client.status(), indent=2, default=str))
                return 0
            return _live_view(client, args.interval)
    except ControlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _live_view(client: ControlClient, interval_s: float) -> int:
    """Refreshing status view until the run finishes or ^C."""
    try:
        while True:
            reply = client.status()
            block = render_status(reply)
            sys.stdout.write("\x1b[H\x1b[2J" if sys.stdout.isatty() else "")
            print(block, flush=True)
            if not reply.get("running"):
                print("all components done")
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        print()
        return 0
    except ControlError:
        # the run tore the control plane down: a normal way to finish
        print("run finished (control endpoint closed)")
        return 0
