"""``splitsim-inspect``: post-process a SplitSim run from the command line.

One view per subcommand, every one reading its input through the run-dir
loader (:mod:`repro.obs.rundir`), so an argument may be an artifact file
or the run directory holding it — in-process and multiprocess run
directories alike (``splitsim-run --out RUN``)::

    splitsim-inspect RUN                           # spans + wait analysis
    splitsim-inspect RUN --dot wtpg.dot --json summary.json
    splitsim-inspect profile RUN --drop-head 2     # profiler post-processing
    splitsim-inspect flows RUN --top 5             # causal flow waterfalls
    splitsim-inspect timeline RUN                  # per-epoch view
    splitsim-inspect recommend RUN                 # partition advisor
    splitsim-inspect diff RUN_A RUN_B              # localize a divergence
    splitsim-inspect attach RUN                    # live status view
    splitsim-inspect attach RUN --json             # one-shot status JSON
    splitsim-inspect attach RUN dump-trace stop    # scripted commands

The summary reads spans from the run's trace and its stall timeline,
wait histograms and WTPG from the run's epoch timeline, the one record of
channel and component counters; without a timeline it prints the
loader's hint in their place and still exits 0.

Views: :mod:`.summary` (the summary and ``profile``), :mod:`.flows`,
:mod:`.timeline` (``timeline`` and ``recommend``), :mod:`.diff`,
:mod:`.attach`.  A view whose input is
missing raises :class:`~repro.obs.rundir.RunDirError`; :func:`main` prints
its hint and exits with that view's status for a missing input.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

from ..rundir import RunDirError
from . import attach, diff, flows, summary, timeline

#: subcommand -> (view, exit status when its input is missing); other
#: arguments, or a lone existing path, go to the trace summary
VIEWS = {
    "profile": (summary.profile_main, 1),
    "flows": (flows.main, 1),
    "timeline": (timeline.main, 1),
    "recommend": (timeline.recommend_main, 1),
    "diff": (diff.main, 2),  # 2 = not comparable
    "attach": (attach.main, 1),
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    lone_path = len(argv) == 1 and os.path.exists(argv[0])
    if argv and argv[0] in VIEWS and not lone_path:
        (view, missing), argv = VIEWS[argv[0]], argv[1:]
    else:
        view, missing = summary.main, 1
    try:
        return view(argv)
    except RunDirError as exc:
        print(exc, file=sys.stderr)
        return missing
    except BrokenPipeError:  # e.g. piped into head
        return 0
