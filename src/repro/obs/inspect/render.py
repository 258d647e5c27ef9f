"""What the ``splitsim-inspect`` views share: the count argument type,
the intensity bar and the ``--json PATH`` output."""

from __future__ import annotations

import argparse
import json
from typing import Sequence

#: Intensity glyphs, blank (zero) to full (the peak).
GLYPHS = " .:*#"


def count(text: str) -> int:
    """The argparse type of every count argument: an integer of at
    least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def intensity_bar(values: Sequence[float], peak: float) -> str:
    """One glyph per value, scaled to ``peak``; a nonzero value never
    renders blank."""
    top = len(GLYPHS) - 1
    return "".join(GLYPHS[min(top, int(v / peak * top + 0.999))]
                   if peak > 0 else GLYPHS[0] for v in values)


def write_json(path: str, doc) -> None:
    """Write a view's machine-readable output and say so."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {path}")
