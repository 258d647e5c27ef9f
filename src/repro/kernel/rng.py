"""Deterministic random-number utilities.

Every stochastic piece of the simulator derives its generator from a root
seed plus a stable string label, so adding a new consumer of randomness never
perturbs the streams of existing ones (a classic reproducibility bug in
simulators that share one global RNG).
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from functools import lru_cache
from typing import Sequence, Tuple


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 64-bit seed from ``root_seed`` and a string label."""
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(root_seed: int, label: str) -> random.Random:
    """Create an independent :class:`random.Random` stream."""
    return random.Random(derive_seed(root_seed, label))


@lru_cache(maxsize=None)
def zipf_cdf(n: int, theta: float) -> Tuple[float, ...]:
    """Cumulative normalized harmonic weights of ranks ``0..n-1`` (the last
    one exactly 1.0), built once per ``(n, theta)``."""
    weights = [1.0 / float(rank + 1) ** theta for rank in range(n)]
    total = sum(weights)
    cdf: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


class ZipfGenerator:
    """Sample integers ``0..n-1`` from a Zipf distribution with skew ``theta``.

    Uses the inverse-CDF method over the precomputed normalized harmonic
    weights (:func:`zipf_cdf`, shared by every generator of one shape).
    ``theta=0`` degenerates to uniform; the NetCache/Pegasus case study uses
    ``theta=1.8`` over the key space, matching the paper.
    """

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.n = n
        self.theta = theta
        self._rng = rng
        self._cdf = zipf_cdf(n, theta)

    def sample(self) -> int:
        """Return one sample; rank 0 is the most popular item."""
        # the first rank whose CDF reaches u; the search stops at the last
        # rank, whose CDF is 1.0 > u
        return bisect_left(self._cdf, self._rng.random(), 0, self.n - 1)

    def popularity(self, rank: int) -> float:
        """Probability mass of the item at ``rank`` (0-based)."""
        prev = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - prev


def exponential_ps(rng: random.Random, mean_ps: int) -> int:
    """Exponentially distributed interval in picoseconds with given mean."""
    if mean_ps <= 0:
        raise ValueError("mean must be positive")
    return max(1, int(rng.expovariate(1.0 / mean_ps)))


def shuffled(items: Sequence, rng: random.Random) -> list:
    """Return a shuffled copy of ``items`` without mutating the input."""
    out = list(items)
    rng.shuffle(out)
    return out
