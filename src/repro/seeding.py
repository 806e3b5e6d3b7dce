"""Deterministic seed derivation, centralized.

Every stochastic corner of the system -- fault injection RNGs, retry
jitter, fuzz strategies, synthetic data generators -- derives its random
stream from a *root seed* plus a path of salt parts, so that

* the same root seed always reproduces the same behaviour everywhere
  (runs, fault schedules, retry delays, generated scenarios), and
* independent consumers (two disks, two jobs, two fuzz families) get
  *uncorrelated* streams even though they share one root seed.

The derivation is a stable string key: ``derive_key(7, "disk", 2)`` is
``"7:disk:2"``.  ``random.Random`` accepts the string directly (it
hashes it internally, version-stable since Python 3), which is exactly
the idiom the fault and serve layers used before this module existed --
so routing them through here keeps every pinned stream bit-identical.

For consumers that need an *integer* seed (numpy generators, hypothesis)
``derive_int`` hashes the same key with SHA-256, so it is stable across
processes and Python versions (``hash()`` is salted per process and must
never be used for this).

A stream that travels inside a checkpoint is a :class:`KeyedRng`: the
same ``random.Random(key)`` draws, but it pickles as its key and the
number of draws taken (a few dozen bytes) instead of the Mersenne-Twister
state (625 ints), and fast-forwards on load.
"""

from __future__ import annotations

import hashlib
import random

__all__ = ["derive_key", "derive_rng", "derive_int", "KeyedRng"]


def derive_key(*parts: object) -> str:
    """The canonical salt key: parts joined with ``:``."""
    return ":".join(str(part) for part in parts)


def derive_rng(*parts: object) -> random.Random:
    """A ``random.Random`` seeded from the derived key.

    ``derive_rng(seed, "disk", 2)`` is exactly
    ``random.Random(f"{seed}:disk:2")`` -- the historical call-site
    spelling -- so existing pinned streams do not move.
    """
    return random.Random(derive_key(*parts))


def derive_int(*parts: object, bits: int = 64) -> int:
    """A stable non-negative integer derived from the key.

    Process-independent (SHA-256, not ``hash()``); suitable for numpy
    ``default_rng`` seeds and hypothesis ``seed()`` values.
    """
    digest = hashlib.sha256(derive_key(*parts).encode()).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


class KeyedRng:
    """``random.Random(key)``, drawn only through :meth:`random`, that
    pickles as ``(key, draws)``."""

    __slots__ = ("key", "draws", "_rng")

    def __init__(self, *parts: object) -> None:
        self.key = derive_key(*parts)
        #: Draws taken so far.
        self.draws = 0
        self._rng = random.Random(self.key)

    def random(self) -> float:
        """The stream's next float in [0, 1)."""
        self.draws += 1
        return self._rng.random()

    def __getstate__(self) -> tuple[str, int]:
        return self.key, self.draws

    def __setstate__(self, state: tuple[str, int]) -> None:
        self.key, self.draws = state
        rng = self._rng = random.Random(self.key)
        for _ in range(self.draws):
            rng.random()
