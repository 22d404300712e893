"""Deterministic, splittable random streams.

Every random draw in the package flows through an `Rng`. A stream is fully
determined by (seed, label path), so child streams obtained via `split` are
independent of the order in which siblings are created or consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_key(seed: int, path: tuple[str, ...]) -> np.ndarray:
    """The first 16 bytes of the path's SHA-256 as four little-endian uint32
    words: the words `SeedSequence` splits the equal 128-bit int into, read
    without building the int."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in path:
        h.update(b"/")
        h.update(label.encode())
    return np.frombuffer(h.digest()[:16], dtype="<u4")


class Rng:
    """Seeded PCG64 stream with label-addressed children."""

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        self._gen = np.random.Generator(np.random.PCG64(_derive_key(self.seed, self.path)))

    def split(self, *labels: str) -> "Rng":
        """Child stream addressed by label path; independent of sibling order."""
        return Rng(self.seed, self.path + tuple(str(l) for l in labels))

    def uniform(self, size=None, low: float = 0.0, high: float = 1.0):
        return self._gen.uniform(low, high, size=size)

    def normal(self, size=None, scale: float = 1.0):
        return self._gen.normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, seq, size=None, replace: bool = True):
        return self._gen.choice(seq, size=size, replace=replace)

    def shuffle(self, x) -> None:
        self._gen.shuffle(x)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={'/'.join(self.path) or '.'})"
