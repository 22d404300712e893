"""Deterministic, splittable random streams.

Every random draw in the package flows through an `Rng`, which *is* a numpy
`Generator` over PCG64. A stream is fully determined by (seed, label path),
so child streams obtained via `split` are independent of the order in which
siblings are created or consumed.
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


class Rng(np.random.Generator):
    """A numpy `Generator` over the seeded PCG64 stream of a label path,
    with label-addressed children; it draws with numpy's own methods."""

    __slots__ = ("seed", "path")  # no per-stream dict: a corpus build makes ~10,700 streams

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        super().__init__(np.random.PCG64(_derive_key(self.seed, self.path)))

    def split(self, *labels: str) -> "Rng":
        """Child stream addressed by label path; independent of sibling order."""
        return Rng(self.seed, self.path + tuple(str(l) for l in labels))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={'/'.join(self.path) or '.'})"
