"""Deterministic splittable randomness.

Every randomized decision in the library consumes from a Stream, whose
state is fully determined by a root seed and a path of string tags.
Splitting hashes (seed, tag) with blake2b, so sibling streams are
independent of draw order and runs are reproducible bit-for-bit.
"""

from __future__ import annotations

import random
from hashlib import blake2b


def split_seed(seed: int, *tags) -> int:
    h = blake2b(digest_size=8)
    h.update(repr(int(seed)).encode())
    for t in tags:
        h.update(b"/")
        h.update(str(t).encode())
    return int.from_bytes(h.digest(), "big")


class Stream:
    """A seeded random.Random with deterministic child streams."""

    def __init__(self, seed: int, *tags):
        self.seed = split_seed(seed, *tags) if tags else int(seed)
        self._r = random.Random(self.seed)

    def spawn(self, tag) -> "Stream":
        return Stream(split_seed(self.seed, tag))

    def randrange(self, *args):
        return self._r.randrange(*args)

    def scalar(self, field, height=20):
        return field.random(self._r, height)

    def vector(self, field, n, height=20):
        return [field.random(self._r, height) for _ in range(n)]
