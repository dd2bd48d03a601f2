"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a Philox (counter-based)
generator keyed by ``(seed, crc32(label), shard)``.  Shards have a fixed size,
so splitting work across threads never changes which numbers a shard sees and
results are reproducible for a fixed seed regardless of worker count.
"""

from __future__ import annotations

import zlib

import numpy as np

GENERATOR_ID = "philox4x64/seedseq(entropy=seed, spawn_key=(crc32(label), shard))"

SHARD_VECTORS = 1 << 16  # vectors per evaluation shard; fixed, never tuned per run

MIN_TRAINING_SAMPLES = 10_000  # fewest rows a designer's training draw may have


def substream(seed: int, label: str, shard: int = 0) -> np.random.Generator:
    """Independent generator for (seed, label, shard)."""
    key = zlib.crc32(label.encode("ascii"))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(key, int(shard)))
    return np.random.Generator(np.random.Philox(seq))
