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

# rows drawn, sorted and scored at a time; cache-sized, the best measured on a
# 2-core Xeon with 2 MiB of L2 per core
CHUNK_ROWS = 8192


def substream(seed: int, label: str, shard: int = 0) -> np.random.Generator:
    """Independent generator for (seed, label, shard)."""
    key = zlib.crc32(label.encode("ascii"))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(key, int(shard)))
    return np.random.Generator(np.random.Philox(seq))


def normal_blocks(rng: np.random.Generator, rows: int, n: int, sigma: float = 1.0):
    """``(lo, x)`` for consecutive blocks of ``rows`` draws of n i.i.d.
    N(0, sigma^2) variates, ``CHUNK_ROWS`` rows at a time.

    Consecutive draws continue one stream and ``x *= sigma`` rounds as ``x *
    sigma`` does, so ``x`` is bit for bit rows ``lo:lo + len(x)`` of
    ``rng.standard_normal((rows, n)) * sigma``.  Every block is drawn into
    the same buffer, so ``x`` holds its rows until the next block is drawn;
    one buffer reused, rather than one freed per block, keeps the allocator
    from returning its pages to the system and faulting them in again.
    """
    buf = np.empty((min(CHUNK_ROWS, rows), n))
    for lo in range(0, rows, CHUNK_ROWS):
        x = buf[: rows - lo]
        rng.standard_normal(out=x)
        x *= sigma
        yield lo, x
