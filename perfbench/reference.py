"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ``cpcodes``: codebooks are read from their JSON directly
and every distance is the direct form ``sum((x - w)**2)`` over full vectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Exact counts of distinct fixed-rate points, n = 2..9 by J = 1..4 (Table I of
# the paper).
TABLE_I = {
    2: (2, 3, 4, 5),
    3: (3, 6, 10, 15),
    4: (5, 15, 33, 56),
    5: (7, 27, 68, 132),
    6: (11, 60, 207, 517),
    7: (14, 97, 415, 1202),
    8: (20, 186, 1038, 3888),
    9: (27, 335, 2440, 11911),
}

REL_TOL = 1e-9


@dataclass(frozen=True)
class Codebook:
    variant: int
    n: int
    parts: tuple[tuple[int, ...], ...]
    levels: tuple[tuple[float, ...], ...]

    @property
    def J(self) -> int:
        return len(self.parts)

    def initial_vectors(self) -> list[np.ndarray]:
        """Each sphere's level values repeated by multiplicity, descending."""
        return [np.repeat(np.asarray(lv, dtype=float), p) for p, lv in zip(self.parts, self.levels)]

    def sizes(self) -> list[int]:
        """Exact codeword count of each sphere."""
        out = []
        for parts, levels in zip(self.parts, self.levels):
            size = math.factorial(self.n)
            for p in parts:
                size //= math.factorial(p)
            if self.variant == 2:
                signs = self.n - parts[-1] if levels[-1] == 0.0 else self.n
                size <<= signs
            out.append(size)
        return out

    def rate_fixed(self) -> float:
        return math.log2(sum(self.sizes())) / self.n


def load_codebook(path) -> Codebook:
    with open(path) as fp:
        doc = json.load(fp)
    return Codebook(
        variant=int(doc["variant"]),
        n=int(doc["n"]),
        parts=tuple(tuple(int(p) for p in sc["parts"]) for sc in doc["subcodes"]),
        levels=tuple(tuple(float(v) for v in sc["levels"]) for sc in doc["subcodes"]),
    )


def placed_codewords(x: np.ndarray, cb: Codebook) -> list[np.ndarray]:
    """Per sphere, the codeword that puts the levels in the sort order of each row."""
    keys = np.abs(x) if cb.variant == 2 else x
    order = np.argsort(-keys, axis=1, kind="stable")
    signs = np.where(x < 0, -1.0, 1.0)
    out = []
    for v in cb.initial_vectors():
        w = np.empty_like(x)
        np.put_along_axis(w, order, np.broadcast_to(v, x.shape), axis=1)
        if cb.variant == 2:
            w = np.where(w != 0.0, signs * w, 0.0)
        out.append(w)
    return out


def sphere_distances(x: np.ndarray, cb: Codebook) -> np.ndarray:
    """(rows, J) squared distances from each row to the best codeword of each sphere."""
    return np.stack([np.sum((x - w) ** 2, axis=1) for w in placed_codewords(x, cb)], axis=1)


def codeword_sphere(rows: np.ndarray, cb: Codebook) -> np.ndarray:
    """Sphere index of each row that is a codeword of ``cb``, else -1."""
    keys = np.abs(rows) if cb.variant == 2 else rows
    desc = -np.sort(-keys, axis=1)
    sphere = np.full(len(rows), -1)
    for j, v in reversed(list(enumerate(cb.initial_vectors()))):
        sphere[np.all(desc == v, axis=1)] = j
    return sphere


def nearest_codeword_failures(x: np.ndarray, rows: np.ndarray, cb: Codebook) -> list[str]:
    """Why ``rows`` is not a nearest-codeword reconstruction of ``x``; empty when it is.

    Each row must be a codeword of some sphere, and no codeword of any sphere
    may be nearer to its input than it by more than ``REL_TOL`` relative.
    """
    if rows.shape != x.shape:
        return [f"{rows.shape[0]} reconstructions of shape {rows.shape[1:]} for {x.shape} inputs"]
    problems = []
    bad = np.flatnonzero(codeword_sphere(rows, cb) < 0)
    if bad.size:
        problems.append(f"{bad.size} rows are not codewords (first: row {bad[0]})")
    got = np.sum((x - rows) ** 2, axis=1)
    best = sphere_distances(x, cb).min(axis=1)
    worse = np.flatnonzero(got > best * (1.0 + REL_TOL))
    if worse.size:
        i = worse[0]
        problems.append(
            f"{worse.size} rows are farther than the nearest codeword "
            f"(first: row {i}, {float(got[i])!r} > {float(best[i])!r})"
        )
    return problems


def monte_carlo_distortion(cb: Codebook, samples: int, seed: int, chunk: int = 1 << 16):
    """Per-sample distortion of ``cb`` on N(0, 1) inputs and its standard error,
    from a generator unrelated to the program's substreams."""
    rng = np.random.default_rng([int(seed), 0xBE7C4])
    total = total_sq = 0.0
    left = samples
    while left:
        m = min(chunk, left)
        x = rng.standard_normal((m, cb.n))
        d = sphere_distances(x, cb).min(axis=1) / cb.n
        total += float(d.sum())
        total_sq += float((d * d).sum())
        left -= m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


def tie_scale(x: np.ndarray, cb: Codebook, max_factor: float = 1.5) -> float | None:
    """Factor in [1/max_factor, max_factor], closest to 1, that puts ``x`` on a
    boundary between its two nearest spheres; None when there is none.

    Scaling keeps the sort order, so each sphere's placed codeword ``w_j`` is
    fixed and ``d_j(a) = a^2 |x|^2 - 2a <x, w_j> + |w_j|^2``: two of them are
    equal at one ``a``.
    """
    ws = [w[0] for w in placed_codewords(x[None, :], cb)]
    dots = [float(x @ w) for w in ws]
    norms = [float(w @ w) for w in ws]
    best = None
    for i in range(cb.J):
        for k in range(i + 1, cb.J):
            if dots[i] == dots[k]:
                continue
            a = (norms[k] - norms[i]) / (2.0 * (dots[k] - dots[i]))
            if not 1.0 / max_factor <= a <= max_factor:
                continue
            if best is not None and abs(math.log(a)) >= abs(math.log(best)):
                continue
            d = sphere_distances(a * x[None, :], cb)[0]
            if min(d[i], d[k]) <= d.min() * (1.0 + 1e-12):
                best = a
    return best


def make_corpus(seed: int, vectors: int, n: int, codebooks) -> np.ndarray:
    """Gaussian rows, a tenth rounded to a 0.5 grid (ties inside a vector), and
    a twentieth per codebook scaled onto a boundary between two of its spheres
    (near-ties between spheres)."""
    rng = np.random.default_rng([int(seed), 0xC0DEC])
    x = rng.standard_normal((vectors, n))
    grid = vectors // 10
    x[:grid] = np.round(x[:grid] * 2.0) / 2.0
    start = grid
    per_book = vectors // 20
    for cb in codebooks:
        for i in range(start, start + per_book):
            a = tie_scale(x[i], cb)
            if a is not None:
                x[i] *= a
        start += per_book
    return x[rng.permutation(vectors)]


def write_csv(path, x: np.ndarray) -> None:
    with open(path, "w", newline="\n") as fp:
        fp.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in x)


def read_csv(path, n: int) -> np.ndarray:
    with open(path) as fp:
        rows = [[float(v) for v in line.split(",")] for line in fp if line.strip()]
    return np.asarray(rows, dtype=float).reshape(len(rows), n)
