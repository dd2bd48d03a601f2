"""Encoding, decoding, and bijective indexing for permutation codebooks.

Encoding a vector against a union of permutation subcodebooks costs one sort
of the input plus O(J n): subcode j's best codeword is its initial vector
``v_j`` laid over the sorted keys ``s`` (``|x|`` for sign-carrying codebooks,
whose signs drop out of ``(x - w)**2`` exactly).  One rule picks the sphere
for the encoder, the evaluator and the designers.  :func:`sorted_distances`
takes a sorted block stored coordinate-major, shape ``(n, m)``, and returns
the ``(J, m)`` distances, row j being ``(s[0] - v_j[0])**2 + (s[1] -
v_j[1])**2 + ...`` added left to right; :func:`nearest_subcode` takes each
column's smallest entry, ties going to the smaller sphere.  All callers thus
agree on the sphere and its distance bit for bit.  :func:`score_draws` is
the one Monte Carlo scoring loop: it applies the rule to drawn Gaussian
blocks for evaluation, the designers' finishing pass and the swap test.

A coded index is two arrays, ``spheres`` and ``ranks``, from the encoder to
the stream and back.  :func:`encode_batch` returns them (with the codewords),
:func:`write_stream` writes them, :func:`read_stream` returns them and
:func:`decode_batch` maps them back to codewords.  Ranks are int64, or Python
integers in an object array for codebooks whose rank arithmetic reaches
``2**63``.  The batch routines walk the rows in blocks of
``streams.CHUNK_ROWS``, the block size of every draw, sort and Lloyd round,
so their temporaries stay O(block), and each block costs exactly one stable
sort of the keys, shared by every subcode.  The one-vector callers
(:func:`encode_cpc`, :func:`rank_codeword`, :func:`unrank_codeword`) run one
row through the same routines.

Index layout.  Codewords are ranked lexicographically with level 0 (the
largest value) as the smallest symbol, so the initial codeword itself always
has rank 0.  For sign-carrying codebooks the rank is
``perm_rank * 2**h + sign_bits`` where the h sign bits follow vector position
order, first nonzero-level position in the most significant bit, bit 1 for a
negative entry.  Zero-level positions carry no sign bit and decode to +0.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combinatorics import Composition, multinomial_size
from .streams import CHUNK_ROWS, normal_blocks

VARIANT_I = 1
VARIANT_II = 2

_MAGIC = b"CPC1"


class StreamError(ValueError):
    """Encoded stream is corrupt or inconsistent with the codebook."""


@dataclass(frozen=True)
class InitialCodeword:
    """A composition plus its strictly decreasing level values."""

    composition: Composition
    levels: tuple[float, ...]
    variant: int = VARIANT_I

    def __post_init__(self):
        # "+ 0.0" stores a -0.0 level as +0.0, the zero that the encoder writes
        object.__setattr__(self, "levels", tuple(float(v) + 0.0 for v in self.levels))
        if self.variant not in (VARIANT_I, VARIANT_II):
            raise ValueError(f"variant must be {VARIANT_I} or {VARIANT_II}")
        if len(self.levels) != self.composition.num_levels:
            raise ValueError(
                f"{len(self.levels)} levels for {self.composition.num_levels} groups"
            )
        if not all(math.isfinite(v) for v in self.levels):
            raise ValueError("levels must be finite")
        if any(a <= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be strictly decreasing, got {self.levels}")
        if self.variant == VARIANT_II and self.levels[-1] < 0:
            raise ValueError("sign-carrying codebooks need nonnegative levels")

    # Read on every rank and unrank, so each is computed once per codeword.

    @cached_property
    def n(self) -> int:
        return self.composition.n

    @cached_property
    def sign_bits(self) -> int:
        """Number of free sign positions: n, or n - n_K when the last level is 0."""
        if self.variant == VARIANT_I:
            return 0
        if self.levels[-1] == 0.0:
            return self.n - self.composition.parts[-1]
        return self.n

    @cached_property
    def perms(self) -> int:
        """Number of distinct arrangements of the initial codeword."""
        return multinomial_size(self.composition.parts)

    @cached_property
    def size(self) -> int:
        return self.perms << self.sign_bits

    @cached_property
    def _symbol_of(self) -> dict:
        """Level index of each level value."""
        return {lv: i for i, lv in enumerate(self.levels)}

    def initial_vector(self) -> np.ndarray:
        """The level values expanded by multiplicity (descending)."""
        return np.repeat(np.asarray(self.levels, dtype=float), self.composition.parts)


@dataclass(frozen=True)
class _Tables:
    """Per-subcode arrays that the batch routines index by sphere; read-only."""

    dtype: type  # of ranks and of the counts behind them: np.int64, or object past 2**63
    symbols: np.ndarray  # (J, n) level index at each place of the descending order
    vectors: np.ndarray  # (J, n) initial codewords
    levels: np.ndarray  # (J, K) level values, zero padded to the longest composition
    parts: np.ndarray  # (J, K) level multiplicities, zero padded
    perms: np.ndarray  # (J,) distinct permutations of each initial codeword
    sign_bits: np.ndarray  # (J,)
    sizes: np.ndarray  # (J,) codebook sizes as exact Python integers


@dataclass(frozen=True)
class ConcentricCode:
    """Union of permutation subcodebooks sharing one dimension and variant."""

    subcodes: tuple[InitialCodeword, ...]
    probs: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "subcodes", tuple(self.subcodes))
        if not self.subcodes:
            raise ValueError("need at least one subcode")
        n, variant = self.subcodes[0].n, self.subcodes[0].variant
        if any(cw.n != n or cw.variant != variant for cw in self.subcodes):
            raise ValueError("subcodes must share dimension and variant")
        if self.probs is not None:
            probs = tuple(float(p) for p in self.probs)
            object.__setattr__(self, "probs", probs)
            if len(probs) != len(self.subcodes):
                raise ValueError("one probability per subcode required")
            if not all(0 <= p <= 1 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                raise ValueError("probabilities must be nonnegative and sum to 1")

    @property
    def n(self) -> int:
        return self.subcodes[0].n

    @property
    def variant(self) -> int:
        return self.subcodes[0].variant

    @property
    def J(self) -> int:
        return len(self.subcodes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(cw.size for cw in self.subcodes)

    @cached_property
    def _tables(self) -> _Tables:
        comps = [cw.composition for cw in self.subcodes]
        K = max(c.num_levels for c in comps)
        perms = [cw.perms for cw in self.subcodes]
        # rank arithmetic multiplies an arrangement count by at most n
        fits = max(perms) * self.n < 2**63 and max(self.sizes) < 2**63
        dtype = np.int64 if fits else object
        levels = np.zeros((self.J, K))
        parts = np.zeros((self.J, K), dtype=np.int64)
        for j, cw in enumerate(self.subcodes):
            levels[j, : len(cw.levels)] = cw.levels
            parts[j, : len(cw.levels)] = cw.composition.parts
        tables = _Tables(
            dtype=dtype,
            symbols=np.array([np.repeat(np.arange(c.num_levels), c.parts) for c in comps]),
            vectors=np.array([cw.initial_vector() for cw in self.subcodes]),
            levels=levels,
            parts=parts,
            perms=np.array(perms, dtype=dtype),
            sign_bits=np.array([cw.sign_bits for cw in self.subcodes]),
            sizes=np.array(self.sizes, dtype=object),
        )
        for value in vars(tables).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return tables


# ---------------------------------------------------------------------------
# batch core


def encode_batch(X: np.ndarray, code: ConcentricCode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest codeword in the union codebook for every row of ``X``, with its index.

    Returns ``(spheres, ranks, W)``: the chosen subcode of each row, the rank
    of its codeword there, and the codewords themselves.  Ranks are int64, or
    Python integers in an object array for codebooks past int64.  Rows must be
    finite; a row holding NaN or an infinity raises ``ValueError``.
    """
    X = _finite_rows(X, code.n)
    tables = code._tables
    spheres = np.empty(len(X), dtype=np.int64)
    ranks = np.empty(len(X), dtype=tables.dtype)
    W = np.empty_like(X)
    for lo in range(0, len(X), CHUNK_ROWS):
        block = slice(lo, lo + CHUNK_ROWS)
        spheres[block], symbols, W[block] = _nearest(X[block], code)
        signed = np.ascontiguousarray(W[block].T) if code.variant == VARIANT_II else None
        ranks[block] = _rank(symbols, tables.perms[spheres[block]], signed)
    return spheres, ranks, W


def _finite_rows(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected rows of length {n}, got shape {X.shape}")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))}: non-finite value")
    return X


def _nearest(x: np.ndarray, code: ConcentricCode):
    """The nearest spheres, the level index at each position (one row per
    position) and the codewords of the rows of a block, from one sort."""
    m, n = x.shape
    keys = np.abs(x) if code.variant == VARIANT_II else x
    # the block's one sort; equal keys keep their index order
    order = np.argsort(-keys, axis=1, kind="stable")
    place = np.empty_like(order)  # place[r, p]: rank of coordinate p in the descending order
    place[np.arange(m)[:, None], order] = np.arange(n)
    spheres = nearest_subcode(sorted_distances(keys[np.arange(m), order.T], code))[0]
    tables = code._tables
    w = tables.vectors[spheres[:, None], place]
    if code.variant == VARIANT_II:
        w = np.where(w != 0.0, np.where(x < 0, -w, w), 0.0)  # a zero level stays +0.0
    return spheres, tables.symbols[spheres, place.T], w


def decode_batch(spheres, ranks, code: ConcentricCode) -> np.ndarray:
    """Codewords addressed by (sphere, rank) pairs, one row each.

    The inverse of the indices :func:`encode_batch` returns.  Raises
    ``ValueError`` for a sphere or rank outside the codebook.
    """
    spheres = np.asarray(spheres, dtype=np.int64)
    ranks = np.asarray(ranks, dtype=object)  # exact, whatever integer type arrived
    if spheres.ndim != 1 or spheres.shape != ranks.shape:
        raise ValueError("need one sphere and one rank per row")
    bad = (spheres < 0) | (spheres >= code.J)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i}: sphere {spheres[i]} out of range for J={code.J}")
    tables = code._tables
    bad = (ranks < 0) | (ranks >= tables.sizes[spheres])
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"row {i}: rank {ranks[i]} out of range [0, {tables.sizes[spheres[i]]})")
    ranks = ranks.astype(tables.dtype)
    W = np.empty((len(spheres), code.n))
    for lo in range(0, len(W), CHUNK_ROWS):
        block = slice(lo, lo + CHUNK_ROWS)
        W[block] = _decode_block(spheres[block], ranks[block], code.variant, tables)
    return W


def _decode_block(spheres: np.ndarray, ranks: np.ndarray, variant: int, tables: _Tables):
    h = tables.sign_bits[spheres]
    perm_ranks = ranks >> h
    n = tables.symbols.shape[1]
    symbols = _unrank(perm_ranks, tables.parts.T[:, spheres], tables.perms[spheres], n)
    w = tables.levels[spheres, np.array(symbols)]  # one row per position
    if variant == VARIANT_II:
        w = _apply_signs(w, ranks - (perm_ranks << h))
    return np.transpose(w)


# The ranking routines below serve one codeword and a block of them alike.
# Each entry of ``symbols``, ``counts`` and ``values`` (one per position or
# level) is either a Python number, for one codeword, or an array over the
# rows of a block, and the same arithmetic runs on either.  Block arithmetic
# is int64, or Python integers in object arrays past 2**63.


def _rank(symbols, perms, values=None):
    """Index of the codeword whose level index at each position is ``symbols``.

    ``perms`` is the number of distinct arrangements of those symbols.  The
    permutation rank is lexicographic with level 0 the smallest symbol.  When
    the codeword's entries ``values`` are given, its sign bits follow: one
    per nonzero entry, 1 for a negative one, the first one most significant.
    """
    n = len(symbols)
    rank, remaining = 0 * perms, perms  # remaining: arrangements of symbols[p:]
    for p in range(n - 1):
        here, smaller, equal = symbols[p], 0, 1
        for later in symbols[p + 1 :]:
            smaller = smaller + (later < here)
            equal = equal + (later == here)
        # every arrangement with a smaller symbol at p comes first
        rank = rank + remaining * smaller // (n - p)
        remaining = remaining * equal // (n - p)
    if values is not None:
        for v in values:
            rank = rank * (1 + (v != 0.0)) + (v < 0.0)
    return rank


def _unrank(rank, counts, perms, n: int) -> list:
    """Level index at each position of the arrangement with permutation rank
    ``rank`` of ``n`` symbols, ``counts[k]`` of them level ``k``; ``perms`` is
    the number of arrangements.  The inverse of :func:`_rank` without signs."""
    counts = list(counts)
    remaining = perms
    symbols = []
    for p in range(n):
        # the symbol at p is the (rank * (n - p) // remaining)-th smallest left
        target = rank * (n - p) // remaining
        here = below = upto = 0
        for count in counts:
            upto = upto + count
            before = upto <= target  # every copy of this level sorts before the target
            here = here + before
            below = below + count * before
        taken = 0
        for k, count in enumerate(counts):
            hit = here == k
            taken = taken + count * hit
            counts[k] = count - hit
        rank = rank - remaining * below // (n - p)
        remaining = remaining * taken // (n - p)
        symbols.append(here)
    return symbols


def _apply_signs(values, bits) -> list:
    """Negate the nonzero entries whose sign bit is set in ``bits``."""
    out = list(values)
    for p in reversed(range(len(out))):
        nonzero = out[p] != 0.0
        negative = (bits & nonzero) != 0
        out[p] = out[p] * (1 - 2 * negative)
        bits = bits >> nonzero
    return out


def sort_by_variant(x: np.ndarray, variant: int, out: np.ndarray | None = None) -> np.ndarray:
    """Descending sort along the last axis, of magnitudes for variant II.

    Bit for bit ``-np.sort(-keys)``, in one array: the negated keys are
    sorted and negated back in place, in ``out`` when it is given (the shape
    of ``x``; it may be ``x`` itself).  Otherwise ``x`` is left unchanged.
    """
    if variant == VARIANT_II:
        keys = np.abs(x, out=out)
        np.negative(keys, out=keys)
    else:
        keys = np.negative(x, out=out)
    keys.sort(axis=-1)
    np.negative(keys, out=keys)
    return keys


def sorted_distances(sT: np.ndarray, code: ConcentricCode, out: np.ndarray | None = None) -> np.ndarray:
    """``(J, m)`` squared distances from the columns of the sorted block
    ``sT`` (``(n, m)``, ``sort_by_variant(x, variant).T``) to each
    subcode's best codeword: ``sum_p (sT[p] - v_j[p])**2``, added left to
    right over p, in ``out`` when it is given.  Sums of squares, so never
    negative and never -0.0."""
    levels = code._tables.vectors.T[:, :, None]  # (n, J, 1): each subcode's level at p
    m = sT.shape[1]
    d = np.empty((code.J, m)) if out is None else out
    d.fill(0.0)
    t = np.empty((code.J, m))
    for s, level in zip(sT, levels):
        np.subtract(s, level, out=t)
        np.multiply(t, t, out=t)
        d += t
    return d


def nearest_subcode(d: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None):
    """The row of the smallest entry in each column of the ``(J, m)`` ``d``,
    and that entry; a tie goes to the smaller row, as with ``np.argmin``.
    ``out`` is an ``(assign, mind)`` pair of ``(m,)`` intp and float arrays
    to write them into.

    Branch-free: for finite entries that are never -0.0, ``np.minimum`` is
    the strict-``<`` update, and the winning row index only grows.
    """
    if out is None:
        out = np.empty(d.shape[1], dtype=np.intp), np.empty(d.shape[1])
    assign, mind = out
    assign.fill(0)
    np.copyto(mind, d[0])
    better = np.empty(d.shape[1], dtype=bool)
    for j in range(1, d.shape[0]):
        np.less(d[j], mind, out=better)
        np.minimum(mind, d[j], out=mind)
        np.maximum(assign, better * j, out=assign)
    return assign, mind


def score_draws(rng: np.random.Generator, rows: int, sigma: float, codes, dists) -> list[np.ndarray]:
    """Score ``rows`` Gaussian draws against ``codes`` (one shared dimension
    n) by the encoder's rule: code i's nearest distance for row r goes into
    ``dists[i][r]``, and each code's ``(J,)`` int64 sphere hits are returned.
    Bit for bit the rule on the whole draw ``rng.standard_normal((rows, n)) *
    sigma``, drawn ``CHUNK_ROWS`` rows at a time (:func:`streams.normal_blocks`)
    and sorted once per variant into one reused coordinate-major block.
    """
    n = codes[0].n
    size = min(CHUNK_ROWS, rows)
    keys, sT = np.empty((size, n)), np.empty((n, size))
    d = np.empty((max(code.J for code in codes), size))
    assign = np.empty(size, dtype=np.intp)
    hits = [np.zeros(code.J, dtype=np.int64) for code in codes]
    for lo, x in normal_blocks(rng, rows, n, sigma):
        b = len(x)
        for variant in dict.fromkeys(code.variant for code in codes):
            np.copyto(sT[:, :b], sort_by_variant(x, variant, out=keys[:b]).T)
            for code, dist, h in zip(codes, dists, hits):
                if code.variant == variant:
                    nearest_subcode(sorted_distances(sT[:, :b], code, out=d[: code.J, :b]),
                                    out=(assign[:b], dist[lo : lo + b]))
                    h += np.bincount(assign[:b], minlength=code.J)
    return hits


# ---------------------------------------------------------------------------
# one-vector callers


def encode_cpc(x: np.ndarray, code: ConcentricCode) -> tuple[tuple[int, int], np.ndarray]:
    """Nearest codeword in the union codebook, with its index: what
    :func:`encode_batch` returns for ``x`` as its one row, as
    ``((sphere, rank), w)`` with the rank a Python integer."""
    x = np.asarray(x, dtype=float)
    if x.shape != (code.n,):
        raise ValueError(f"expected a vector of length {code.n}, got shape {x.shape}")
    spheres, symbols, w = _nearest(_finite_rows(x[None, :], code.n), code)
    j = int(spheres[0])
    signed = w[0].tolist() if code.variant == VARIANT_II else None
    rank = _rank(symbols[:, 0].tolist(), int(code._tables.perms[j]), signed)
    return (j, rank), w[0]


def rank_codeword(w: np.ndarray, cw: InitialCodeword) -> int:
    """Exact index of a codeword in [0, size): permutation rank, then sign bits."""
    w = np.asarray(w, dtype=float)
    if w.shape != (cw.n,):
        raise ValueError(f"expected a vector of length {cw.n}")
    values = w.tolist()
    lookup = cw._symbol_of
    symbols = []
    for v in values:
        i = lookup.get(abs(v) if cw.variant == VARIANT_II else v)
        if i is None:
            raise ValueError(f"component {v!r} matches no level of {cw.levels}")
        symbols.append(i)
    counts = tuple(symbols.count(i) for i in range(len(cw.levels)))
    if counts != cw.composition.parts:
        raise ValueError(
            f"level multiplicities {counts} do not match composition {cw.composition}"
        )
    signed = values if cw.variant == VARIANT_II else None
    return _rank(symbols, cw.perms, signed)


def unrank_codeword(rank: int, cw: InitialCodeword) -> np.ndarray:
    """Inverse of :func:`rank_codeword`."""
    if not 0 <= rank < cw.size:
        raise ValueError(f"rank {rank} out of range [0, {cw.size})")
    h = cw.sign_bits
    perm_rank = rank >> h
    symbols = _unrank(perm_rank, cw.composition.parts, cw.perms, cw.n)
    values = [cw.levels[s] for s in symbols]
    if cw.variant == VARIANT_II:
        values = _apply_signs(values, rank - (perm_rank << h))
    return np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# serialization


def code_to_dict(code: ConcentricCode) -> dict:
    doc = {
        "variant": code.variant,
        "n": code.n,
        "subcodes": [
            {"parts": list(cw.composition.parts), "levels": list(cw.levels)}
            for cw in code.subcodes
        ],
    }
    if code.probs is not None:
        doc["probs"] = list(code.probs)
    return doc


def _json_values(values, kinds, what) -> tuple:
    """``values`` as a tuple if each one's type is in ``kinds`` (no bool is an int here)."""
    values = tuple(values)
    if any(type(v) not in kinds for v in values):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be JSON {names} values, got {list(values)}")
    return values


def code_from_dict(doc: dict) -> ConcentricCode:
    """The codebook of ``doc``; ``ValueError`` for an ``n``, ``variant`` or part
    that is no JSON integer, or a level or prob that is no JSON number."""
    n, variant = _json_values((doc["n"], doc["variant"]), (int,), "n and variant")
    subcodes = tuple(
        InitialCodeword(Composition(_json_values(sc["parts"], (int,), "parts")),
                        _json_values(sc["levels"], (int, float), "levels"), variant)
        for sc in doc["subcodes"]
    )
    probs = _json_values(doc["probs"], (int, float), "probs") if "probs" in doc else None
    code = ConcentricCode(subcodes, probs=probs)
    if code.n != n:
        raise ValueError(f"declared n={n} but subcodes have n={code.n}")
    return code


def save_code(fp, code: ConcentricCode, extra: dict | None = None) -> None:
    """Write ``code``, with the top-level keys of ``extra``, to the open text file ``fp``."""
    doc = code_to_dict(code)
    if extra:
        doc.update(extra)
    json.dump(doc, fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_code(path) -> ConcentricCode:
    with open(path) as fp:
        return code_from_dict(json.load(fp))


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return


def _read_varint(data: bytes, pos: int) -> tuple[int | None, int]:
    """The varint that starts at ``data[pos]`` and the position after it;
    ``(None, pos)`` at the end of ``data``; one longer than need be is corrupt."""
    try:
        byte = data[pos]
    except IndexError:
        return None, pos
    value = 0
    shift = 0
    while byte & 0x80:
        value |= (byte & 0x7F) << shift
        shift += 7
        pos += 1
        try:
            byte = data[pos]
        except IndexError:
            raise StreamError("truncated varint") from None
    if shift and not byte:
        raise StreamError(f"overlong varint ending at byte {pos}")
    return value | byte << shift, pos + 1


def write_stream(fp, code: ConcentricCode, spheres, ranks) -> int:
    """Write one record per (sphere, rank) pair and return the record count.

    Record format is (sphere varint, rank length varint, big-endian rank bytes).
    """
    spheres, ranks = np.asarray(spheres).tolist(), np.asarray(ranks).tolist()
    if len(spheres) != len(ranks):
        raise ValueError("need one sphere and one rank per record")
    out = bytearray(_MAGIC)
    _write_varint(out, code.n)
    _write_varint(out, code.variant)
    _write_varint(out, code.J)
    for sphere, rank in zip(spheres, ranks):
        _write_varint(out, sphere)
        payload = rank.to_bytes(max(1, (rank.bit_length() + 7) // 8), "big")
        _write_varint(out, len(payload))
        out += payload
    fp.write(out)
    return len(spheres)


def read_stream(fp, code: ConcentricCode) -> tuple[np.ndarray, np.ndarray]:
    """Read and validate an encoded stream against its codebook.

    A varint or rank in more bytes than :func:`write_stream` uses is corrupt,
    so every stream read re-encodes to itself.  Returns ``(spheres, ranks)``
    as :func:`encode_batch` does: int64 spheres, and ranks in the codebook's
    rank dtype, exact past ``2**63``.
    """
    data = fp.read()  # one read of the source, parsed in memory by index
    if data[: len(_MAGIC)] != _MAGIC:
        raise StreamError("bad magic; not an encoded-index stream")
    pos = len(_MAGIC)
    header = []
    for _ in range(3):
        value, pos = _read_varint(data, pos)
        header.append(value)
    n, variant, j_count = header
    if (n, variant, j_count) != (code.n, code.variant, code.J):
        raise StreamError(
            f"stream header (n={n}, variant={variant}, J={j_count}) does not match codebook"
        )
    sizes = code.sizes
    spheres, ranks = [], []
    while True:
        sphere, pos = _read_varint(data, pos)
        if sphere is None:
            return np.array(spheres, dtype=np.int64), np.array(ranks, dtype=code._tables.dtype)
        if sphere >= j_count:
            raise StreamError(f"record {len(spheres)}: sphere {sphere} out of range")
        length, pos = _read_varint(data, pos)
        if length is None:
            raise StreamError(f"record {len(spheres)}: missing rank")
        stop = pos + length
        if stop > len(data):
            raise StreamError(f"record {len(spheres)}: truncated rank payload")
        rank = int.from_bytes(data[pos:stop], "big")
        pos = stop
        if length != max(1, (rank.bit_length() + 7) // 8):
            raise StreamError(f"record {len(spheres)}: rank {rank} in {length} bytes")
        if rank >= sizes[sphere]:
            raise StreamError(f"record {len(spheres)}: rank {rank} out of range")
        spheres.append(sphere)
        ranks.append(rank)
