"""Coset projections and exceptional-direction censuses.

For a subspace W of codimension m, the projection of a set E along W is the
collection of cosets of W that E meets:

    image(E, W) = {x + W : E meets x + W},   |image| <= min(|E|, p^m).

The censuses count directions whose image falls below a threshold and
compare the observed count against an exact combinatorial bound.  Bounds are
kept in the exact form coeff * p^exponent with rational coeff and exponent,
so satisfaction is decided by integer arithmetic, never by floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import subspaces
from .core import AmbientSpace, PointSet, base_p_digits, digits_of
from .subspaces import (
    Subspace,
    SubspaceArray,
    _block_rows,
    _code_histograms,
    binom_at_most_twice_power,
)

__all__ = [
    "ExactBound",
    "CensusReport",
    "coset_counts",
    "projection_sizes",
    "census_small_image",
    "census_fractional_image",
    "census_at_scales",
    "floor_power_quotient",
    "compare_to_power",
]


def _chunk_bytes(points: int, r: int, ntags: int, p: int) -> int:
    """Bytes one direction adds to a kernel chunk, on either route, at most.

    On the stacked product: r float64 label digits and two int64 copies per
    point, and its ntags p^r histogram bins.  The Grassmannian route keeps
    one int64 label per point and ntags p^r bins, or, folding, at most as
    many bins as labels (see :func:`_route`).
    """
    return 8 * (points * (r + 2) + ntags * p**r)


def _route(N: int, ntags: int, directions: SubspaceArray, sizes: bool = False) -> tuple[str, int]:
    """The route a sweep of N tagged points over ``directions`` takes, and the bytes of its least chunk.

    The route is "shear", "fold", "pattern", "product" or, with ``sizes``
    (image sizes, not histograms), "word"; the bytes are those of a chunk of
    one direction, on the shear and word routes of one pencil.  All of
    G(n, k), as :meth:`SubspaceArray.grassmannian` builds it, takes a table
    route unless the whole sweep fits one stacked-product chunk.  On it, a
    one-digit (r = 1) sweep of image sizes reads pencil occupancy words when
    2p <= 64 and N >= 2 ntags p; a one-digit sweep with N >= ntags p^2 takes
    the shear.  Otherwise the sweep goes pattern by pattern, when r >= 2
    ("pattern") or when a one-digit sweep has no more bins than labels,
    ntags n p <= N ("fold"); unless a chunk would hold fewer than p
    directions.  Every other sweep, and any other array, takes the product.
    """
    space = directions.space
    p, n, r = space.p, space.n, space.n - directions.dim
    product = _chunk_bytes(N, r, ntags, p)
    if not directions._grassmannian or len(directions) <= _block_rows(product):
        return "product", product
    pencil = 8 * (N + ntags * p * p)  # a pencil's keys and bins
    if r == 1 and sizes and 2 * p <= 64 and N >= 2 * ntags * p:
        return "word", pencil
    if r == 1 and N >= ntags * p * p:
        return "shear", pencil
    fold = r == 1 and ntags * n * p <= N
    pattern = 8 * (N + ntags * (n * p if fold else p**r))  # a direction's labels and bins
    # a one-digit product is cheaper than a lookup, and chunks of one direction than tables
    if (fold or r > 1) and _block_rows(pattern) >= p:
        return ("fold" if fold else "pattern"), pattern
    return "product", product


def _coset_histograms(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray
) -> Iterator[np.ndarray]:
    """Histograms of tagged points over the cosets of each direction, chunk by chunk.

    ``digits`` is the (N, n) coordinate matrix and ``tags`` gives each point
    a tag in [0, ntags).  Yields one fresh int64 block of shape (c, ntags, p^r),
    r = n - dim, per chunk, which the caller may overwrite (:func:`_image_sizes`
    does); the blocks concatenate to the (directions, ntags, p^r) histogram.
    A point's bin within a chunk is its direction, then its tag, then its
    coset label, and each chunk is one ``bincount``.

    :func:`_route` picks the route: the shear (:func:`_shear_histograms`),
    the pattern route, folding or not (:func:`_pattern_histograms`), or the
    stacked product, where each chunk of label maps is one exact float64
    (r c, n) @ (n, N) product binned by ``subspaces._code_histograms``, of as
    many directions as keep :func:`_chunk_bytes` under the cap.  A chunk holds
    at least one direction, whatever its bytes; the cap is read at each call.
    """
    N, n = digits.shape
    route, chunk = _route(N, ntags, directions)
    if route == "shear":
        yield from _shear_histograms(digits, tags, ntags, directions)
        return
    rows = _block_rows(chunk)
    if route != "product":
        yield from _pattern_histograms(digits, tags, ntags, directions, route == "fold", rows)
        return
    digits = digits.astype(np.float64)
    for maps in directions.label_map_blocks():
        for Q in np.split(maps.transpose(2, 0, 1), range(rows, len(maps), rows), axis=1):
            yield _code_histograms(directions.space, digits, tags, ntags, Q)


def _pattern_histograms(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray,
    fold: bool, rows: int,
) -> Iterator[np.ndarray]:
    """:func:`_coset_histograms` over all of G(n, k), from per-column residue tables.

    In a pivot pattern with non-pivot columns q_j, digit j of a point's
    label is (x_{q_j} + sum over free entries (i, q_j) of R_{P_i}[B_{i,q_j}])
    mod p, where R_t[v] = -v x_t mod p is gathered from one p x p table, so
    a column's digits depend only on that column's free entries.  A chunk
    (:func:`_table_chunks`) holds up to ``rows`` directions.

    A digit sum of up to n residues is reduced by a lookup table, or, when
    ``fold`` (r = 1), binned unreduced in n p bins per (direction, tag) and
    folded mod p after the ``bincount``.
    """
    n = digits.shape[1]
    p, k = directions.space.p, directions.dim
    bins = n * p if fold else p ** (n - k)
    luts = None if fold else [np.arange(n * p) % p * p**j for j in range(n - k)]
    for _, counts in _table_chunks(digits, tags, ntags, p, k, luts, bins, rows):
        if fold:
            yield counts.reshape(-1, ntags, n, p).sum(axis=2)
        else:
            yield counts.reshape(-1, ntags, bins)


def _table_chunks(digits, tags, ntags, p, k, luts, bins, rows, pencils=False):
    """Each chunk's (pattern, ``bincount``) on a table route over G(n, k), in order.

    A chunk fixes a pattern's leading free entries and holds the p^f values
    of the other f, p^f the largest power of p up to ``rows``.  Each pattern
    builds one (p^f, N) base (:func:`_pattern_tables`); each chunk adds its
    fixed columns to it (:func:`_chunk_labels`) and bins the labels, ``bins``
    per (direction, tag).  With ``pencils`` (k = n - 1, ``bins`` = p^2) a
    pattern's last free entry is left out, each point is binned by its tag,
    its digit v at that entry's pivot and its u (:func:`_pencil_tables`),
    u varying fastest; a pattern with no free entry is yielded with None.
    """
    n = digits.shape[1]
    x = np.ascontiguousarray(digits.T)  # x[t]: coordinate t of every point
    # R_t[v] = neg[v, x_t]; a chunk of p directions holds at least p^2 bins, so this
    # table is under the cap
    neg = -np.outer(np.arange(p), np.arange(p)) % p
    width = 0  # the free entries a chunk leaves open: p^width <= rows
    while p ** (width + 1) <= rows:
        width += 1
    for pattern in subspaces._pattern_plans(n, k):
        if pencils and not len(pattern.rows):
            yield pattern, None
            continue
        tag_bins = tags * bins
        if pencils:
            tag_bins += x[pattern.pivots[pattern.rows[-1]]] * p
            pattern = pattern._replace(rows=pattern.rows[:-1], cols=pattern.cols[:-1])
        depth = max(0, len(pattern.rows) - width)  # the fixed leading entries
        c = p ** (len(pattern.rows) - depth)
        if pencils:
            base, fixed = _pencil_tables(x, neg, luts[0], pattern, depth, tag_bins, ntags * bins, p)
        else:
            base, fixed = _pattern_tables(x, neg, luts, pattern, depth, tag_bins, ntags * bins, p)
        for values in base_p_digits(np.arange(p**depth), p, depth)[:, ::-1].tolist():
            # values: big-endian, like the bases; the labels are dropped once binned
            labels = _chunk_labels(base, fixed, values, x, neg).reshape(-1)
            counts = np.bincount(labels, minlength=c * ntags * bins)
            del labels
            yield pattern, counts


def _pattern_tables(x, neg, luts, pattern, depth, tag_bins, direction_bins, p):
    """The base of a pattern's chunks, and the columns summed per chunk.

    The base, on the chunk's open entries, holds each direction's bins, each
    point's tag bins and every column with no fixed entry (all of them, left
    unreduced, when ``luts`` is None: the fold).  Each other column is
    returned as (its lookup table or None, its open part, its fixed
    entries as (entry, pivot) pairs).  A column's open part is x_q plus the
    R tables of its open entries, each on its own chunk axis.
    """
    N = x.shape[1]
    free = len(pattern.rows)
    shape = (p,) * (free - depth)
    base = np.arange(p ** (free - depth)).reshape(shape + (1,)) * direction_bins + tag_bins
    fixed = []
    for j, q in enumerate(pattern.nonpivots):
        column = np.flatnonzero(pattern.cols == q)  # its free entries, row by row
        part = None
        for e in column[column >= depth]:
            R = neg[:, x[pattern.pivots[pattern.rows[e]]]]
            R = R.reshape((1,) * (e - depth) + (p,) + (1,) * (free - e - 1) + (N,))
            part = R if part is None else part + R
        part = x[q] if part is None else np.add(part, x[q], out=part)
        entries = [(e, pattern.pivots[pattern.rows[e]]) for e in column[column < depth]]
        if luts is None:
            base += part
            if entries:
                fixed.append((None, 0, entries))
        elif entries:
            fixed.append((luts[j], part, entries))
        else:
            base += luts[j][part]
    return base, fixed


def _pencil_tables(x, neg, lut, pattern, depth, tag_bins, pencil_bins, p):
    """:func:`_pattern_tables` for the pencils of a hyperplane pattern, from a table of pairs.

    The pattern has one non-pivot column q, and a pencil's u is
    (x_q + sum over its free entries e of R_{P_e}[B_e]) mod p.  The last
    open entry and x_q are read together, with one gather from the table
    pairs[b, x_t p + x_q] = (x_q - b x_t) mod p, t = P_e; its p^3 entries
    are no more than the bins of the chunk of p pencils that reads it.  With
    that entry alone open and none fixed, each pencil's bins are added to
    its row of the table, so the gather plus the tag bins is the base: two
    passes over the keys.  Otherwise the other open entries' R tables are
    added on their axes and the sum is reduced by ``lut``, in the base, or
    per chunk when the chunk fixes leading entries.
    """
    N = x.shape[1]
    q = pattern.nonpivots[0]
    pivots = [pattern.pivots[i] for i in pattern.rows.tolist()]
    free = len(pivots)
    part = x[q]
    if free > depth:
        pairs = ((neg[:, :, None] + np.arange(p)) % p).reshape(p, p * p)
        index = x[pivots[-1]] * p + x[q]
        if free - depth == 1 and not depth:
            pairs += np.arange(p)[:, None] * pencil_bins
            base = pairs[:, index]
            base += tag_bins
            return base, []
        part = pairs[:, index]  # on the last open axis
        for e in range(depth, free - 1):
            R = neg[:, x[pivots[e]]]
            part = part + R.reshape((1,) * (e - depth) + (p,) + (1,) * (free - e - 1) + (N,))
    base = np.arange(p ** (free - depth)).reshape((p,) * (free - depth) + (1,)) * pencil_bins
    base = base + tag_bins
    if depth:
        return base, [(lut, part, [(e, pivots[e]) for e in range(depth)])]
    base += lut[part] if free - depth > 1 else part  # one residue needs no reduction
    return base, []


def _chunk_labels(base, fixed, values, x, neg):
    """A chunk's labels: the base plus each fixed column, its fixed entries set to ``values``."""
    labels = base
    for lut, part, entries in fixed:
        # the fixed entries' R tables at their values, gathered from rows of ``neg``: a
        # column's sum of x_q and its R entries stays below n p, inside the bins or the table
        shift = sum(neg[values[e]].take(x[t]) for e, t in entries)
        term = shift if lut is None else lut[part + shift]
        labels = base + term if labels is base else np.add(labels, term, out=labels)
    return labels


def _shear_histograms(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray
) -> Iterator[np.ndarray]:
    """:func:`_coset_histograms` over all of G(n, n-1), one pencil of p directions at a time.

    In a pattern with non-pivot column q, a direction's label is
    (x_q - sum of B_e x_{P_e}) mod p over its free entries e.  A pencil is
    the p directions that share every free entry but the last, b; with
    u = (x_q - sum over the other entries of B_e x_{P_e}) mod p and
    v = x_{P_last}, a point's label is (u - b v) mod p.  So a pencil's
    points are binned once by (tag, v, u) into ntags p^2 bins H, and its p
    histograms are read off H as shears: hist_b[t] = sum over v of
    H[v, (t + b v) mod p] (:func:`_shears`).  :func:`_table_chunks` bins
    the pencils, chunked like directions on the pattern route, by their
    keys (pencil, tag, v, u).  A pattern with no free entry is one
    direction, labelled x_q.
    """
    p = directions.space.p
    for pattern, counts in _pencil_chunks(digits, tags, ntags, p):
        if counts is None:
            labels = tags * p + digits[:, pattern.nonpivots[0]]
            yield np.bincount(labels, minlength=ntags * p).reshape(1, ntags, p)
        else:
            yield from _shears(counts.reshape(-1, ntags, p * p), p)


def _pencil_chunks(digits, tags, ntags, p):
    """:func:`_table_chunks` over the pencils of G(n, n-1), ntags p^2 bins a pencil.

    A chunk holds as many pencils as keep their int64 keys and bins under the cap.
    """
    N, n = digits.shape
    lut = [np.arange(n * p) % p]  # a sum of residues, reduced
    rows = _block_rows(8 * (N + ntags * p * p))  # a pencil's keys and its bins
    return _table_chunks(digits, tags, ntags, p, n - 1, lut, p * p, rows, pencils=True)


def _shears(H: np.ndarray, p: int) -> Iterator[np.ndarray]:
    """Each pencil's p histograms from its bins H[pencil, tag, v p + u], in (c, ntags, p) blocks.

    hist_b[t] = sum over v of H[v, (t + b v) mod p].  With row v of H
    repeated to 2p - 1 bins, those p bins are its window of p starting at
    b v mod p, so each block is one gather of windows and one sum over v.
    A gather takes as many pencils, or, when one pencil's ntags p^3
    gathered bins exceed the cap, as many values of b, as keep it under
    the cap; its start table has p entries per b.
    """
    ntags = H.shape[1]
    rows = _block_rows(8 * ntags * p * p)  # the gathered bins of one direction
    step, span = max(1, rows // p), min(p, rows)
    v = np.arange(p)[:, None]
    for start in range(0, len(H), step):
        h = H[start : start + step].reshape(-1, ntags, p, p)  # [v, u]
        windows = sliding_window_view(np.concatenate([h, h[..., : p - 1]], axis=3), p, axis=3)
        for b in range(0, p, span):
            counts = windows[:, :, v, v * np.arange(b, min(p, b + span)) % p].sum(axis=2)
            yield counts.transpose(0, 2, 1, 3).reshape(-1, ntags, p)


def _word_sizes(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray
) -> Iterator[np.ndarray]:
    """Image sizes over all of G(n, n-1) from pencil occupancy words, in (c, ntags) blocks.

    A pencil's points are binned by (tag, v, u) as on the shear route
    (:func:`_shear_histograms`), and the occupied u of each (pencil, tag, v)
    are packed into one uint64 word w_v, doubled as w_v | (w_v << p) so that
    a rotation by s is a right shift.  Direction b of the pencil hits the
    labels (u - b v) mod p, so its image size is
    popcount((OR over v of doubled w_v >> (b v mod p)) & (2^p - 1)): ntags p^2
    word operations a pencil.  Needs 2p <= 64.  The shifted words of a chunk
    take as many bytes as its bins, with the (pencil, tag) axis innermost.
    """
    p = directions.space.p
    shifts = (np.arange(p)[:, None, None] * np.arange(p)[:, None] % p).astype(np.uint64)
    bits, mask = 2.0 ** np.arange(p), np.uint64((1 << p) - 1)
    for pattern, counts in _pencil_chunks(digits, tags, ntags, p):
        if counts is None:
            hits = np.bincount(tags * p + digits[:, pattern.nonpivots[0]], minlength=ntags * p)
            yield np.count_nonzero(hits.reshape(1, ntags, p), axis=2)
            continue
        # bit u of a (pencil, tag, v) word: a float64 product, exact below 2^53
        words = ((counts.reshape(-1, p) != 0).astype(np.float64) @ bits).astype(np.uint64)
        words = np.ascontiguousarray(words.reshape(-1, p).T)  # [v, pencil tag]
        words |= words << np.uint64(p)
        union = np.bitwise_or.reduce(words >> shifts, axis=1)  # [b, pencil tag]
        sizes = np.bitwise_count(union & mask).reshape(p, -1, ntags)
        yield sizes.transpose(1, 0, 2).reshape(-1, ntags).astype(np.int64)


def _image_sizes(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray
) -> np.ndarray:
    """|image| of each tag's points along each direction, as a (directions, ntags) int64 array.

    A sweep on the word route of :func:`_route` reads the sizes off pencil
    occupancy words (:func:`_word_sizes`); every other sweep overwrites each block of
    :func:`_coset_histograms` with its float64 occupancy and counts it by one exact matvec.
    """
    if _route(len(digits), ntags, directions, sizes=True)[0] == "word":
        blocks = list(_word_sizes(digits, tags, ntags, directions))
    else:
        blocks = [(np.not_equal(h, 0, out=h.view(float)) @ np.ones(h.shape[2])).astype(np.int64)
                  for h in _coset_histograms(digits, tags, ntags, directions)]
    return np.concatenate(blocks) if blocks else np.zeros((0, ntags), dtype=np.int64)


def _histogram_blocks(
    E: PointSet, directions: Iterable[Subspace] | SubspaceArray
) -> Iterator[np.ndarray]:
    """(c, p^(n - dim W)) histogram blocks of E over the directions, in order.

    The directions are stacked into one :class:`SubspaceArray`, which
    refuses mixed dimensions, and swept once.
    """
    directions = SubspaceArray.of(E.space, directions)
    digits = digits_of(E.space, E.indices())
    tags = np.zeros(len(digits), dtype=np.int64)
    for block in _coset_histograms(digits, tags, 1, directions):
        yield block[:, 0]


def coset_counts(
    E: PointSet, directions: Iterable[Subspace] | SubspaceArray
) -> Iterator[np.ndarray]:
    """|E n (x_j + W)| for every coset x_j + W of each direction W, in order.

    The directions share one dimension.  Each histogram is int64, indexed by
    coset label, of length p^(n - dim W).  The points of E are decoded once
    and the directions go through the chunked kernel ``_coset_histograms``.
    A direction's sum of squared counts is at most |E|^2 <= 2^52, so int64
    reductions are exact.
    """
    return itertools.chain.from_iterable(_histogram_blocks(E, directions))


def _codimension_m(
    space: AmbientSpace, m: int, directions: Iterable[Subspace] | None
) -> SubspaceArray:
    """``directions`` (default all of G(n, n-m)) stacked, each checked to have dimension n - m."""
    if not 1 <= m <= space.n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got m={m}")
    if directions is None:
        return SubspaceArray.grassmannian(space, space.n - m)
    directions = SubspaceArray.of(space, directions)
    if len(directions) and directions.dim != space.n - m:
        raise ValueError(
            f"directions have dimension {directions.dim}, need n - m = {space.n - m}"
        )
    return directions


def projection_sizes(E: PointSet, m: int) -> tuple[SubspaceArray, np.ndarray]:
    """Image size |image(E, W)| for every W in G(n, n-m), in enumeration order.

    Returns the swept directions, as a :class:`SubspaceArray`, with the sizes.
    """
    directions = _codimension_m(E.space, m, None)
    digits = digits_of(E.space, E.indices())
    sizes = _image_sizes(digits, np.zeros(len(digits), dtype=np.int64), 1, directions)
    return directions, sizes[:, 0].astype(np.int64, copy=False)


def compare_to_power(value: Fraction, base: int, exponent: Fraction) -> int:
    """Sign of (value - base^exponent), computed exactly for value >= 0."""
    return _quotient_sign(value.numerator, value.denominator, base, exponent)


def _quotient_sign(a: int, b: int, base: int, exponent: Fraction) -> int:
    """Sign of (a/b - base^exponent) for integers a >= 0 and b > 0, by integer cross-products.

    With exponent = e/q (q > 0), a/b and base^(e/q) are ordered as a^q and
    b^q base^e, or, for e < 0, as a^q base^(-e) and b^q.
    """
    if a < 0:
        raise ValueError("value must be nonnegative")
    e, q = exponent.numerator, exponent.denominator
    lhs, rhs = a**q, b**q
    if e >= 0:
        rhs *= base**e
    else:
        lhs *= base**-e
    return (lhs > rhs) - (lhs < rhs)


def floor_power_quotient(base: int, exponent: Fraction, divisor: int) -> int:
    """floor(base^exponent / divisor), exact for rational exponents >= 0."""
    if exponent < 0:
        return 0
    hi = base ** (int(exponent) + 1) // divisor + 1
    lo = 0
    # binary search for the largest k with k*divisor <= base^exponent
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _quotient_sign(mid * divisor, 1, base, exponent) <= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class ExactBound:
    """The exact quantity coeff * base^exponent with rational coeff, exponent."""

    coeff: Fraction
    base: int
    exponent: Fraction

    def satisfied_by(self, observed: int) -> bool:
        """observed <= coeff * base^exponent, decided exactly (in integers)."""
        coeff = self.coeff
        if coeff <= 0:
            return observed <= 0 and coeff == 0
        # observed / coeff is observed d / c for coeff = c / d
        sign = _quotient_sign(
            observed * coeff.denominator, coeff.numerator, self.base, self.exponent
        )
        return sign <= 0

    def as_fraction(self) -> Fraction | None:
        if self.exponent.denominator != 1:
            return None
        return self.coeff * Fraction(self.base) ** self.exponent.numerator

    def __float__(self) -> float:
        return float(self.coeff) * float(self.base) ** float(self.exponent)


@dataclass
class CensusReport:
    """Observed number of exceptional directions versus the exact bound."""

    kind: str
    p: int
    n: int
    m: int
    threshold: Fraction
    observed: int
    bound: ExactBound | None
    satisfied: bool | None
    hypothesis_ok: bool
    range_condition_ok: bool
    params: dict = field(default_factory=dict)
    directions: SubspaceArray | None = None  # the sweep: every W in G(n, n-m)
    sizes: np.ndarray | None = None  # |image(E, W)| for each of ``directions``

    def to_json_dict(self) -> dict:
        frac = self.bound.as_fraction() if self.bound is not None else None
        out = {
            "kind": self.kind,
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "threshold": float(self.threshold),
            "threshold_num": self.threshold.numerator,
            "threshold_den": self.threshold.denominator,
            "observed": self.observed,
            "bound_num": frac.numerator if frac is not None else None,
            "bound_den": frac.denominator if frac is not None else None,
            "bound_float": float(self.bound) if self.bound is not None else None,
            "satisfied": self.satisfied,
            "hypothesis_ok": self.hypothesis_ok,
            "range_condition_ok": self.range_condition_ok,
        }
        if self.bound is not None and frac is None:
            out["bound_repr"] = {
                "coeff_num": self.bound.coeff.numerator,
                "coeff_den": self.bound.coeff.denominator,
                "base": self.bound.base,
                "exp_num": self.bound.exponent.numerator,
                "exp_den": self.bound.exponent.denominator,
            }
        for key, value in self.params.items():
            out[key] = float(value) if isinstance(value, Fraction) else value
        return out


_Sweep = tuple[Sequence[Subspace], np.ndarray]  # (directions, sizes) from projection_sizes


def _census_report(
    E: PointSet,
    m: int,
    sweep: _Sweep | None,
    *,
    kind: str,
    threshold: int | Fraction,
    bound: ExactBound | None,
    hypothesis_ok: bool,
    range_k: int,
    params: dict,
) -> CensusReport:
    """Count the directions of ``sweep`` with image size <= threshold against ``bound``.

    ``sweep=None`` sweeps E over G(n, n-m); a given sweep is checked to be
    one.  The range condition checked is
    C(n-1, range_k)_p <= 2 p^(range_k (n-1-range_k)).
    """
    directions, sizes = projection_sizes(E, m) if sweep is None else sweep
    directions = _codimension_m(E.space, m, directions)
    if len(sizes) != len(directions):
        raise ValueError(f"{len(sizes)} image sizes for {len(directions)} directions")
    p, n = E.space.p, E.space.n
    threshold = threshold if isinstance(threshold, Fraction) else Fraction(threshold)
    observed = int((sizes <= threshold.numerator // threshold.denominator).sum())
    return CensusReport(
        kind=kind,
        p=p,
        n=n,
        m=m,
        threshold=threshold,
        observed=observed,
        bound=bound,
        satisfied=bound.satisfied_by(observed) if bound is not None else None,
        hypothesis_ok=hypothesis_ok,
        range_condition_ok=binom_at_most_twice_power(n - 1, range_k, p),
        params=params,
        directions=directions,
        sizes=sizes,
    )


def _small_image_bound(p: int, n: int, m: int, N: int) -> ExactBound:
    """The small-image census bound 4 N p^(m(n-m)-m)."""
    return ExactBound(Fraction(4 * N), p, Fraction(m * (n - m) - m))


def _fractional_image_bound(p: int, n: int, m: int, a: int, b: int, size: int) -> ExactBound:
    """The fractional-image census bound 2 (delta/(1-delta)) p^(m(n-m)+m) / |E| for delta = a/b.

    Its coefficient is 2a / ((b - a) |E|), built from integers.
    """
    return ExactBound(Fraction(2 * a, (b - a) * size), p, Fraction(m * (n - m) + m))


def census_small_image(
    E: PointSet, m: int, N: int, sweep: _Sweep | None = None
) -> CensusReport:
    """Count directions with image size <= N against the bound 4 p^(m(n-m)-m) N.

    The bound is asserted under the hypothesis N < |E|/2 and requires the
    range condition instance C(n-1, n-m-1)_p <= 2 p^((n-m-1)m); both are
    reported as flags rather than raised.  ``sweep`` is a (directions,
    sizes) pair as :func:`projection_sizes` returns it, for a caller that
    holds the image sizes already; by default E is swept over G(n, n-m).
    """
    p, n = E.space.p, E.space.n
    if N < 0:
        raise ValueError("threshold N must be nonnegative")
    return _census_report(
        E, m, sweep,
        kind="small_image",
        threshold=N,
        bound=_small_image_bound(p, n, m, N),
        hypothesis_ok=2 * N < E.cardinality,
        range_k=n - m - 1,
        params={"N": N, "set_size": E.cardinality},
    )


def census_fractional_image(
    E: PointSet, m: int, delta: Fraction, sweep: _Sweep | None = None
) -> CensusReport:
    """Count directions with image <= delta p^m against 2 (delta/(1-delta)) p^(m(n-m)+m) / |E|.

    ``sweep`` is as in :func:`census_small_image`.
    """
    p, n = E.space.p, E.space.n
    delta = delta if isinstance(delta, Fraction) else Fraction(delta)
    a, b = delta.numerator, delta.denominator
    if not 0 < a < b:
        raise ValueError("delta must lie strictly between 0 and 1")
    size = E.cardinality
    return _census_report(
        E, m, sweep,
        kind="fractional_image",
        threshold=Fraction(a * p**m, b),
        bound=_fractional_image_bound(p, n, m, a, b, size) if size > 0 else None,
        hypothesis_ok=size > 0,
        range_k=m - 1,
        params={"delta": delta, "set_size": size},
    )


def census_at_scales(
    E: PointSet, m: int, s: Fraction, t: Fraction
) -> dict[str, CensusReport]:
    """Three graded censuses for a set of declared exponent s (|E| ~ p^s).

    scale_t:    image <= floor(p^t/10)   vs (1/2) p^(m(n-m)-(m-t)), for t <= s <= m
    scale_m:    image <= floor(p^m/10)   vs (1/2) p^(m(n-m)-(s-m)), for s > m
    full_image: image != p^m             vs   4   p^(m(n-m)-(s-2m)), for s > 2m

    Every report is computed from one sweep; hypothesis flags mark which
    bounds are asserted.  The size window p^s/2 <= |E| <= 2 p^s is part of
    every hypothesis.
    """
    p, n = E.space.p, E.space.n
    s, t = Fraction(s), Fraction(t)
    sweep = projection_sizes(E, m)
    size = E.cardinality
    size_ok = (
        size > 0
        and compare_to_power(Fraction(2 * size), p, s) >= 0
        and compare_to_power(Fraction(size, 2), p, s) <= 0
    )
    grade = Fraction(m * (n - m))
    return {
        "scale_t": _census_report(
            E, m, sweep,
            kind="scale_t",
            threshold=floor_power_quotient(p, t, 10),
            bound=ExactBound(Fraction(1, 2), p, grade - (m - t)),
            hypothesis_ok=size_ok and s <= m and 0 < t <= s,
            range_k=n - m - 1,
            params={"s": s, "t": t, "set_size": size},
        ),
        "scale_m": _census_report(
            E, m, sweep,
            kind="scale_m",
            threshold=p**m // 10,
            bound=ExactBound(Fraction(1, 2), p, grade - (s - m)),
            hypothesis_ok=size_ok and s > m,
            range_k=m - 1,
            params={"s": s, "set_size": size},
        ),
        # an image has at most p^m cosets, so "image != p^m" is "image <= p^m - 1"
        "full_image": _census_report(
            E, m, sweep,
            kind="full_image",
            threshold=p**m - 1,
            bound=ExactBound(Fraction(4), p, grade - (s - 2 * m)),
            hypothesis_ok=size_ok and s > 2 * m,
            range_k=m - 1,
            params={"s": s, "set_size": size},
        ),
    }
