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
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import subspaces
from .core import AmbientSpace, PointSet, digits_of
from .subspaces import (
    Subspace,
    SubspaceArray,
    _block_rows,
    _residue_codes,
    binom_at_most_twice_power,
    coset_labels,
    perp,
)

__all__ = [
    "ProjectionImage",
    "CosetProfile",
    "ExactBound",
    "CensusReport",
    "project",
    "project_onto",
    "coset_counts",
    "coset_profile",
    "projection_sizes",
    "census_small_image",
    "census_fractional_image",
    "census_at_scales",
    "floor_power_quotient",
    "compare_to_power",
]


@dataclass(frozen=True)
class ProjectionImage:
    """The set of coset labels of W hit by E."""

    direction: Subspace
    labels: tuple[int, ...]
    degenerate: bool = False

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class CosetProfile:
    """|E n (x_j + W)| for every coset x_j + W, indexed by coset label."""

    direction: Subspace
    counts: np.ndarray
    total: int

    @property
    def image_size(self) -> int:
        return int(np.count_nonzero(self.counts))

    def second_moment(self) -> int:
        """Sum of squared coset counts = number of pairs of E in a common coset."""
        return int(self.counts @ self.counts)

    def cauchy_schwarz_ok(self) -> bool:
        """|E|^2 <= |image| * sum_j |E n (x_j+W)|^2."""
        return self.total**2 <= self.image_size * self.second_moment()


def project(E: PointSet, W: Subspace) -> ProjectionImage:
    """Exact projection image of E along W (any W accepted; trivial ones flagged)."""
    if E.space != W.space:
        raise ValueError("point set and direction live in different spaces")
    labels = np.unique(coset_labels(W, E.indices()))
    degenerate = W.dim in (0, W.space.n)
    return ProjectionImage(W, tuple(int(x) for x in labels), degenerate)


def project_onto(E: PointSet, V: Subspace) -> ProjectionImage:
    """Projection onto V: cosets of Per(V) hit by E; equals project(E, perp(V))."""
    return project(E, perp(V))


def _chunk_bytes(points: int, r: int, ntags: int, p: int) -> int:
    """Bytes one direction adds to a kernel chunk: labels of every point plus histograms."""
    return 8 * (points * (r + 2) + ntags * p**r)


def _fits_one_chunk(points: int, r: int, ntags: int, p: int) -> bool:
    return _chunk_bytes(points, r, ntags, p) <= subspaces._KERNEL_BYTES


def _coset_histograms(
    digits: np.ndarray, tags: np.ndarray, ntags: int, directions: SubspaceArray
) -> Iterator[np.ndarray]:
    """Histograms of tagged points over the cosets of each direction, chunk by chunk.

    ``digits`` is the (N, n) coordinate matrix and ``tags`` gives each point
    a tag in [0, ntags).  The directions' label maps are built in blocks of
    as many directions as keep a chunk under the kernel cap
    (``subspaces._block_rows``).  Yields one int64 block of shape
    (c, ntags, p^r), r = n - dim, per map block; the blocks concatenate to
    the (directions, ntags, p^r) histogram.  Each chunk is one exact float64
    (r c, n) @ (n, N) product (``subspaces._residue_codes``) and one bincount.
    """
    N, n = digits.shape
    space = directions.space
    r = n - directions.dim
    cosets = space.p**r
    per_direction = ntags * cosets
    rows = _block_rows(_chunk_bytes(N, r, ntags, space.p))
    # a label's bin within a chunk: its direction, then its point's tag, then its coset
    direction_bins = np.arange(min(rows, len(directions)))[:, None] * per_direction
    tag_bins = tags * cosets
    digits = digits.astype(np.float64)
    for Q in directions.label_map_blocks(rows):
        c = len(Q)
        codes = _residue_codes(space, digits, Q.transpose(2, 0, 1))
        codes += direction_bins[:c]
        if ntags > 1:
            codes += tag_bins
        counts = np.bincount(codes.ravel(), minlength=c * per_direction)
        yield counts.reshape(c, ntags, cosets)


def _histogram_blocks(
    E: PointSet, directions: Iterable[Subspace] | SubspaceArray
) -> Iterator[np.ndarray]:
    """(c, p^(n - dim W)) histogram blocks of E over the directions, in order.

    Each run of consecutive directions of equal dimension is stacked into
    one :class:`SubspaceArray` (an array is one run) and swept once.
    """
    space = E.space
    digits = digits_of(space, E.indices())
    tags = np.zeros(len(digits), dtype=np.int64)
    if isinstance(directions, SubspaceArray):
        runs = [directions]
    else:
        runs = (run for _, run in itertools.groupby(directions, key=lambda W: W.dim))
    for run in runs:
        for block in _coset_histograms(digits, tags, 1, SubspaceArray.of(space, run)):
            yield block[:, 0]


def coset_counts(
    E: PointSet, directions: Iterable[Subspace] | SubspaceArray
) -> Iterator[np.ndarray]:
    """|E n (x_j + W)| for every coset x_j + W of each direction W, in order.

    Each histogram is int64, indexed by coset label, of length p^(n - dim W).
    The points of E are decoded once; each run of consecutive directions of
    equal dimension goes through the chunked kernel ``_coset_histograms``.
    A direction's sum of squared counts is at most |E|^2 <= 2^52, so int64
    reductions are exact.
    """
    return itertools.chain.from_iterable(_histogram_blocks(E, directions))


def coset_profile(E: PointSet, W: Subspace) -> CosetProfile:
    return CosetProfile(W, next(coset_counts(E, [W])), E.cardinality)


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


def projection_sizes(
    E: PointSet, m: int, directions: Iterable[Subspace] | None = None
) -> tuple[SubspaceArray, np.ndarray]:
    """Image size |image(E, W)| for every W in G(n, n-m), in enumeration order.

    ``directions`` narrows the sweep to given subspaces of dimension n - m.
    Returns the swept directions, as a :class:`SubspaceArray`, with the sizes.
    """
    directions = _codimension_m(E.space, m, directions)
    blocks = [np.count_nonzero(h, axis=1) for h in _histogram_blocks(E, directions)]
    sizes = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    return directions, sizes.astype(np.int64, copy=False)


def compare_to_power(value: Fraction, base: int, exponent: Fraction) -> int:
    """Sign of (value - base^exponent), computed exactly for value >= 0."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    q = exponent.denominator
    lhs = value**q
    rhs = Fraction(base) ** exponent.numerator
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
        if compare_to_power(Fraction(mid * divisor), base, exponent) <= 0:
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
        """observed <= coeff * base^exponent, decided exactly."""
        if self.coeff <= 0:
            return observed <= 0 and self.coeff == 0
        return compare_to_power(Fraction(observed) / self.coeff, self.base, self.exponent) <= 0

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
    threshold = Fraction(threshold)
    observed = int((sizes <= math.floor(threshold)).sum())
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
        bound=ExactBound(Fraction(4 * N), p, Fraction(m * (n - m) - m)),
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
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    size = E.cardinality
    return _census_report(
        E, m, sweep,
        kind="fractional_image",
        threshold=delta * p**m,
        bound=(
            ExactBound(2 * delta / (1 - delta) / size, p, Fraction(m * (n - m) + m))
            if size > 0
            else None
        ),
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
