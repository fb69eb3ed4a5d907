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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import PointSet, digits_of
from .subspaces import (
    DEFAULT_ENUM_BUDGET,
    Subspace,
    binom_at_most_twice_power,
    coset_labels,
    enumerate_grassmannian,
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


def coset_counts(E: PointSet, directions: Iterable[Subspace]) -> Iterator[np.ndarray]:
    """|E n (x_j + W)| for every coset x_j + W of each direction W, in order.

    Each histogram is int64, indexed by coset label, of length p^(n - dim W).
    The points of E are decoded once for the whole sweep.  A direction's sum
    of squared counts is at most |E|^2 <= 2^52, so int64 reductions are exact.
    """
    space = E.space
    idx = E.indices()
    digits = digits_of(space, idx)
    for W in directions:
        if W.space != space:
            raise ValueError("point set and direction live in different spaces")
        labels = coset_labels(W, idx, digits=digits)
        yield np.bincount(labels, minlength=space.p ** (space.n - W.dim))


def coset_profile(E: PointSet, W: Subspace) -> CosetProfile:
    return CosetProfile(W, next(coset_counts(E, [W])), E.cardinality)


def projection_sizes(
    E: PointSet,
    m: int,
    directions: Sequence[Subspace] | None = None,
    budget: int | None = DEFAULT_ENUM_BUDGET,
) -> tuple[list[Subspace], np.ndarray]:
    """Image size |image(E, W)| for every W in G(n, n-m), in enumeration order."""
    space = E.space
    if not 1 <= m <= space.n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got m={m}")
    if directions is None:
        directions = enumerate_grassmannian(space, space.n - m, budget=budget)
    directions = list(directions)
    sizes = np.fromiter(
        (np.count_nonzero(h) for h in coset_counts(E, directions)),
        dtype=np.int64,
        count=len(directions),
    )
    return directions, sizes


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
    sizes: np.ndarray | None = None

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


def census_small_image(
    E: PointSet,
    m: int,
    N: int,
    keep_sizes: bool = False,
    budget: int | None = DEFAULT_ENUM_BUDGET,
) -> CensusReport:
    """Count directions with image size <= N against the bound 4 p^(m(n-m)-m) N.

    The bound is asserted under the hypothesis N < |E|/2 and requires the
    range condition instance C(n-1, n-m-1)_p <= 2 p^((n-m-1)m); both are
    reported as flags rather than raised.
    """
    space = E.space
    p, n = space.p, space.n
    if N < 0:
        raise ValueError("threshold N must be nonnegative")
    _, sizes = projection_sizes(E, m, budget=budget)
    observed = int((sizes <= N).sum())
    bound = ExactBound(Fraction(4 * N), p, Fraction(m * (n - m) - m))
    report = CensusReport(
        kind="small_image",
        p=p,
        n=n,
        m=m,
        threshold=Fraction(N),
        observed=observed,
        bound=bound,
        satisfied=bound.satisfied_by(observed),
        hypothesis_ok=2 * N < E.cardinality,
        range_condition_ok=binom_at_most_twice_power(n - 1, n - m - 1, p),
        params={"N": N, "set_size": E.cardinality},
        sizes=sizes if keep_sizes else None,
    )
    return report


def census_fractional_image(
    E: PointSet,
    m: int,
    delta: Fraction,
    keep_sizes: bool = False,
    budget: int | None = DEFAULT_ENUM_BUDGET,
) -> CensusReport:
    """Count directions with image <= delta p^m against 2 (delta/(1-delta)) p^(m(n-m)+m) / |E|."""
    space = E.space
    p, n = space.p, space.n
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    threshold = delta * p**m
    _, sizes = projection_sizes(E, m, budget=budget)
    observed = int(
        (sizes * threshold.denominator <= threshold.numerator).sum()
    )
    size = E.cardinality
    if size > 0:
        bound = ExactBound(
            2 * delta / (1 - delta) / size, p, Fraction(m * (n - m) + m)
        )
        satisfied = bound.satisfied_by(observed)
    else:
        bound, satisfied = None, None
    return CensusReport(
        kind="fractional_image",
        p=p,
        n=n,
        m=m,
        threshold=threshold,
        observed=observed,
        bound=bound,
        satisfied=satisfied,
        hypothesis_ok=size > 0,
        range_condition_ok=binom_at_most_twice_power(n - 1, m - 1, p),
        params={"delta": delta, "set_size": size},
        sizes=sizes if keep_sizes else None,
    )


def census_at_scales(
    E: PointSet,
    m: int,
    s: Fraction,
    t: Fraction,
    keep_sizes: bool = False,
    budget: int | None = DEFAULT_ENUM_BUDGET,
) -> dict[str, CensusReport]:
    """Three graded censuses for a set of declared exponent s (|E| ~ p^s).

    scale_t:    image <= floor(p^t/10)   vs (1/2) p^(m(n-m)-(m-t)), for t <= s <= m
    scale_m:    image <= floor(p^m/10)   vs (1/2) p^(m(n-m)-(s-m)), for s > m
    full_image: image != p^m             vs   4   p^(m(n-m)-(s-2m)), for s > 2m

    Every report is computed; hypothesis flags mark which bounds are asserted.
    The size window p^s/2 <= |E| <= 2 p^s is part of every hypothesis.
    """
    space = E.space
    p, n = space.p, space.n
    s, t = Fraction(s), Fraction(t)
    _, sizes = projection_sizes(E, m, budget=budget)
    size = E.cardinality
    size_ok = (
        size > 0
        and compare_to_power(Fraction(2 * size), p, s) >= 0
        and compare_to_power(Fraction(size, 2), p, s) <= 0
    )
    kept = sizes if keep_sizes else None

    n_t = floor_power_quotient(p, t, 10)
    observed_t = int((sizes <= n_t).sum())
    bound_t = ExactBound(Fraction(1, 2), p, Fraction(m * (n - m)) - (m - t))
    report_t = CensusReport(
        kind="scale_t",
        p=p,
        n=n,
        m=m,
        threshold=Fraction(n_t),
        observed=observed_t,
        bound=bound_t,
        satisfied=bound_t.satisfied_by(observed_t),
        hypothesis_ok=size_ok and s <= m and 0 < t <= s,
        range_condition_ok=binom_at_most_twice_power(n - 1, n - m - 1, p),
        params={"s": s, "t": t, "set_size": size},
        sizes=kept,
    )

    n_m = p**m // 10
    observed_m = int((sizes <= n_m).sum())
    bound_m = ExactBound(Fraction(1, 2), p, Fraction(m * (n - m)) - (s - m))
    report_m = CensusReport(
        kind="scale_m",
        p=p,
        n=n,
        m=m,
        threshold=Fraction(n_m),
        observed=observed_m,
        bound=bound_m,
        satisfied=bound_m.satisfied_by(observed_m),
        hypothesis_ok=size_ok and s > m,
        range_condition_ok=binom_at_most_twice_power(n - 1, m - 1, p),
        params={"s": s, "set_size": size},
        sizes=kept,
    )

    observed_f = int((sizes != p**m).sum())
    bound_f = ExactBound(Fraction(4), p, Fraction(m * (n - m)) - (s - 2 * m))
    report_f = CensusReport(
        kind="full_image",
        p=p,
        n=n,
        m=m,
        threshold=Fraction(p**m - 1),
        observed=observed_f,
        bound=bound_f,
        satisfied=bound_f.satisfied_by(observed_f),
        hypothesis_ok=size_ok and s > 2 * m,
        range_condition_ok=binom_at_most_twice_power(n - 1, m - 1, p),
        params={"s": s, "set_size": size},
        sizes=kept,
    )
    return {"scale_t": report_t, "scale_m": report_m, "full_image": report_f}
