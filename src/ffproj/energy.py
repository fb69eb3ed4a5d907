"""Generalized energy of a point set over families of affine planes.

For a family A of m-dimensional planes,

    energy(E, A) = sum_{P in A} |E n P|^2,

the number of (ordered) pairs of E lying in a common plane, counted with
family multiplicity.  Over the full family A(n,m) the energy has the closed
form

    |E| p^m C(n-1, m)_p + |E|^2 C(n-1, m-1)_p,

which this module verifies both combinatorially and through the spectral
route (coset second moments via the subspace Plancherel identity).  The
classical additive energy of A, B in F_p is the special case of the family
of lines x + y = k in F_p^2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import AmbientSpace, PointSet
from .fourier import Spectrum, dft
from .projections import _histogram_blocks, coset_counts
from .subspaces import (
    AffinePlane,
    Subspace,
    SubspaceArray,
    _dual_bases,
    _point_blocks,
    all_cosets,
    binom_at_most_twice_power,
    enumerate_grassmannian,
    gaussian_binomial_or_zero,
)

__all__ = [
    "energy",
    "all_planes",
    "coset_expansion",
    "energy_over_all_planes",
    "energy_identity_closed_form",
    "verify_energy_identity",
    "verify_energy_identity_fourier",
    "sum_lines",
    "product_set",
    "additive_energy",
    "KeyLemmaCheck",
    "key_lemma_check",
]


def energy(E: PointSet, planes: Sequence[AffinePlane]) -> int:
    """Exact sum of |E n P|^2 over the given planes.

    Planes are grouped by direction so each direction costs one pass over E,
    not one pass per plane.
    """
    if not planes:
        return 0
    dim = planes[0].dim
    by_direction: dict[Subspace, list[AffinePlane]] = {}
    for plane in planes:
        if plane.space != E.space:
            raise ValueError("plane family lives in a different space")
        if plane.dim != dim:
            raise ValueError("plane family mixes dimensions")
        by_direction.setdefault(plane.direction, []).append(plane)
    total = 0
    for counts, group in zip(coset_counts(E, by_direction), by_direction.values()):
        hits = counts[[plane.label() for plane in group]]
        total += int(hits @ hits)
    return total


def all_planes(space: AmbientSpace, m: int) -> list[AffinePlane]:
    """The full family A(n,m), ordered by direction then coset label."""
    return coset_expansion(enumerate_grassmannian(space, m))


def coset_expansion(directions: Iterable[Subspace]) -> list[AffinePlane]:
    """All cosets of every direction in the given set (the family Theta')."""
    return [plane for W in directions for plane in all_cosets(W)]


def energy_over_all_planes(E: PointSet, m: int) -> int:
    """energy(E, A(n,m)) without materializing the planes."""
    blocks = _histogram_blocks(E, SubspaceArray.grassmannian(E.space, m))
    return sum(sum((h * h).sum(axis=1).tolist()) for h in blocks)


def energy_identity_closed_form(space: AmbientSpace, size: int, m: int) -> int:
    """|E| p^m C(n-1, m)_p + |E|^2 C(n-1, m-1)_p."""
    p, n = space.p, space.n
    return size * p**m * gaussian_binomial_or_zero(
        n - 1, m, p
    ) + size**2 * gaussian_binomial_or_zero(n - 1, m - 1, p)


def verify_energy_identity(E: PointSet, m: int) -> tuple[int, int, bool]:
    """Combinatorial energy over A(n,m) against the closed form, exact integers."""
    lhs = energy_over_all_planes(E, m)
    rhs = energy_identity_closed_form(E.space, E.cardinality, m)
    return lhs, rhs, lhs == rhs


def verify_energy_identity_fourier(
    E: PointSet, m: int, spectrum: Spectrum | None = None
) -> tuple[float, int, float]:
    """Spectral recomputation of the energy identity.

    Each direction's coset second moment is evaluated as
    p^(m-n) sum_{xi in Per(V)} |Ehat(xi)|^2 and accumulated over G(n,m);
    returns (spectral lhs, closed-form rhs, |difference|).

    Each dual is summed over its points in the order of
    ``perp(V).point_indices()`` (see ``subspaces._point_blocks``), and
    the sums are added in V order, so the float result does not depend on
    the blocking.
    """
    space, p, n = E.space, E.space.p, E.space.n
    directions = SubspaceArray.grassmannian(space, m)  # refuses m outside [0, n]
    if spectrum is None:
        spectrum = dft(E)
    power = spectrum.moduli() ** 2
    lhs = 0.0
    for points in _point_blocks(_dual_bases(directions)):
        for second_moment in power[points].sum(axis=1).tolist():
            lhs += second_moment
    lhs *= float(Fraction(p**m, p**n))
    rhs = energy_identity_closed_form(space, E.cardinality, m)
    return lhs, rhs, abs(lhs - rhs)


def sum_lines(p: int) -> list[AffinePlane]:
    """The lines x + y = k in F_p^2, for k = 0..p-1."""
    space = AmbientSpace(p, 2)
    direction = Subspace.from_rows(space, [(1, p - 1)])
    return [AffinePlane(direction, (0, k)) for k in range(p)]


def product_set(A: Iterable[int], B: Iterable[int], p: int) -> PointSet:
    """A x B as a subset of F_p^2."""
    space = AmbientSpace(p, 2)
    return PointSet.from_vectors(space, ((a, b) for a in A for b in B))


def additive_energy(A: Iterable[int], B: Iterable[int], p: int) -> int:
    """|{(a, a', b, b') in A^2 x B^2 : a + b = a' + b'}|.

    Counted through the sum-value multiplicities r(k) = |{(a,b): a+b=k}|,
    so the result is sum_k r(k)^2.
    """
    A = {int(a) % p for a in A}
    B = {int(b) % p for b in B}
    r = [0] * p
    for a in A:
        for b in B:
            r[(a + b) % p] += 1
    return sum(c * c for c in r)


@dataclass
class KeyLemmaCheck:
    """Energy of E over the coset expansion of a direction set, with both bounds.

    bound_pairs  = |E| |Theta| + 2 |E|^2 p^((n-m-1)m)      (pair counting)
    bound_fourier = 2 |E| p^((n-m)m) + |E|^2 |Theta| / p^m  (spectral)

    The bounds are theorems once the binomial growth inequalities hold
    (condition_ok); the favorable regime is bound_pairs for |E| <= p^m.
    """

    p: int
    n: int
    m: int
    set_size: int
    theta_size: int
    energy: int
    bound_pairs: Fraction
    bound_fourier: Fraction
    condition_ok: bool
    small_set_regime: bool
    ok: bool

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out.update(bound_pairs=float(self.bound_pairs), bound_fourier=float(self.bound_fourier))
        return out


def key_lemma_check(
    E: PointSet, directions: Sequence[Subspace], second_moments: Sequence[int] | None = None
) -> KeyLemmaCheck:
    """Check energy(E, Theta') against its two bounds for Theta in G(n, n-m).

    ``second_moments`` (sum_j |E n (x_j + W)|^2 for each W of ``directions``)
    is for a caller that holds them; by default E is swept over the directions.
    """
    space = E.space
    p, n = space.p, space.n
    directions = SubspaceArray.of(space, directions)
    m = n - directions.dim if len(directions) else 1
    if not 1 <= m <= n - 1:
        raise ValueError("directions must be proper nontrivial subspaces")
    if second_moments is None:
        second_moments = [int(h @ h) for h in coset_counts(E, directions)]
    if len(second_moments) != len(directions):
        raise ValueError(f"{len(second_moments)} second moments for {len(directions)} directions")
    total = sum(map(int, second_moments))
    size, theta = E.cardinality, len(directions)
    bound_pairs = Fraction(size * theta + 2 * size**2 * p ** ((n - m - 1) * m))
    bound_fourier = 2 * size * p ** ((n - m) * m) + Fraction(size**2 * theta, p**m)
    condition_ok = binom_at_most_twice_power(
        n - 1, n - m - 1, p
    ) and binom_at_most_twice_power(n - 1, m - 1, p)
    return KeyLemmaCheck(
        p=p,
        n=n,
        m=m,
        set_size=size,
        theta_size=theta,
        energy=total,
        bound_pairs=bound_pairs,
        bound_fourier=bound_fourier,
        condition_ok=condition_ok,
        small_set_regime=size <= p**m,
        ok=total <= min(bound_pairs, bound_fourier),
    )
