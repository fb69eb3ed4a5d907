"""Generalized energy of a point set over families of affine planes.

A family A of m-dimensional planes is a pair (directions, labels): plane i
is the coset labelled labels[i] (see ``subspaces.coset_labels``) of
directions[i], a :class:`SubspaceArray` with one entry per plane.  Its energy

    energy(E, A) = sum_{P in A} |E n P|^2

is the number of (ordered) pairs of E lying in a common plane, counted with
family multiplicity.  Over the full family A(n,m) the energy has the closed
form

    |E| p^m C(n-1, m)_p + |E|^2 C(n-1, m-1)_p,

which this module verifies both combinatorially (a sweep of G(n, m)) and
through the spectral route (subspace Plancherel summed over G(n, m), read
off one sweep of the hyperplanes G(n, n-1) by the line powers of
``fourier._line_powers``), both in exact integers.  The classical additive
energy of A, B in F_p is the special case of the family of lines x + y = k
in F_p^2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import AmbientSpace, PointSet, _integer_array
from .fourier import _line_power_sum
from .projections import _histogram_blocks, coset_counts
from .subspaces import (
    Subspace,
    SubspaceArray,
    binom_at_most_twice_power,
    gaussian_binomial,
    gaussian_binomial_or_zero,
)

__all__ = [
    "family_energy",
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


def family_energy(E: PointSet, directions: SubspaceArray, labels: np.ndarray) -> int:
    """Exact sum of |E n P|^2 over a family of planes: P_i is the coset labels[i] of directions[i].

    The family holds one direction and one coset label (see
    ``subspaces.coset_labels``) per plane, repeats allowed.  Each distinct
    direction is swept once, and the planes are read off the histograms by
    one gather.
    """
    space = E.space
    directions = SubspaceArray.of(space, directions)  # refuses another space
    labels = _integer_array(labels, "labels")
    if labels.shape != (len(directions),):
        raise ValueError(f"{labels.size} coset labels for {len(directions)} directions")
    cosets = space.p ** (space.n - directions.dim)
    if ((labels < 0) | (labels >= cosets)).any():
        raise ValueError(f"coset labels must lie in [0, {cosets})")
    if not len(directions):
        return 0
    bases, which = np.unique(directions.bases, axis=0, return_inverse=True)
    swept = _histogram_blocks(E, SubspaceArray._unchecked(space, bases))
    hits = np.concatenate(list(swept))[which.reshape(-1), labels]
    return sum((hits * hits).tolist())  # in Python ints: a family may repeat a plane without bound


def energy_over_all_planes(E: PointSet, m: int) -> int:
    """energy(E, A(n,m)) without materializing the planes: one sweep of G(n, m)."""
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


def verify_energy_identity_fourier(E: PointSet, m: int) -> tuple[Fraction, int, bool]:
    """The spectral side of the energy identity, exact: (spectral, closed form, equal).

    By subspace Plancherel the energy over A(n,m) is p^(m-n) times the sum over
    V in G(n,m) of the Fourier mass of Per(V).  The origin lies in every Per(V)
    and each line <xi> in Per(V) for exactly C(n-1,m)_p of the V (those inside
    xi^perp), so that is p^(m-n) [C(n,m)_p |E|^2 + C(n-1,m)_p sum_H (p M(H) - |E|^2)]
    over the hyperplanes H, one sweep of G(n, n-1).  For m = n-1 the bracket
    is p sum_H M(H): the spectral side is the combinatorial sum itself.
    """
    space, p, n, size = E.space, E.space.p, E.space.n, E.cardinality
    planes = gaussian_binomial(n, m, p)  # refuses m outside [0, n]
    powers = _line_power_sum(E, _histogram_blocks(E, SubspaceArray.grassmannian(space, n - 1)))
    bracket = planes * size**2 + gaussian_binomial_or_zero(n - 1, m, p) * powers
    lhs, rhs = Fraction(p**m * bracket, p**n), energy_identity_closed_form(space, size, m)
    return lhs, rhs, lhs == rhs


def sum_lines(p: int) -> tuple[SubspaceArray, np.ndarray]:
    """The lines x + y = k in F_p^2, k = 0..p-1: line k is the coset labelled k of span{(1, -1)}."""
    return SubspaceArray(AmbientSpace(p, 2), np.tile([1, p - 1], (p, 1, 1))), np.arange(p)


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
    pairs, fourier = _key_lemma_bounds(p, n, m, size, theta)
    bound_pairs, bound_fourier = Fraction(pairs), Fraction(fourier, p**m)
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


def _key_lemma_bounds(p, n, m, size, theta):
    """bound_pairs, and bound_fourier times p^m, as integers.

    The arguments may be arrays of Python ints, broadcast against each other,
    to bound many (set, m, Theta) instances at once.
    """
    pairs = size * theta + 2 * size**2 * p ** ((n - m - 1) * m)
    fourier = 2 * size * p ** ((n - m) * m + m) + size**2 * theta
    return pairs, fourier
