"""Linear subspaces of F_p^n, affine planes, and Gaussian binomial counting.

A subspace is identified with its reduced-row-echelon basis, which is a
unique canonical form, so subspace equality is matrix equality and the
Grassmannian G(n,m) can be streamed by walking pivot-column patterns and
filling the free entries.  The number of m-dimensional subspaces is the
Gaussian binomial

    C(n,m)_p = (p^n - 1)(p^n - p)...(p^n - p^(m-1))
               -----------------------------------
               (p^m - 1)(p^m - p)...(p^m - p^(m-1))

which is always an exact integer.  The dual complement

    Per(W) = {x : x.w = 0 for all w in W}

satisfies dim W + dim Per(W) = n and Per(Per(W)) = W, although W and
Per(W) may intersect nontrivially (span{(1,1)} in F_2^2 is self-dual).
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import AmbientSpace, BudgetError, IdentityError, PointSet, base_p_digits, digits_of

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "BUDGET_ENV",
    "enumeration_budget",
    "gaussian_binomial",
    "gaussian_binomial_or_zero",
    "check_range_condition",
    "binom_at_most_twice_power",
    "verify_pascal_identities",
    "rref_mod_p",
    "Subspace",
    "AffinePlane",
    "enumerate_grassmannian",
    "enumerate_affine",
    "affine_count",
    "perp",
    "coset_of",
    "coset_labels",
    "coset_reps",
    "all_cosets",
    "count_subspaces_containing",
    "count_subspaces_with_perp_containing",
    "save_subspace",
    "load_subspace",
]

DEFAULT_ENUM_BUDGET = 10**7
BUDGET_ENV = "FFPROJ_BUDGET"


def enumeration_budget() -> int:
    """Most objects one enumeration may stream: $FFPROJ_BUDGET, else DEFAULT_ENUM_BUDGET."""
    env = os.environ.get(BUDGET_ENV)
    return int(env) if env else DEFAULT_ENUM_BUDGET


def gaussian_binomial(n: int, m: int, p: int) -> int:
    """Number of m-dimensional subspaces of F_p^n, as an exact integer."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    num = den = 1
    for i in range(m):
        num *= p**n - p**i
        den *= p**m - p**i
    if num % den:  # cannot happen; the quotient counts subspaces
        raise IdentityError(f"non-exact division for C({n},{m})_{p}")
    return num // den


def gaussian_binomial_or_zero(n: int, m: int, p: int) -> int:
    """Gaussian binomial extended by the convention C(n,m)_p = 0 off 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return gaussian_binomial(n, m, p)


def check_range_condition(n: int, m: int, p: int) -> bool:
    """Exact test of p^(m(n-m)) <= C(n,m)_p <= 2 p^(m(n-m))."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got n={n}, m={m}")
    g = gaussian_binomial(n, m, p)
    power = p ** (m * (n - m))
    return power <= g <= 2 * power


def binom_at_most_twice_power(n: int, m: int, p: int) -> bool:
    """Upper half of the range condition, C(n,m)_p <= 2 p^(m(n-m)), edges allowed."""
    if m < 0 or m > n:
        return True  # binomial is 0
    return gaussian_binomial(n, m, p) <= 2 * p ** (m * (n - m))


def verify_pascal_identities(n: int, m: int, p: int) -> bool:
    """Exact check of both Pascal-style recurrences and the symmetry of C(n,m)_p."""
    if not 1 <= m <= n - 1:
        raise ValueError(f"need 1 <= m <= n-1, got n={n}, m={m}")
    g = gaussian_binomial(n, m, p)
    rec_low = gaussian_binomial(n - 1, m, p) + p ** (n - m) * gaussian_binomial(
        n - 1, m - 1, p
    )
    rec_high = gaussian_binomial(n - 1, m - 1, p) + p**m * gaussian_binomial(
        n - 1, m, p
    )
    return g == rec_low and g == rec_high and g == gaussian_binomial(n, n - m, p)


def rref_mod_p(
    rows: Iterable[Sequence[int]], p: int, n: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    mat = [[int(c) % p for c in row] for row in rows]
    for row in mat:
        if len(row) != n:
            raise ValueError(f"row width {len(row)} != {n}")
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [c * inv % p for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical RREF form; equality is basis equality."""

    space: AmbientSpace
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        p, n = self.space.p, self.space.n
        if len(self.basis) != len(self.pivots):
            raise ValueError("one pivot per basis row required")
        if any(self.pivots[i] >= self.pivots[i + 1] for i in range(len(self.pivots) - 1)):
            raise ValueError("pivot columns must strictly increase")
        for i, row in enumerate(self.basis):
            if len(row) != n or any(not 0 <= c < p for c in row):
                raise ValueError("basis row out of range")
            if row[self.pivots[i]] != 1:
                raise ValueError("pivot entry must be 1")
            if any(row[j] for j in range(self.pivots[i])):
                raise ValueError("entries left of pivot must vanish")
            if any(row[self.pivots[k]] for k in range(len(self.basis)) if k != i):
                raise ValueError("pivot columns must be zero in other rows")

    @classmethod
    def from_rows(cls, space: AmbientSpace, rows: Iterable[Sequence[int]]) -> "Subspace":
        """Span of arbitrary generating rows, canonicalized."""
        basis, pivots = rref_mod_p(rows, space.p, space.n)
        return cls(space, basis, pivots)

    @classmethod
    def zero(cls, space: AmbientSpace) -> "Subspace":
        return cls(space, (), ())

    @classmethod
    def full(cls, space: AmbientSpace) -> "Subspace":
        eye = tuple(
            tuple(1 if j == i else 0 for j in range(space.n)) for i in range(space.n)
        )
        return cls(space, eye, tuple(range(space.n)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=np.int64).reshape(self.dim, self.space.n)

    def reduce(self, v: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of v: zero out the pivot coordinates."""
        v = list(self.space.validate_vector(v))
        p = self.space.p
        for row, piv in zip(self.basis, self.pivots):
            f = v[piv]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.reduce(v))

    def point_indices(self) -> np.ndarray:
        """Indices of all p^dim points of the subspace."""
        p, n = self.space.p, self.space.n
        coeffs = base_p_digits(np.arange(p**self.dim), p, self.dim)
        pts = coeffs @ self.matrix % p
        weights = p ** np.arange(n, dtype=np.int64)
        return pts @ weights

    def point_set(self) -> PointSet:
        return PointSet.from_indices(self.space, self.point_indices())

    def nonpivot_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.space.n) if j not in self.pivots)

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(c) for c in row) for row in self.basis)
        return f"Subspace(p={self.space.p}, n={self.space.n}, [{rows}])"


@dataclass(frozen=True)
class AffinePlane:
    """A coset rep + direction, with rep canonicalized to vanish on pivot columns."""

    direction: Subspace
    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        space = self.direction.space
        rep = space.validate_vector(self.rep)
        if any(rep[piv] for piv in self.direction.pivots):
            raise ValueError("representative must vanish on pivot coordinates")

    @property
    def space(self) -> AmbientSpace:
        return self.direction.space

    @property
    def dim(self) -> int:
        return self.direction.dim

    def label(self) -> int:
        """Rank of this coset among the p^(n-dim) cosets of its direction."""
        p = self.space.p
        label = 0
        for col in reversed(self.direction.nonpivot_columns()):
            label = label * p + self.rep[col]
        return label

    def contains(self, v: Sequence[int]) -> bool:
        return self.direction.reduce(v) == self.rep

    def point_indices(self) -> np.ndarray:
        p = self.space.p
        base = self.direction.point_indices()
        pts = (digits_of(self.space, base) + np.array(self.rep)) % p
        weights = p ** np.arange(self.space.n, dtype=np.int64)
        return pts @ weights

    def __repr__(self) -> str:
        return f"AffinePlane(rep={self.rep}, direction={self.direction!r})"


def enumerate_grassmannian(
    space: AmbientSpace, m: int, budget: int | None = None
) -> Iterator[Subspace]:
    """Stream all m-dimensional subspaces in canonical RREF form.

    Order is deterministic: lexicographic over pivot-column patterns, then
    over the free entries (row-major, least significant last).  ``budget``
    defaults to :func:`enumeration_budget`.
    """
    p, n = space.p, space.n
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    if budget is None:
        budget = enumeration_budget()
    total = gaussian_binomial(n, m, p)
    if total > budget:
        raise BudgetError(
            f"G({n},{m}) over F_{p} has {total} elements, over budget {budget}"
        )
    for pivots in itertools.combinations(range(n), m):
        free = [
            (i, j)
            for i in range(m)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        template = [[0] * n for _ in range(m)]
        for i, piv in enumerate(pivots):
            template[i][piv] = 1
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            yield Subspace(space, tuple(tuple(r) for r in rows), tuple(pivots))


def affine_count(space: AmbientSpace, m: int) -> int:
    """|A(n,m)| = p^(n-m) C(n,m)_p."""
    return space.p ** (space.n - m) * gaussian_binomial(space.n, m, space.p)


def enumerate_affine(
    space: AmbientSpace, m: int, budget: int | None = None
) -> Iterator[AffinePlane]:
    """Stream all m-dimensional planes (every coset of every direction)."""
    if budget is None:
        budget = enumeration_budget()
    total = affine_count(space, m)
    if total > budget:
        raise BudgetError(
            f"A({space.n},{m}) over F_{space.p} has {total} elements, over budget {budget}"
        )
    for W in enumerate_grassmannian(space, m, budget=budget):
        for rep in coset_reps(W):
            yield AffinePlane(W, rep)


def perp(W: Subspace) -> Subspace:
    """Dual complement Per(W) = {x : x.w = 0 for all w in W}."""
    space = W.space
    p, n = space.p, space.n
    vecs = []
    for f in W.nonpivot_columns():
        v = [0] * n
        v[f] = 1
        for row, piv in zip(W.basis, W.pivots):
            v[piv] = (-row[f]) % p
        vecs.append(v)
    out = Subspace.from_rows(space, vecs)
    if out.dim != n - W.dim:  # rank-nullity; cannot fail
        raise IdentityError("nullspace dimension mismatch")
    return out


def coset_of(W: Subspace, x: Sequence[int]) -> AffinePlane:
    """The coset x + W with its canonical representative."""
    return AffinePlane(W, W.reduce(x))


def coset_reps(W: Subspace) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of all p^(n-dim) cosets, in label order."""
    space = W.space
    p, n = space.p, space.n
    nonpiv = W.nonpivot_columns()
    # label digits run little-endian across non-pivot columns (AffinePlane.label)
    for label in range(p ** len(nonpiv)):
        rep = [0] * n
        rem = label
        for col in nonpiv:
            rem, digit = divmod(rem, p)
            rep[col] = digit
        yield tuple(rep)


def all_cosets(W: Subspace) -> list[AffinePlane]:
    return [AffinePlane(W, rep) for rep in coset_reps(W)]


def coset_labels(
    W: Subspace, indices: np.ndarray, digits: np.ndarray | None = None
) -> np.ndarray:
    """Coset label of each point index under W, vectorized.

    The label packs the non-pivot coordinates of the canonical representative
    in base p, so two points share a label iff their difference lies in W.
    """
    space = W.space
    p = space.p
    if digits is None:
        digits = digits_of(space, np.asarray(indices, dtype=np.int64))
    if W.dim:
        piv = np.array(W.pivots, dtype=np.int64)
        reps = (digits - digits[:, piv] @ W.matrix) % p
    else:
        reps = digits
    nonpiv = np.array(W.nonpivot_columns(), dtype=np.int64)
    if nonpiv.size == 0:
        return np.zeros(len(digits), dtype=np.int64)
    weights = p ** np.arange(nonpiv.size, dtype=np.int64)
    return reps[:, nonpiv] @ weights


def count_subspaces_containing(
    space: AmbientSpace, xi: Sequence[int], m: int, verify: bool = False
) -> int:
    """|{V in G(n,m) : xi in V}| = C(n-1, m-1)_p for nonzero xi."""
    xi = space.validate_vector(xi)
    if not any(xi):
        raise ValueError("xi must be nonzero")
    if not 1 <= m <= space.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    value = gaussian_binomial(space.n - 1, m - 1, space.p)
    if verify:
        observed = sum(
            1 for V in enumerate_grassmannian(space, m) if V.contains(xi)
        )
        if observed != value:
            raise IdentityError(
                f"containment count {observed} != closed form {value} for xi={xi}"
            )
    return value


def count_subspaces_with_perp_containing(
    space: AmbientSpace, xi: Sequence[int], m: int, verify: bool = False
) -> int:
    """|{V in G(n,m) : xi in Per(V)}| = C(n-1, m)_p for nonzero xi."""
    xi = space.validate_vector(xi)
    if not any(xi):
        raise ValueError("xi must be nonzero")
    if not 0 <= m <= space.n - 1:
        raise ValueError(f"need 0 <= m <= n-1, got m={m}")
    value = gaussian_binomial(space.n - 1, m, space.p)
    if verify:
        observed = 0
        for V in enumerate_grassmannian(space, m):
            if V.dim == 0 or not (V.matrix @ np.array(xi) % space.p).any():
                observed += 1
        if observed != value:
            raise IdentityError(
                f"dual containment count {observed} != closed form {value} for xi={xi}"
            )
    return value


_SUBSPACE_HEADER = re.compile(r"^subspace p=(\d+) n=(\d+) m=(\d+)$")


def save_subspace(W: Subspace, path) -> None:
    """Write the subspace text format (RREF rows of comma-separated residues)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_subspace(W))


def serialize_subspace(W: Subspace) -> str:
    lines = [f"subspace p={W.space.p} n={W.space.n} m={W.dim}"]
    for row in W.basis:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def load_subspace(path, space: AmbientSpace | None = None) -> Subspace:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return parse_subspace(text, space=space)


def parse_subspace(text: str, space: AmbientSpace | None = None) -> Subspace:
    lines = [line.strip() for line in text.strip().splitlines()]
    if not lines:
        raise ValueError("empty subspace text")
    m = _SUBSPACE_HEADER.match(lines[0])
    if not m:
        raise ValueError(f"bad subspace header: {lines[0]!r}")
    p, n, dim = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if space is None:
        space = AmbientSpace(p, n)
    elif (space.p, space.n) != (p, n):
        raise ValueError("subspace header does not match ambient space")
    rows = [tuple(int(c) for c in line.split(",")) for line in lines[1:]]
    if len(rows) != dim:
        raise ValueError(f"expected {dim} rows, got {len(rows)}")
    W = Subspace.from_rows(space, rows)
    if W.basis != tuple(rows):
        raise ValueError("subspace rows are not in canonical RREF form")
    return W
