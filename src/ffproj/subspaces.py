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
from collections.abc import Sequence as SequenceABC
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
    "rref_stack",
    "Subspace",
    "SubspaceArray",
    "AffinePlane",
    "label_maps",
    "enumerate_grassmannian",
    "grassmannian_blocks",
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

# Working-memory cap of one array block (stacked bases, label maps, kernel
# chunks).  Fixed, not a setting: it keeps each block cache-sized and the
# peak memory of a sweep independent of its number of directions.
_KERNEL_BYTES = 1 << 20

# Float64 represents every integer below 2^53 exactly; see _residue_codes.
_FLOAT_EXACT = 1 << 53


def _block_rows(item_bytes: int) -> int:
    """How many items of ``item_bytes`` bytes each one block holds (at least one)."""
    return max(1, _KERNEL_BYTES // item_bytes)


def enumeration_budget() -> int:
    """Most objects one enumeration may stream: $FFPROJ_BUDGET, else DEFAULT_ENUM_BUDGET."""
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_ENUM_BUDGET
    if not env.isdecimal():
        raise ValueError(f"{BUDGET_ENV} must be a nonnegative integer, got {env!r}")
    return int(env)


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


def rref_stack(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rref_mod_p` of a (c, r, n) stack of rank-r matrices at once.

    Returns the (c, r, n) int64 RREF bases and their (c, r) pivot columns.
    Each matrix picks its own pivot row per column; since the RREF is
    canonical, the bases equal those of :func:`rref_mod_p` row for row.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    c, r, n = mats.shape
    inverse = np.zeros(p, dtype=np.int64)
    inverse[1:] = [pow(a, -1, p) for a in range(1, p)]
    pivots = np.zeros((c, r), dtype=np.int64)
    rank = np.zeros(c, dtype=np.int64)
    below = np.arange(r)
    for col in range(n):
        candidates = (mats[:, :, col] != 0) & (below >= rank[:, None])
        g = np.flatnonzero(candidates.any(axis=1))
        if not g.size:
            continue
        src, dst = candidates[g].argmax(axis=1), rank[g]
        lead = mats[g, src]
        mats[g, src] = mats[g, dst]
        lead = lead * inverse[lead[:, col]][:, None] % p
        factors = mats[g, :, col]
        factors[np.arange(g.size), dst] = 0
        block = (mats[g] - factors[:, :, None] * lead[:, None, :]) % p
        block[np.arange(g.size), dst] = lead
        mats[g] = block
        pivots[g, dst] = col
        rank[g] += 1
    if (rank != r).any():  # callers pass bases of known rank; cannot fail
        raise IdentityError("rank-deficient matrix in rref_stack")
    return mats, pivots


def label_maps(bases: np.ndarray, pivots: Sequence[int], p: int) -> np.ndarray:
    """Label maps Q_W of a (c, k, n) stack of RREF bases sharing the pivot columns ``pivots``.

    Returns one (c, n, n-k) float64 array: Q[nonpiv_j, j] = 1 and
    Q[piv_i, j] = -B[i, nonpiv_j] mod p, so column j of x @ Q reads the j-th
    non-pivot coordinate of the canonical coset representative x - x[piv] @ B,
    and ((x @ Q) % p) @ p^arange(n-k) is the label of :func:`coset_labels`.
    The array is a view of an (n-k, c, n) buffer: ``Q.transpose(2, 0, 1)`` is
    that buffer, the stacked maps :func:`_residue_codes` reads.
    """
    c, k, n = bases.shape
    nonpiv = [j for j in range(n) if j not in pivots]
    Q = np.zeros((n - k, c, n))
    Q[range(n - k), :, nonpiv] = 1
    Q[:, :, list(pivots)] = (-bases[:, :, nonpiv] % p).transpose(2, 0, 1)
    return Q.transpose(1, 2, 0)


def _residue_codes(space: AmbientSpace, rows: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Base-p code sum_j ((x @ M)_j mod p) p^j of each row x of ``rows`` under each stacked map M.

    ``rows`` is an (R, k) float64 array with k <= n, and ``maps`` a
    (width, c, k) float64 array of c maps with ``width`` columns each:
    maps[j, i] is column j of map i.  All entries are residues in [0, p).
    Returns the C-contiguous (c, R) int64 codes.

    Every entry of the one float64 product is an integer of at most
    n (p-1)^2, so the product is exact while n (p-1)^2 < 2^53; BudgetError
    is raised before the product otherwise.  The residue is taken in int64
    in place (an integer division is much faster than ``%``), and a Horner
    pass over the ``width`` contiguous (c, R) slabs packs the digits.
    """
    p, n = space.p, space.n
    if n * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise BudgetError(
            f"F_{p}^{n} is too large for exact float64 labels: n (p-1)^2 >= 2^53"
        )
    width, c, k = maps.shape
    if not width:  # maps onto F_p^0: every code is 0
        return np.zeros((c, len(rows)), dtype=np.int64)
    product = maps.reshape(width * c, k) @ rows.T
    y = product.astype(np.int64)
    q = np.floor_divide(y, p, out=product.view(np.int64))  # reuses the product's buffer
    q *= p
    y -= q
    del product, q
    slabs = y.reshape(width, c, len(rows))
    codes = slabs[width - 1]
    for j in range(width - 2, -1, -1):
        codes = codes * p  # a new array: a caller holding the codes does not pin the slabs
        codes += slabs[j]
    return codes


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


class SubspaceArray(SequenceABC):
    """Equal-dimension subspaces stored as stacked RREF bases; a read-only Sequence[Subspace].

    ``bases`` is a (G, k, n) int64 array and ``pivots`` its (G, k) pivot
    columns.  Sweeps read the arrays (:meth:`label_map_blocks`); a
    :class:`Subspace` is built only when an element is indexed or iterated.
    Two arrays are equal when their spaces and bases are.
    """

    __slots__ = ("space", "bases", "pivots")

    def __init__(self, space: AmbientSpace, bases: np.ndarray, pivots: np.ndarray):
        bases = np.asarray(bases, dtype=np.int64)
        if bases.ndim != 3 or bases.shape[2] != space.n:
            raise ValueError(f"bases must have shape (G, k, {space.n}), got {bases.shape}")
        pivots = np.broadcast_to(np.asarray(pivots, dtype=np.int64), bases.shape[:2])
        bases = bases.view()  # freeze a view, not the caller's array
        bases.flags.writeable = False
        self.space, self.bases, self.pivots = space, bases, pivots

    @classmethod
    def of(cls, space: AmbientSpace, subspaces: Iterable[Subspace]) -> "SubspaceArray":
        """Stack equal-dimension subspaces of ``space``; an array of ``space`` is returned as is.

        Raises ``ValueError`` for a subspace of another space or for mixed
        dimensions.  An empty input stacks to an empty array of dimension 0.
        """
        if isinstance(subspaces, SubspaceArray):
            if subspaces.space != space:
                raise ValueError("point set and direction live in different spaces")
            return subspaces
        subspaces = list(subspaces)
        if any(W.space != space for W in subspaces):
            raise ValueError("point set and direction live in different spaces")
        if len({W.dim for W in subspaces}) > 1:
            raise ValueError("direction set mixes dimensions")
        shape = (len(subspaces), subspaces[0].dim if subspaces else 0)
        bases = np.array([W.basis for W in subspaces], dtype=np.int64)
        pivots = np.array([W.pivots for W in subspaces], dtype=np.int64)
        return cls(space, bases.reshape(*shape, space.n), pivots.reshape(shape))

    @classmethod
    def grassmannian(
        cls, space: AmbientSpace, m: int, budget: int | None = None
    ) -> "SubspaceArray":
        """All of G(n, m), in enumeration order; the budget is checked first."""
        blocks = list(grassmannian_blocks(space, m, budget=budget))
        bases = np.concatenate([b for b, _ in blocks])
        pivots = np.concatenate([np.broadcast_to(piv, (len(b), m)) for b, piv in blocks])
        return cls(space, bases, pivots)

    @property
    def dim(self) -> int:
        return self.bases.shape[1]

    def __len__(self) -> int:
        return len(self.bases)

    def _subspace(self, basis: list, pivots: list) -> Subspace:
        return Subspace(self.space, tuple(map(tuple, basis)), tuple(pivots))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SubspaceArray(self.space, self.bases[i], self.pivots[i])
        return self._subspace(self.bases[i].tolist(), self.pivots[i].tolist())

    def __iter__(self) -> Iterator[Subspace]:
        for basis, pivots in zip(self.bases.tolist(), self.pivots.tolist()):
            yield self._subspace(basis, pivots)

    def __eq__(self, other) -> bool:
        if isinstance(other, SubspaceArray):
            return self.space == other.space and np.array_equal(self.bases, other.bases)
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def label_map_blocks(self, rows: int) -> Iterator[np.ndarray]:
        """(c, n, n-k) label maps of consecutive runs of at most ``rows`` elements.

        A run never spans two pivot patterns, so each block is one
        :func:`label_maps` call.
        """
        pattern_starts = np.flatnonzero((self.pivots[1:] != self.pivots[:-1]).any(axis=1)) + 1
        bounds = [0, *pattern_starts.tolist(), len(self)]
        for lo, hi in zip(bounds, bounds[1:]):
            for start in range(lo, hi, rows):
                bases = self.bases[start : min(start + rows, hi)]
                yield label_maps(bases, self.pivots[start].tolist(), self.space.p)

    def __repr__(self) -> str:
        return (
            f"SubspaceArray(p={self.space.p}, n={self.space.n}, "
            f"dim={self.dim}, len={len(self)})"
        )


def _dual_point_blocks(directions: SubspaceArray) -> Iterator[np.ndarray]:
    """Point indices of Per(W) for each W of ``directions``, in (c, p^(n-k)) blocks.

    Per(W) is spanned by the columns of the label map Q_W, so a block is
    dualised with one :func:`rref_stack` of the stacked Q_W^T.  Each row lists
    its dual's points in RREF-coefficient order, the order of
    ``perp(W).point_indices()``, so sums over a row are bit-identical to sums
    over those indices.  Rows are C-contiguous: a strided view would change
    the order in which numpy sums a gathered row.
    """
    space = directions.space
    p, n, r = space.p, space.n, space.n - directions.dim
    coeffs = base_p_digits(np.arange(p**r), p, r).astype(np.float64)
    rows = _block_rows(8 * p**r * (n + 2))  # each dual's points, indices and gathered values
    for Q in directions.label_map_blocks(rows):
        duals = rref_stack(Q.transpose(0, 2, 1), p)[0].transpose(2, 0, 1)
        yield _residue_codes(space, coeffs, duals.astype(np.float64, order="C"))


def _check_enumeration(space: AmbientSpace, m: int, budget: int | None) -> None:
    """Refuse m outside [0, n], and a G(n, m) larger than the enumeration budget."""
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


def enumerate_grassmannian(
    space: AmbientSpace, m: int, budget: int | None = None
) -> Iterator[Subspace]:
    """Stream all m-dimensional subspaces in canonical RREF form.

    Order is deterministic: lexicographic over pivot-column patterns, then
    over the free entries (row-major, least significant last).  ``budget``
    defaults to :func:`enumeration_budget` and is checked at the call, before
    the stream starts.  The subspaces are built from :func:`grassmannian_blocks`.
    """
    _check_enumeration(space, m, budget)
    return _grassmannian_stream(space, m)


def _grassmannian_stream(space: AmbientSpace, m: int) -> Iterator[Subspace]:
    for bases, pivots in _pattern_blocks(space, m, None):
        for basis in bases.tolist():
            yield Subspace(space, tuple(map(tuple, basis)), pivots)


def grassmannian_blocks(
    space: AmbientSpace, m: int, rows: int | None = None, budget: int | None = None
) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    """Stream G(n, m) as stacked RREF bases, in :func:`enumerate_grassmannian` order.

    Yields (bases, pivots): a (c, m, n) int64 array of c <= ``rows`` bases
    sharing the pivot columns ``pivots``.  ``rows`` defaults to what fits
    ``_KERNEL_BYTES``; the budget is checked at the call.
    """
    _check_enumeration(space, m, budget)
    return _pattern_blocks(space, m, rows)


def _pattern_blocks(
    space: AmbientSpace, m: int, rows: int | None
) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    p, n = space.p, space.n
    if rows is None:  # a basis and its free digits: under 2 n^2 int64 entries
        rows = _block_rows(16 * n * n)
    for pivots in itertools.combinations(range(n), m):
        free_i, free_j = np.array(
            [(i, j) for i in range(m) for j in range(n) if j > pivots[i] and j not in pivots],
            dtype=np.int64,
        ).reshape(-1, 2).T
        template = np.zeros((m, n), dtype=np.int64)
        template[np.arange(m), list(pivots)] = 1
        total = p**free_i.size
        for start in range(0, total, rows):
            count = min(rows, total - start)
            bases = np.repeat(template[None], count, axis=0)
            # the last free entry varies fastest: big-endian digits of the index
            digits = base_p_digits(np.arange(start, start + count), p, free_i.size)
            bases[:, free_i, free_j] = digits[:, ::-1]
            yield bases, pivots


def affine_count(space: AmbientSpace, m: int) -> int:
    """|A(n,m)| = p^(n-m) C(n,m)_p."""
    return space.p ** (space.n - m) * gaussian_binomial(space.n, m, space.p)


def enumerate_affine(
    space: AmbientSpace, m: int, budget: int | None = None
) -> Iterator[AffinePlane]:
    """Stream all m-dimensional planes (every coset of every direction).

    The budget is checked at the call, as in :func:`enumerate_grassmannian`.
    """
    if budget is None:
        budget = enumeration_budget()
    total = affine_count(space, m)
    if total > budget:
        raise BudgetError(
            f"A({space.n},{m}) over F_{space.p} has {total} elements, over budget {budget}"
        )
    return (
        AffinePlane(W, rep)
        for W in enumerate_grassmannian(space, m, budget=budget)
        for rep in coset_reps(W)
    )


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


def coset_labels(W: Subspace, indices: np.ndarray) -> np.ndarray:
    """Coset label of each point index under W, vectorized.

    The label packs the non-pivot coordinates of the canonical representative
    in base p, so two points share a label iff their difference lies in W.
    This is the int64 cross-check of the float64 sweep kernel.
    """
    space = W.space
    p = space.p
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
