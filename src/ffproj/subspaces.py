"""Linear subspaces of F_p^n, their cosets, and Gaussian binomial counting.

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
Per(W) may intersect nontrivially (span{(1,1)} in F_2^2 is self-dual).  An
affine plane x + W is named by its direction W and its coset label
(:func:`coset_labels`), not by an object of its own.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    AmbientSpace,
    BudgetError,
    IdentityError,
    PointSet,
    _integer_array,
    _integers,
    base_p_digits,
    digits_of,
    encode,
)

__all__ = [
    "DEFAULT_ENUM_BUDGET",
    "BUDGET_ENV",
    "enumeration_budget",
    "gaussian_binomial",
    "gaussian_binomial_or_zero",
    "check_range_condition",
    "binom_at_most_twice_power",
    "verify_pascal_identities",
    "rref_stack",
    "Subspace",
    "SubspaceArray",
    "label_maps",
    "enumerate_grassmannian",
    "affine_count",
    "perp",
    "coset_labels",
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
    return max(1, _KERNEL_BYTES // max(1, item_bytes))


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


def rref_stack(mats: np.ndarray, p: int) -> np.ndarray:
    """Reduced row echelon form mod p of each matrix of a (c, r, n) stack, at once.

    Returns the (c, r, n) int64 RREF bases.  Each matrix picks its own pivot
    row per column.  A matrix of rank below r ends in zero rows; callers that
    know the rank check it.
    """
    mats = np.asarray(mats, dtype=np.int64) % p
    c, r, n = mats.shape
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
        # one pow per pivot, not a table of all p inverses: p may be large
        inverse = [pow(a, -1, p) for a in lead[:, col].tolist()]
        lead = lead * np.array(inverse, dtype=np.int64)[:, None] % p
        factors = mats[g, :, col]
        factors[np.arange(g.size), dst] = 0
        block = (mats[g] - factors[:, :, None] * lead[:, None, :]) % p
        block[np.arange(g.size), dst] = lead
        mats[g] = block
        rank[g] += 1
    return mats


def _pivot_columns(bases: np.ndarray) -> np.ndarray:
    """Pivot column of each row of RREF bases (..., k, n): its first nonzero entry."""
    return (bases != 0).argmax(axis=-1)


def _rref_fault(bases: np.ndarray, p: int) -> str | None:
    """Why a (G, k, n) stack is not made of RREF bases mod p, or None if it is.

    RREF: residues in [0, p), no zero row, pivots (first nonzero entries)
    strictly increasing, and each pivot column a unit column.
    """
    if ((bases < 0) | (bases >= p)).any():
        return f"basis entries must be residues in [0, {p})"
    if not bases.any(axis=2).all():
        return "a basis has a zero row"
    pivots = _pivot_columns(bases)
    if (np.diff(pivots, axis=1) <= 0).any():
        return "pivot columns must strictly increase"
    at_pivots = np.take_along_axis(bases, pivots[:, None, :], axis=2)
    if (at_pivots != np.eye(bases.shape[1], dtype=np.int64)).any():
        return "each pivot column must be a unit column"
    return None


def _canonical_arrays(arrays) -> list[bool]:
    """Whether each array of one space holds RREF bases only, for all arrays at once.

    An array passes exactly when :func:`_rref_fault` finds no fault in its
    bases.  The bases are stacked and padded with zero rows
    (:func:`_padded_stack`), and three reductions over the stack decide:
    every entry is a residue, the pivots of a basis's rows strictly
    increase, and each pivot column sums to 1.  With residues, a column
    summing to 1 is a unit column, and a zero row fails one of the other two.
    """
    bases, ends = _padded_stack(arrays)
    real = np.zeros(bases.shape[:2], dtype=bool)  # the rows of each basis, not its padding
    for G, end in zip(arrays, ends):
        real[end - len(G) : end, : G.dim] = True
    pivots = _pivot_columns(bases)
    unit = np.take_along_axis(bases.sum(axis=1), pivots, axis=1) == 1
    ok = (
        (bases % arrays[0].space.p == bases).all(axis=(1, 2))
        & ((np.diff(pivots, axis=1) > 0) | ~real[:, 1:]).all(axis=1)
        & (unit | ~real).all(axis=1)
    )
    faults = np.concatenate([[0], np.cumsum(~ok)])  # an empty array has none
    return (faults[ends] == faults[[0, *ends[:-1]]]).tolist()


def label_maps(bases: np.ndarray, p: int) -> np.ndarray:
    """Label maps Q_W of a (c, k, n) stack of RREF bases, each with its own pivots.

    Returns one (c, n, n-k) float64 array: Q[nonpiv_j, j] = 1 and
    Q[piv_i, j] = -B[i, nonpiv_j] mod p, so column j of x @ Q reads the j-th
    non-pivot coordinate of the canonical coset representative x - x[piv] @ B,
    and ((x @ Q) % p) @ p^arange(n-k) is the label of :func:`coset_labels`.
    The array is a view of an (n-k, c, n) buffer: ``Q.transpose(2, 0, 1)`` is
    that buffer, the stacked maps :func:`_residue_codes` reads.
    """
    c, k, n = bases.shape
    pivots = _pivot_columns(bases)
    row, col = np.arange(c)[:, None], np.arange(n - k)
    free = np.ones((c, n), dtype=bool)
    free[row, pivots] = False
    nonpiv = np.nonzero(free)[1].reshape(c, n - k)  # increasing in each row
    entries = np.take_along_axis(bases, nonpiv[:, None, :], axis=2)  # B[i, nonpiv_j] per basis
    Q = np.zeros((n - k, c, n))
    Q[col, row, nonpiv] = 1
    Q[col, row[:, :, None], pivots[:, :, None]] = -entries % p
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


def _code_histograms(space: AmbientSpace, rows, tags, ntags: int, maps) -> np.ndarray:
    """(c, ntags, p^width) counts of the :func:`_residue_codes` of rows under c maps, by row tag."""
    width, c, _ = maps.shape
    bins = space.p**width
    codes = _residue_codes(space, rows, maps)
    codes += np.arange(c)[:, None] * (ntags * bins)
    if ntags > 1:
        codes += tags * bins
    return np.bincount(codes.ravel(), minlength=c * ntags * bins).reshape(c, ntags, bins)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical RREF form; equality is basis equality."""

    space: AmbientSpace
    basis: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __post_init__(self) -> None:
        p, n = self.space.p, self.space.n
        basis = tuple(_integers(row, f"basis[{i}]") for i, row in enumerate(self.basis))
        object.__setattr__(self, "basis", basis)  # a matrix cast would truncate 0.5 to 0
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
        p, n = space.p, space.n
        # in Python: entries may exceed int64
        mat = [[c % p for c in _integers(row, f"rows[{i}]")] for i, row in enumerate(rows)]
        for row in mat:
            if len(row) != n:
                raise ValueError(f"row width {len(row)} != {n}")
        bases = rref_stack(np.array(mat, dtype=np.int64).reshape(1, len(mat), n), p)
        # a rank-deficient input ends in zero rows: drop them
        return SubspaceArray._unchecked(space, bases[:, bases[0].any(axis=1)])[0]

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

    def contains(self, v: Sequence[int]) -> bool:
        return not coset_labels(self, [encode(self.space, v)])[0]

    def point_indices(self) -> np.ndarray:
        """Indices of all p^dim points of the subspace: one row of :func:`_point_blocks`."""
        return next(_point_blocks(SubspaceArray._unchecked(self.space, self.matrix[None])))[0]

    def point_set(self) -> PointSet:
        return PointSet.from_indices(self.space, self.point_indices())

    def nonpivot_columns(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.space.n) if j not in self.pivots)

    def __repr__(self) -> str:
        rows = ";".join(",".join(str(c) for c in row) for row in self.basis)
        return f"Subspace(p={self.space.p}, n={self.space.n}, [{rows}])"


class SubspaceArray(SequenceABC):
    """Equal-dimension subspaces stored as stacked RREF bases; a read-only Sequence[Subspace].

    ``bases`` is a (G, k, n) int64 array of RREF bases, each with its own
    pivots, so any row slice is again an array.  Sweeps read the array
    (:meth:`label_map_blocks`); a :class:`Subspace` is built only when an
    element is indexed or iterated.  Two arrays are equal when their spaces
    and bases are.  The constructor checks that every entry is an integer
    and every basis canonical, and raises ``ValueError`` otherwise.
    """

    __slots__ = ("space", "bases", "_grassmannian")

    def __init__(self, space: AmbientSpace, bases: np.ndarray):
        bases = _integer_array(bases, "bases")
        if bases.ndim != 3 or bases.shape[2] != space.n:
            raise ValueError(f"bases must have shape (G, k, {space.n}), got {bases.shape}")
        fault = _rref_fault(bases, space.p)
        if fault:
            raise ValueError(f"not a stack of RREF bases: {fault}")
        self._hold(space, bases)

    @classmethod
    def _unchecked(cls, space: AmbientSpace, bases: np.ndarray) -> "SubspaceArray":
        """An array of (G, k, n) int64 bases that are canonical by construction."""
        array = cls.__new__(cls)
        array._hold(space, bases)
        return array

    def _hold(self, space: AmbientSpace, bases: np.ndarray) -> None:
        bases = bases.view()  # freeze a view, not the caller's array
        bases.flags.writeable = False
        # True only for all of G(n, k) in enumeration order, which the histogram
        # kernel sweeps pattern by pattern; slices and other arrays are not marked
        self.space, self.bases, self._grassmannian = space, bases, False

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
        dim = subspaces[0].dim if subspaces else 0
        bases = np.array([W.basis for W in subspaces], dtype=np.int64)
        return cls._unchecked(space, bases.reshape(len(subspaces), dim, space.n))

    @classmethod
    def grassmannian(cls, space: AmbientSpace, m: int) -> "SubspaceArray":
        """All of G(n, m), in enumeration order; the enumeration budget is checked first."""
        _check_enumeration(space, m)
        array = cls._unchecked(space, np.concatenate(list(_pattern_blocks(space, m))))
        array._grassmannian = True
        return array

    @property
    def dim(self) -> int:
        return self.bases.shape[1]

    @property
    def pivots(self) -> np.ndarray:
        """(G, k) pivot columns, read off the bases."""
        return _pivot_columns(self.bases)

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SubspaceArray._unchecked(self.space, self.bases[i])
        return next(iter(SubspaceArray._unchecked(self.space, self.bases[i][None])))

    def __iter__(self) -> Iterator[Subspace]:
        for basis, pivots in zip(self.bases.tolist(), self.pivots.tolist()):
            yield Subspace(self.space, tuple(map(tuple, basis)), tuple(pivots))

    def __eq__(self, other) -> bool:
        if isinstance(other, SubspaceArray):
            return self.space == other.space and np.array_equal(self.bases, other.bases)
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None

    def label_map_blocks(self) -> Iterator[np.ndarray]:
        """(c, n, n-k) label maps of consecutive elements, one :func:`label_maps` call each.

        A block holds as many elements as keep its maps, 8 n (n-k) bytes
        each, under the kernel cap.
        """
        rows = _block_rows(8 * self.space.n * (self.space.n - self.dim))
        for start in range(0, len(self), rows):
            yield label_maps(self.bases[start : start + rows], self.space.p)

    def __repr__(self) -> str:
        return (
            f"SubspaceArray(p={self.space.p}, n={self.space.n}, "
            f"dim={self.dim}, len={len(self)})"
        )


def _dual_generators(bases: np.ndarray, compact: bool) -> np.ndarray:
    """I - M^T for each basis B of a (c, k, n) stack, M placing each row of B at its pivot row.

    Row q of I - M^T is e_q - sum_i B[i, q] e_{P_i}, P_i the pivot of row
    i of B.  It is zero when q is a pivot, as B[i', P_i] is 1 for i = i'
    and 0 otherwise, and orthogonal to every row of B when q is not.  The
    n - k rows at non-pivot columns are independent (row q alone is
    non-zero at q), so they span Per(W).  A zero row of B places nothing:
    bases padded with zero rows give the same generators.  ``compact``
    keeps only the non-zero rows, in increasing q, when no basis is padded.
    Entries are not reduced mod p.
    """
    c, k, n = bases.shape
    at_pivot = _pivot_columns(bases)[:, :, None] == np.arange(n)
    generators = np.eye(n, dtype=np.int64) - bases.transpose(0, 2, 1) @ at_pivot
    if compact:
        generators = generators[~at_pivot.any(axis=1)].reshape(c, n - k, n)
    return generators


def _padded_stack(arrays) -> tuple[np.ndarray, list[int]]:
    """The bases of a non-empty sequence of arrays of one space, stacked and padded with zero rows.

    Returns the (sum of lengths, largest dimension, n) int64 stack and where
    each array's bases end in it.
    """
    ends = np.cumsum([len(G) for G in arrays]).tolist()
    bases = np.zeros((ends[-1], max(G.dim for G in arrays), arrays[0].space.n), dtype=np.int64)
    for G, end in zip(arrays, ends):
        bases[end - len(G) : end, : G.dim] = G.bases
    return bases, ends


def _dual_bases(directions):
    """Per(W) for each W of ``directions``, in order; :func:`perp` is one row of it.

    ``directions`` is one :class:`SubspaceArray`, whose duals are returned
    as one, or a sequence of arrays of one space and any dimensions, whose
    duals are returned as a list.  All bases are stacked, padded with zero
    rows, and their generators (:func:`_dual_generators`: the n - k
    non-zero rows when every array has dimension k, else all n rows) are
    reduced by one :func:`rref_stack`, one per block of rows under the
    kernel cap.  The RREF of a span is unique, so a dual basis is the first
    n - k rows of its reduced generators, and none of them may be zero.
    """
    if isinstance(directions, SubspaceArray):
        return _dual_bases([directions])[0]
    if not directions:
        return []
    space = directions[0].space
    n = space.n
    dims = [G.dim for G in directions]
    bases, ends = _padded_stack(directions)
    compact = len(set(dims)) == 1
    stack = np.empty((len(bases), n - dims[0] if compact else n, n), dtype=np.int64)
    rows = _block_rows(8 * n * n)  # a block's generators before they are compacted
    for lo in range(0, len(bases), rows):
        generators = _dual_generators(bases[lo : lo + rows], compact)
        stack[lo : lo + rows] = rref_stack(generators, space.p)
    duals = []
    for G, end in zip(directions, ends):
        dual = np.ascontiguousarray(stack[end - len(G) : end, : n - G.dim])
        if not dual.any(axis=2).all():  # rank-nullity; cannot fail
            raise IdentityError("rank-deficient dual basis")
        duals.append(SubspaceArray._unchecked(space, dual))
    return duals


def _point_blocks(subspaces: SubspaceArray) -> Iterator[np.ndarray]:
    """Point indices of each subspace of the array, in (c, p^k) blocks.

    Row i lists sum_j c_j B[j] for c running over F_p^k in index order
    (``Subspace.point_indices`` is one row).  Rows are C-contiguous: a
    strided view would change how numpy sums a gathered row.
    """
    space = subspaces.space
    p, n, k = space.p, space.n, subspaces.dim
    coeffs = base_p_digits(np.arange(p**k), p, k).astype(np.float64)
    rows = _block_rows(8 * p**k * (n + 2))  # each subspace's points, indices and gathered values
    for start in range(0, len(subspaces), rows):
        bases = subspaces.bases[start : start + rows].transpose(2, 0, 1)
        yield _residue_codes(space, coeffs, bases.astype(np.float64, order="C"))


def _check_budget(family: str, size: int, budget: int | None = None) -> None:
    """Refuse a family of ``size`` objects over the budget, and a negative budget.

    ``budget`` defaults to :func:`enumeration_budget`; like $FFPROJ_BUDGET it
    must be a nonnegative integer.
    """
    if budget is None:
        budget = enumeration_budget()
    if budget < 0:
        raise ValueError(f"budget must be a nonnegative integer, got {budget}")
    if size > budget:
        raise BudgetError(f"{family} has {size} elements, over budget {budget}")


def _check_enumeration(space: AmbientSpace, m: int) -> None:
    """Refuse m outside [0, n], and a G(n, m) larger than :func:`enumeration_budget`."""
    p, n = space.p, space.n
    _check_budget(f"G({n},{m}) over F_{p}", gaussian_binomial(n, m, p))


def enumerate_grassmannian(space: AmbientSpace, m: int) -> Iterator[Subspace]:
    """Stream all m-dimensional subspaces in canonical RREF form.

    Order is deterministic: lexicographic over pivot-column patterns, then
    over the free entries (row-major, least significant last).  The
    enumeration budget is checked at the call, before the stream starts.
    """
    _check_enumeration(space, m)
    return (
        W for bases in _pattern_blocks(space, m) for W in SubspaceArray._unchecked(space, bases)
    )


class _Pattern(NamedTuple):
    """One pivot pattern of G(n, m): its pivot and non-pivot columns and its free entries.

    The free entries (rows[e], cols[e]) are listed row by row, left to
    right; a pattern's subspaces fill them with the big-endian base-p
    digits of their index within the pattern, so the last entry varies
    fastest.
    """

    pivots: tuple[int, ...]
    nonpivots: tuple[int, ...]
    rows: np.ndarray
    cols: np.ndarray


@functools.lru_cache(maxsize=64)
def _pattern_plans(n: int, m: int) -> tuple[_Pattern, ...]:
    """The pivot patterns of G(n, m) in enumeration order (lexicographic pivots)."""
    plans = []
    for pivots in itertools.combinations(range(n), m):
        nonpivots = tuple(j for j in range(n) if j not in pivots)
        entries = np.array(
            [(i, j) for i in range(m) for j in nonpivots if j > pivots[i]], dtype=np.int64
        ).reshape(-1, 2)
        entries.flags.writeable = False  # shared by every caller of the cache
        plans.append(_Pattern(pivots, nonpivots, entries[:, 0], entries[:, 1]))
    return tuple(plans)


def _pattern_blocks(space: AmbientSpace, m: int) -> Iterator[np.ndarray]:
    """G(n, m) as (c, m, n) int64 RREF bases, one pivot pattern at a time, in enumeration order."""
    p, n = space.p, space.n
    rows = _block_rows(16 * n * n)  # a basis and its free digits: under 2 n^2 int64 entries
    for pattern in _pattern_plans(n, m):
        template = np.zeros((m, n), dtype=np.int64)
        template[np.arange(m), list(pattern.pivots)] = 1
        free = len(pattern.rows)
        total = p**free
        for start in range(0, total, rows):
            count = min(rows, total - start)
            bases = np.repeat(template[None], count, axis=0)
            # the last free entry varies fastest: big-endian digits of the index
            digits = base_p_digits(np.arange(start, start + count), p, free)
            bases[:, pattern.rows, pattern.cols] = digits[:, ::-1]
            yield bases


def affine_count(space: AmbientSpace, m: int) -> int:
    """|A(n,m)| = p^(n-m) C(n,m)_p."""
    return space.p ** (space.n - m) * gaussian_binomial(space.n, m, space.p)


def perp(W: Subspace) -> Subspace:
    """Dual complement Per(W) = {x : x.w = 0 for all w in W}: one row of :func:`_dual_bases`."""
    return _dual_bases(SubspaceArray._unchecked(W.space, W.matrix[None]))[0]


def coset_labels(W: Subspace, indices: np.ndarray) -> np.ndarray:
    """Coset label of each point index under W: the sweep kernel's labels for one direction.

    The label packs the non-pivot coordinates of the canonical representative
    in base p, so two points share a label iff their difference lies in W.
    """
    space = W.space
    digits = digits_of(space, np.asarray(indices, dtype=np.int64)).astype(np.float64)
    maps = label_maps(W.matrix[None], space.p)
    return _residue_codes(space, digits, maps.transpose(2, 0, 1))[0]


def _plane_reps(directions: SubspaceArray, labels: np.ndarray) -> np.ndarray:
    """(G, n) canonical representatives: row i of the coset labelled labels[i] of directions[i].

    The label's base-p digits, first one least significant, fill the
    non-pivot columns in order and the pivot columns are 0, so
    :func:`coset_labels` reads each representative's label back.
    """
    space = directions.space
    reps = np.zeros((len(directions), space.n), dtype=np.int64)
    free = np.ones(reps.shape, dtype=bool)
    np.put_along_axis(free, directions.pivots, False, axis=1)
    reps[free] = base_p_digits(labels, space.p, space.n - directions.dim).ravel()
    return reps


def count_subspaces_containing(space: AmbientSpace, xi: Sequence[int], m: int) -> int:
    """|{V in G(n,m) : xi in V}| = C(n-1, m-1)_p for nonzero xi."""
    xi = space.validate_vector(xi)
    if not any(xi):
        raise ValueError("xi must be nonzero")
    if not 1 <= m <= space.n:
        raise ValueError(f"need 1 <= m <= n, got m={m}")
    return gaussian_binomial(space.n - 1, m - 1, space.p)


def count_subspaces_with_perp_containing(space: AmbientSpace, xi: Sequence[int], m: int) -> int:
    """|{V in G(n,m) : xi in Per(V)}| = C(n-1, m)_p for nonzero xi."""
    xi = space.validate_vector(xi)
    if not any(xi):
        raise ValueError("xi must be nonzero")
    if not 0 <= m <= space.n - 1:
        raise ValueError(f"need 0 <= m <= n-1, got m={m}")
    return gaussian_binomial(space.n - 1, m, space.p)


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
