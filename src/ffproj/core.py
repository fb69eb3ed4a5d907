"""Exact arithmetic substrate for F_p^n: residues, vectors, point indices, dense point sets.

A point of F_p^n is a tuple of n residues.  Each point is also addressed by
an index in [0, p^n): the base-p digits of the index are the coordinates,
least-significant digit first, so coordinate axis i carries weight p^(i-1).
This makes axis-wise strides trivial for the multidimensional transform.

Point sets are immutable dense boolean masks over the index range, so
cardinality is a popcount and the projection / Fourier sweeps vectorise
over the whole mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_POINT_BUDGET",
    "BudgetError",
    "IdentityError",
    "is_prime",
    "AmbientSpace",
    "encode",
    "decode",
    "digits_of",
    "base_p_digits",
    "dot",
    "PointSet",
    "save_point_set",
    "point_set_space",
    "load_point_set",
]

DEFAULT_POINT_BUDGET = 1 << 26

# Witness set making Miller-Rabin deterministic far beyond the point budget.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class BudgetError(RuntimeError):
    """An enumeration or transform would exceed its configured budget."""


class IdentityError(ArithmeticError):
    """An internal self-check found an exact identity violated."""


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for p < 3.3e24)."""
    if p < 2:
        return False
    for q in _MR_WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class AmbientSpace:
    """The vector space F_p^n together with its point-index codec.

    Construction rejects composite p (the character-sum machinery needs a
    prime field) and spaces of more than ``DEFAULT_POINT_BUDGET`` points,
    read at construction (dense masks and exhaustive sweeps stop being
    desk-scale beyond that).
    """

    p: int
    n: int

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("n", self.n)):  # an integral float is held as an int
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        if self.p ** self.n > DEFAULT_POINT_BUDGET:
            raise BudgetError(
                f"p^n = {self.p}^{self.n} exceeds the point budget {DEFAULT_POINT_BUDGET}"
            )

    @property
    def point_count(self) -> int:
        return self.p ** self.n

    def iter_vectors(self) -> Iterator[tuple[int, ...]]:
        """All points in index order (coordinate 1 cycles fastest)."""
        for idx in range(self.point_count):
            yield decode(self, idx)

    def validate_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        v = _integers(v, "vector")
        if len(v) != self.n:
            raise ValueError(f"vector has {len(v)} coordinates, expected {self.n}")
        for c in v:
            if not 0 <= c < self.p:
                raise ValueError(f"coordinate {c} out of range [0, {self.p})")
        return v


def encode(space: AmbientSpace, v: Sequence[int]) -> int:
    """Point index of v: base-p digits little-endian, digit i = coordinate i+1."""
    v = space.validate_vector(v)
    idx = 0
    for c in reversed(v):
        idx = idx * space.p + c
    return idx


def decode(space: AmbientSpace, idx: int) -> tuple[int, ...]:
    """Inverse of :func:`encode`."""
    if not 0 <= idx < space.point_count:
        raise ValueError(f"index {idx} out of range [0, {space.point_count})")
    coords = []
    for _ in range(space.n):
        idx, c = divmod(idx, space.p)
        coords.append(c)
    return tuple(coords)


def base_p_digits(idx: np.ndarray, p: int, width: int) -> np.ndarray:
    """Base-p digit matrix (little-endian) of an index array; shape (..., width)."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(idx.shape + (width,), dtype=np.int64)
    rem = idx.copy()
    for i in range(width):
        out[..., i] = rem % p
        rem //= p
    return out


def digits_of(space: AmbientSpace, idx: np.ndarray) -> np.ndarray:
    """Coordinate matrix of an array of point indices; shape (..., n)."""
    return base_p_digits(idx, space.p, space.n)


def dot(u: Sequence[int], v: Sequence[int], p: int) -> int:
    """x.y = x_1 y_1 + ... + x_n y_n (mod p)."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(int(a) * int(b) for a, b in zip(u, v)) % p


def _is_integer(x) -> bool:
    """True for an int of any size or a float of integral value; 1.5, nan, inf and "1" are not."""
    if isinstance(x, (int, np.integer, np.bool_)):
        return True
    return isinstance(x, (float, np.floating)) and float(x).is_integer()


def _integers(values: Iterable, name: str) -> tuple[int, ...]:
    """``values`` as Python ints; ``ValueError`` names an entry that is not an integer.

    Floats of integral value are taken; ``int`` would truncate 1.5 to 1.
    """
    values = tuple(values)
    for i, x in enumerate(values):
        if not _is_integer(x):
            raise ValueError(f"{name}[{i}] = {x!r} is not an integer")
    return tuple(int(x) for x in values)


def _integer_array(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; ``ValueError`` names an entry that is not an integer.

    Floats of integral value are taken; an int64 cast would truncate 1.5 to 1.
    """
    array = np.asarray(values)
    if array.dtype.kind not in "biu":
        for i, x in enumerate(array.ravel().tolist()):
            if not _is_integer(x):
                at = ", ".join(map(str, np.unravel_index(i, array.shape)))
                raise ValueError(f"{name}[{at}] = {x!r} is not an integer")
    return array.astype(np.int64, copy=False)


class PointSet:
    """Immutable dense subset of F_p^n with exact cached cardinality."""

    __slots__ = ("space", "mask", "cardinality")

    def __init__(self, space: AmbientSpace, mask: np.ndarray):
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != (space.point_count,):
            raise ValueError(
                f"mask length {mask.shape} does not match p^n = {space.point_count}"
            )
        mask.flags.writeable = False
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "cardinality", int(mask.sum()))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PointSet is immutable")

    @classmethod
    def empty(cls, space: AmbientSpace) -> "PointSet":
        return cls(space, np.zeros(space.point_count, dtype=bool))

    @classmethod
    def full(cls, space: AmbientSpace) -> "PointSet":
        return cls(space, np.ones(space.point_count, dtype=bool))

    @classmethod
    def from_indices(
        cls, space: AmbientSpace, indices: np.ndarray | Sequence[int]
    ) -> "PointSet":
        mask = np.zeros(space.point_count, dtype=bool)
        idx = _integer_array(indices, "indices")
        if idx.size:
            if idx.min() < 0 or idx.max() >= space.point_count:
                raise ValueError("point index out of range")
            mask[idx] = True
        return cls(space, mask)

    @classmethod
    def from_vectors(
        cls, space: AmbientSpace, vectors: Iterable[Sequence[int]]
    ) -> "PointSet":
        return cls.from_indices(
            space, np.fromiter((encode(space, v) for v in vectors), dtype=np.int64)
        )

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def vectors(self) -> list[tuple[int, ...]]:
        return [decode(self.space, int(i)) for i in self.indices()]

    def __len__(self) -> int:
        return self.cardinality

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.mask, other.mask))

    __hash__ = None  # mutable-looking payload; identity hashing would mislead

    def __repr__(self) -> str:
        return (
            f"PointSet(p={self.space.p}, n={self.space.n}, "
            f"cardinality={self.cardinality})"
        )


_POINTSET_HEADER = re.compile(r"^ffpointset 1 p=(\d+) n=(\d+)$")


def save_point_set(E: PointSet, path) -> None:
    """Write the ``ffpointset v1`` text format (one point per line, index order)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"ffpointset 1 p={E.space.p} n={E.space.n}\n")
        for v in E.vectors():
            fh.write(",".join(str(c) for c in v) + "\n")


def _read_header(fh) -> AmbientSpace:
    header = fh.readline().rstrip("\n")
    m = _POINTSET_HEADER.match(header)
    if not m:
        raise ValueError(f"bad ffpointset header: {header!r}")
    return AmbientSpace(int(m.group(1)), int(m.group(2)))


def point_set_space(path) -> AmbientSpace:
    """The space an ``ffpointset v1`` file declares, read from its header alone."""
    with open(path, "r", encoding="ascii") as fh:
        return _read_header(fh)


def _saved_coords(body: str, n: int) -> np.ndarray | None:
    """The (N, n) coordinates of a body as :func:`save_point_set` writes it, else None.

    That body is N lines, each ending in a newline and holding n unsigned
    decimals of 1 to 18 digits (below 2^63) separated by single commas.
    """
    chars = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    seps = np.flatnonzero(chars - np.uint8(ord("0")) >= 10)  # uint8: below "0" wraps
    if not seps.size or seps.size % n or seps[-1] != chars.size - 1:
        return None
    kinds = chars[seps].reshape(-1, n)
    widths = np.diff(seps, prepend=-1) - 1  # digits before each separator
    if (
        (kinds[:, :-1] != ord(",")).any()
        or (kinds[:, -1] != ord("\n")).any()
        or (widths < 1).any()
        or (widths > 18).any()
    ):
        return None
    # a trailing comma ends the last number
    return np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",").reshape(-1, n)


def load_point_set(path) -> PointSet:
    """Parse the ``ffpointset v1`` text format; strict round-trip with save.

    Each nonblank line, stripped, is one point: n comma-separated integers
    (as ``int`` reads them) in [0, p).  A body as :func:`save_point_set`
    writes it is parsed in one pass; any other is read line by line.  The
    first bad line is named in the ``ValueError``.
    """
    with open(path, "r", encoding="ascii") as fh:
        space = _read_header(fh)
        body = fh.read()
    n = space.n
    coords = _saved_coords(body, n)
    if coords is not None and coords.size and coords.max() >= space.p:
        bad = np.flatnonzero((coords >= space.p).any(axis=1))[0]
        space.validate_vector(coords[bad].tolist())  # raises for the first bad point
    if coords is None:
        rows = []
        for lineno, line in enumerate(body.split("\n"), start=2):
            line = line.strip()
            if not line:
                continue
            try:
                point = tuple(int(c) for c in line.split(","))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad coordinates {line!r}") from exc
            rows.append(space.validate_vector(point))
        coords = np.array(rows, dtype=np.int64).reshape(-1, n)
    weights = space.p ** np.arange(n, dtype=np.int64)
    return PointSet.from_indices(space, coords @ weights)
