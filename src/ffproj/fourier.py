"""Discrete Fourier analysis on F_p^n: spectra, Plancherel identities, Salem decay.

The transform of the indicator of E is

    Ehat(xi) = sum_{x in E} e(-x.xi),    e(t) = exp(2 pi i t / p),

computed axis by axis with the explicit p x p character matrix (cost
O(n p^(n+1)), no prime-length FFT machinery needed at desk scale).
Amplitudes are double-precision complex.  The transform's own Plancherel
check and the decay reports compare them within the relative tolerance
TOLERANCE = 1e-9, far above the rounding error accumulated under the point
budget for full spectra.  A spectrum computes its moduli |Ehat| once, on
first use, and every check and report reads that one read-only array.

The whole transform lives in two complex128 buffers of p^n entries.  The
mask is cast into one in C order, so axis 0 leads.  Each axis is copied
into the free buffer with that axis leading, and ``np.dot(F, B, out=)``
writes F B, B that buffer as a (p, p^(n-1)) matrix, into the other; the
codec-order copy at the end goes into whichever buffer is free (for
n <= 2 the last product is in codec order already).  So at most two p^n
complex arrays are alive (128 MiB at the cap), and the zgemm operands are
the ones ``np.tensordot`` passed: BLAS results depend on the column order
of B, and the values keep their bytes.

Identities with integer sides take no transform: for xi != 0 the Fourier
mass of the line through xi is p M(xi^perp) - |E|^2 (:func:`_line_powers`),
M the coset second moment of E along the hyperplane xi^perp.  So
``energy.verify_energy_identity_fourier`` sums line powers read off a sweep of
hyperplanes, and ``subspace_plancherel`` off histograms of x.xi mod p, exactly.

The built-in sets (paraboloid, sphere) take x.x mod p from a table of
squares, one broadcast sum per coordinate.  ``save_spectrum_csv`` builds
each block of rows column by column: coordinates gathered from a table of
residue strings, and each float column (real, imag, modulus) formatted with
one ``repr`` per distinct 64-bit pattern, found by sorting the column's
``view(np.uint64)`` and gathered back into row order.  Gauss-sum spectra
repeat values (the F_31^3 paraboloid has 8,532 distinct real parts, 10,229
imaginary parts and 1,369 moduli among 29,791 rows): its dump takes about
35 ms on 2 vCPUs, where formatting every value takes 75 ms.  A spectrum
without repeats, such as a random set's, pays the sort and the gather for
nothing: its dump is about 12% slower than formatting every value.  The
rows are joined and written with one call per block.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (
    AmbientSpace, BudgetError, IdentityError, PointSet, _integer_array, decode, digits_of, encode,
)
from .projections import coset_counts, projection_sizes
from .subspaces import Subspace, _block_rows, _check_budget, _code_histograms, perp

__all__ = [
    "TOLERANCE",
    "FULL_SPECTRUM_BUDGET",
    "Spectrum",
    "check_spectrum_budget",
    "dft",
    "pointwise_coefficient",
    "plancherel_check",
    "subspace_plancherel",
    "character_sum",
    "paraboloid",
    "sphere",
    "sphere_size_window",
    "SalemProfile",
    "DecayReport",
    "salem_deficiency",
    "ProjectionBoundReport",
    "projection_bound_report",
    "save_spectrum_csv",
]

TOLERANCE = 1e-9
FULL_SPECTRUM_BUDGET = 1 << 22
_CSV_BLOCK = 1 << 16  # spectrum rows formatted and written at a time
# Most entries of a dump's table of its first coordinates (the table of the
# others has p^n / p^k < 1024 p entries under the full-spectrum cap).  A table of
# a whole block (29,791 strings for F_31^3) raised the peak resident set of
# repeated spectral passes by about 3 MiB; one of 961 strings did not measurably.
_COORDINATE_TABLE = 1 << 12


@lru_cache(maxsize=64)
def _character_matrix(p: int) -> np.ndarray:
    j = np.arange(p)
    F = np.exp(-2j * np.pi * np.outer(j, j) / p)
    F.flags.writeable = False  # shared by every transform in the process
    return F


@dataclass(frozen=True)
class Spectrum:
    """Full table of Fourier coefficients, indexed by the point codec."""

    space: AmbientSpace
    values: np.ndarray
    source_cardinality: int
    _moduli: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.shape != (self.space.point_count,):
            raise ValueError("spectrum length must be p^n")
        zero = self.values[0]
        if abs(zero - self.source_cardinality) > TOLERANCE * max(
            1.0, self.source_cardinality
        ):
            raise ValueError(
                f"coefficient at 0 is {zero}, expected |E| = {self.source_cardinality}"
            )

    def moduli(self) -> np.ndarray:
        """|Ehat(xi)| for every xi, computed on the first call and read-only."""
        if self._moduli is None:
            moduli = np.abs(self.values)
            moduli.flags.writeable = False
            object.__setattr__(self, "_moduli", moduli)
        return self._moduli

    def at(self, xi) -> complex:
        return complex(self.values[encode(self.space, xi)])


def check_spectrum_budget(space: AmbientSpace) -> None:
    """Raise BudgetError if a full spectrum over the space exceeds FULL_SPECTRUM_BUDGET."""
    if space.point_count > FULL_SPECTRUM_BUDGET:
        raise BudgetError(
            f"p^n = {space.point_count} exceeds the full-spectrum budget "
            f"{FULL_SPECTRUM_BUDGET}; use pointwise_coefficient for single xi"
        )


def dft(E: PointSet) -> Spectrum:
    """Full spectrum of the indicator of E, via n axis-wise length-p transforms."""
    space = E.space
    p, n = space.p, space.n
    check_spectrum_budget(space)
    F = _character_matrix(p)
    shape = (p,) * n
    held, free = np.empty(p**n, dtype=np.complex128), np.empty(p**n, dtype=np.complex128)
    # axis k of the (p,)*n view is coordinate k+1 under the little-endian codec;
    # cast into C order, so axis 0 already leads
    np.copyto(held.reshape(shape), E.mask.reshape(shape, order="F"))
    arr = held.reshape(shape)
    for axis in range(n):
        if axis:  # bring the axis to the front, C order: the operand tensordot would copy
            np.copyto(free.reshape(shape), np.moveaxis(arr, axis, 0))
            held, free = free, held
        np.dot(F, held.reshape(p, -1), out=free.reshape(p, -1))
        held, free = free, held
        arr = np.moveaxis(held.reshape(shape), 0, axis)
    if arr.flags.f_contiguous:  # n <= 2: the last product is already in codec order
        values = held
    else:
        np.copyto(free.reshape(shape, order="F"), arr)
        values = free
    del held, free, arr  # the other buffer goes before the moduli are taken
    values.flags.writeable = False
    spectrum = Spectrum(space, values, E.cardinality)
    lhs, rhs, ok = plancherel_check(spectrum)
    if not ok:  # accumulated error beyond tolerance would be a transform bug
        raise IdentityError(f"Plancherel violated: {lhs} vs {rhs}")
    return spectrum


def pointwise_coefficient(E: PointSet, xi) -> complex:
    """Ehat(xi) evaluated directly from the points of E; O(|E|) per xi."""
    space = E.space
    xi = space.validate_vector(xi)
    phases = digits_of(space, E.indices()) @ np.array(xi, dtype=np.int64) % space.p
    return complex(np.exp(-2j * np.pi * phases / space.p).sum())


def plancherel_check(S: Spectrum) -> tuple[float, float, bool]:
    """sum_xi |Ehat(xi)|^2 = p^n |E|; returns (lhs, rhs, ok within tolerance)."""
    moduli = S.moduli()
    lhs = float(np.dot(moduli, moduli))  # no p^n temporary of squares
    rhs = float(S.space.point_count * S.source_cardinality)
    return lhs, rhs, abs(lhs - rhs) <= TOLERANCE * max(1.0, rhs)


def _line_powers(p, size, moments):
    """sum_{t != 0} |Ehat(t xi)|^2 on the line of each xi != 0: p M(xi^perp) - |E|^2.

    ``moments`` holds M(xi^perp) = sum_j c_j^2, c_j = |{x in E : x.xi = j}|, per hyperplane
    (and set), ``size`` holds |E|.  Since Ehat(t xi) = sum_j c_j e(-tj), the sum of
    |Ehat(t xi)|^2 over every t is p sum_j c_j^2, and t = 0 adds |E|^2 of it.
    """
    return p * moments - size * size


def _line_power_sum(E: PointSet, blocks) -> int:
    """The line powers read off (c, p) blocks of hyperplane histograms, in Python ints."""
    moments = [m for h in blocks for m in (h * h).sum(axis=1).tolist()]  # each <= |E|^2 <= 2^52
    return sum(_line_powers(E.space.p, E.cardinality, m) for m in moments)


def subspace_plancherel(E: PointSet, W: Subspace) -> tuple[int, Fraction, bool]:
    """Coset second moment of E along W against its spectral form, both exact.

    Combinatorial side: M(W) = sum_j |E n (x_j + W)|^2 over the p^m cosets of W.
    Spectral side:      p^(-m) sum_{xi in Per(W)} |Ehat(xi)|^2, which is
    p^(-m) (|E|^2 + sum_H (p M(H) - |E|^2)): xi = 0 adds |E|^2, and each line
    <xi> of Per(W) its line power, H = xi^perp running over the
    (p^m - 1)/(p - 1) hyperplanes that contain W.
    """
    space = W.space
    p, m = space.p, space.n - W.dim
    h = next(coset_counts(E, [W]))  # refuses a W of another space
    lhs = int(h @ h)
    _check_budget("the family of hyperplanes containing W", (p**m - 1) // (p - 1))
    # each line of Per(W) by its point xi whose first non-zero entry is 1, binned by x.xi mod p
    points = digits_of(space, perp(W).point_indices()).astype(np.float64)
    lines = points[points[np.arange(len(points)), (points != 0).argmax(axis=1)] == 1]
    x, rows = digits_of(space, E.indices()).astype(np.float64), _block_rows(16 * E.cardinality)
    blocks = (_code_histograms(space, x, 0, 1, xi[None])[:, 0]
              for xi in np.split(lines, range(rows, len(lines), rows)))
    rhs = Fraction(E.cardinality**2 + _line_power_sum(E, blocks), p**m)
    return lhs, rhs, lhs == rhs


def character_sum(V: Subspace, x) -> complex | np.ndarray:
    """sum_{y in Per(V)} e(-x.y): equals |Per(V)| for x in V, vanishes for x outside.

    x is one vector, or an (N, n) array of residues for which the N sums are returned
    as a complex array.  Each is sum_j c_j e(-j), c_j = #{y in Per(V) : x.y = j}.
    """
    space, p = V.space, V.space.p
    batch = np.ndim(x) == 2
    xs = _integer_array(x, "x") if batch else np.array([space.validate_vector(x)], dtype=np.int64)
    if xs.shape[1] != space.n or ((xs < 0) | (xs >= p)).any():
        raise ValueError(f"expected an (N, {space.n}) array of residues mod {p}")
    dual = digits_of(space, perp(V).point_indices()).astype(np.float64)
    step = _block_rows(16 * len(dual))
    counts = [_code_histograms(space, dual, 0, 1, xi[None].astype(np.float64))[:, 0]
              for xi in np.split(xs, range(step, len(xs), step))]
    sums = np.concatenate(counts) @ _character_matrix(p)[1]
    return sums if batch else complex(sums[0])


def _norms(p: int, width: int) -> np.ndarray:
    """x.x mod p for every x in F_p^width in index order, from a table of squares mod p.

    Each pass adds a coordinate as the most significant base-p digit: one
    broadcast sum of the squares against the norms so far, reduced mod p.
    Values are held in the narrowest dtype that holds 2(p - 1).
    """
    dtype = np.min_scalar_type(2 * (p - 1))
    j = np.arange(p, dtype=np.int64)
    squares = (j * j % p).astype(dtype)
    total = np.zeros(1, dtype=dtype)
    for _ in range(width):
        total = np.add.outer(squares, total).ravel()
        total %= p
    return total


def paraboloid(space: AmbientSpace) -> PointSet:
    """{(xbar, xbar.xbar) : xbar in F_p^(n-1)}, a set of exactly p^(n-1) points."""
    p, n = space.p, space.n
    if n < 2:
        raise ValueError("paraboloid needs ambient dimension >= 2")
    base = np.arange(p ** (n - 1), dtype=np.int64)
    return PointSet.from_indices(space, base + _norms(p, n - 1).astype(np.int64) * p ** (n - 1))


def sphere(space: AmbientSpace, r: int) -> PointSet:
    """{x : x.x = r}; its size is close to p^(n-1) but is reported, not asserted."""
    p, n = space.p, space.n
    if n < 2:
        raise ValueError("sphere needs ambient dimension >= 2")
    if not 0 <= r < p:
        raise ValueError(f"radius parameter {r} out of range [0, {p})")
    return PointSet(space, _norms(p, n) == r)


def sphere_size_window(space: AmbientSpace) -> tuple[float, float]:
    """Informal size window p^(n-1) +/- 2 p^(n/2) for sphere cardinalities."""
    p, n = space.p, space.n
    center = float(p ** (n - 1))
    slack = 2.0 * p ** ((n - 1) / 2) * p**0.5
    return center - slack, center + slack


@dataclass(frozen=True)
class SalemProfile:
    """A claimed decay bound |Ehat(xi)| <= C |E|^alpha for all nonzero xi."""

    C: float
    alpha: float

    def __post_init__(self) -> None:
        if self.C <= 0:
            raise ValueError("C must be positive")
        if not 0.5 <= self.alpha < 1:
            raise ValueError("alpha must lie in [1/2, 1)")


@dataclass
class DecayReport:
    """Largest nonzero-frequency amplitude of a set, with Salem normalizations."""

    p: int
    n: int
    set_size: int
    max_nonzero_modulus: float
    witness: int
    ratio_salem: float
    ratio_weak: float
    plancherel_floor: float

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "set_size": self.set_size,
            "max_nonzero_modulus": self.max_nonzero_modulus,
            "witness_index": self.witness,
            "witness_vector": list(decode(AmbientSpace(self.p, self.n), self.witness)),
            "ratio_salem": self.ratio_salem,
            "ratio_weak": self.ratio_weak,
            "plancherel_floor": self.plancherel_floor,
        }


def salem_deficiency(E: PointSet, spectrum: Spectrum | None = None) -> DecayReport:
    """Measure how far E is from Salem decay.

    ratio_salem = max_{xi != 0} |Ehat(xi)| / sqrt(|E|); a Salem set keeps this
    O(1), a weak Salem set allows an extra sqrt(log p).  Averaging Plancherel
    over the p^n - 1 nonzero frequencies gives the unavoidable floor
    sqrt((p^n |E| - |E|^2) / (p^n - 1)) for the numerator.
    """
    space = E.space
    if E.cardinality == 0 or E.cardinality == space.point_count:
        raise ValueError("decay is measured for nonempty proper subsets only")
    if spectrum is None:
        spectrum = dft(E)
    moduli = spectrum.moduli()
    witness = int(np.argmax(moduli[1:])) + 1
    max_mod = float(moduli[witness])
    size = E.cardinality
    floor = math.sqrt(
        max(0.0, (space.point_count * size - size**2) / (space.point_count - 1))
    )
    if max_mod < floor * (1.0 - TOLERANCE):  # averaging Plancherel forbids this
        raise IdentityError(f"max modulus {max_mod} below spectral floor {floor}")
    return DecayReport(
        p=space.p,
        n=space.n,
        set_size=size,
        max_nonzero_modulus=max_mod,
        witness=witness,
        ratio_salem=max_mod / math.sqrt(size),
        ratio_weak=max_mod / math.sqrt(size * math.log(space.p)),
        plancherel_floor=floor,
    )


@dataclass
class ProjectionBoundReport:
    """Projection guarantees implied by Fourier decay, checked by full sweep.

    With |Ehat| <= C|E|^alpha off zero, the master inequality

        |E|^2 <= |image(E, W)| (p^(-m) |E|^2 + C^2 |E|^(2 alpha))

    splits into two exhaustive regimes at |E| = C1 p^(m/(2-2alpha)) with
    C1 = (C^2)^(1/(2-2alpha)): below it every image has size at least
    C2 |E|^(2-2alpha) with C2 = 1/(2C^2); above it at least p^m/2.  Some
    derivations split these regimes with an extra p^m factor on one side,
    which leaves intermediate sizes uncovered; the split here is the exact
    complement, so every size falls in exactly one of the two cases.  When
    the master lower bound itself exceeds p^m - 1, every image is all of the
    p^m cosets; the size threshold C3 p^(m/(1-alpha)),
    C3 = (2C^2)^(1/(2-2alpha)), is the simpler sufficient condition for that
    and is reported alongside.
    """

    p: int
    n: int
    m: int
    set_size: int
    C: float
    alpha: float
    profile_ok: bool
    max_nonzero_modulus: float
    threshold_small: float
    threshold_full: float
    master_bound: float
    case: str
    min_image: int
    cases: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def projection_bound_report(
    E: PointSet, profile: SalemProfile, m: int, spectrum: Spectrum | None = None
) -> ProjectionBoundReport:
    """Decide the decay regime of E and verify its projection conclusion.

    If the claimed profile fails on the actual spectrum the report carries
    profile_ok=False and no conclusion is asserted (holds flags stay None).
    """
    space = E.space
    p, n = space.p, space.n
    if spectrum is None:
        spectrum = dft(E)
    size = E.cardinality
    moduli = spectrum.moduli()
    max_mod = float(moduli[1:].max()) if space.point_count > 1 else 0.0
    claimed = profile.C * size**profile.alpha
    profile_ok = size > 0 and max_mod <= claimed * (1 + TOLERANCE)

    expo = 1.0 / (2.0 - 2.0 * profile.alpha)
    c1 = (profile.C**2) ** expo
    c2 = 1.0 / (2.0 * profile.C**2)
    c3 = (2.0 * profile.C**2) ** expo
    threshold_small = c1 * p ** (m * expo)
    threshold_full = c3 * p ** (m * expo * 2.0)

    _, sizes = projection_sizes(E, m)
    min_image = int(sizes.min())

    case = "a" if size <= threshold_small else "b"
    # every image is at least the master bound; when that exceeds p^m - 1 the
    # image must be all of the p^m cosets (threshold_full is the simpler
    # sufficient size condition for the same conclusion)
    denom = size**2 / float(p) ** m + profile.C**2 * float(size) ** (2 * profile.alpha)
    master = size**2 / denom if denom else 0.0
    full_applies = master > p**m - 1
    slack = 1.0 - 1e-12
    cases = {
        "a": {
            "applicable": case == "a",
            "bound": c2 * size ** (2.0 - 2.0 * profile.alpha),
            "holds": None,
        },
        "b": {"applicable": case == "b", "bound": p**m / 2.0, "holds": None},
        "c": {"applicable": full_applies, "bound": float(p**m), "holds": None},
    }
    if profile_ok:
        if case == "a":
            cases["a"]["holds"] = bool(min_image >= cases["a"]["bound"] * slack)
        else:
            cases["b"]["holds"] = bool(2 * min_image >= p**m)
        if full_applies:
            cases["c"]["holds"] = bool(min_image == p**m)
    return ProjectionBoundReport(
        p=p,
        n=n,
        m=m,
        set_size=size,
        C=profile.C,
        alpha=profile.alpha,
        profile_ok=profile_ok,
        max_nonzero_modulus=max_mod,
        threshold_small=threshold_small,
        threshold_full=threshold_full,
        master_bound=master,
        case=case,
        min_image=min_image,
        cases=cases,
    )


def _first_seen(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each distinct bit pattern in a float64 column, and each row's index among them.

    Keyed on ``view(np.uint64)``, so 0.0 and -0.0 stay apart.  One
    ``argsort`` groups equal patterns; the first row of each group is the
    smallest index in it.
    """
    bits = column.view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    head = np.r_[True, ordered[1:] != ordered[:-1]]
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    is_first = np.zeros(len(bits), dtype=bool)
    is_first[first] = True
    rank = np.empty(len(bits), dtype=np.intp)
    rank[order] = (np.cumsum(is_first) - 1)[first][np.cumsum(head) - 1]
    return np.flatnonzero(is_first), rank


def _float_strings(columns) -> list[list[str]]:
    """``repr`` of every float of each float64 column, one ``repr`` per distinct bit pattern.

    The distinct patterns are formatted in the order of the rows where they
    first occur, and each row's index among them gathers its string.  So the
    row join reads strings in about the order they were allocated; in sorted
    pattern order the F_31^3 paraboloid's dump took 43-49 ms instead of 35,
    and a repeat-free one about 35% longer than formatting every value.
    Every column's floats are listed before the first is formatted, so each
    column's strings are allocated together; formatting a column before
    listing the next scattered them and slowed the row join by about a third.
    """
    plans = [(column, *_first_seen(column)) for column in columns]
    floats = [column[firsts].tolist() for column, firsts, _ in plans]
    return [
        np.array(repr(listed)[1:-1].split(", "), dtype=object)[rank].tolist()
        for listed, (_, _, rank) in zip(floats, plans)
    ]


def _coordinate_strings(p: int, k: int) -> np.ndarray:
    """"x1,...,xk" for each of the p^k points of F_p^k (k >= 1), in index order, as objects."""
    residues = np.array([str(j) for j in range(p)], dtype=object)
    table, leading = residues, residues + ","
    for _ in range(k - 1):  # index a + p b: the first coordinate a, then b's coordinates
        table = (leading[None, :] + table[:, None]).ravel()
    return table


def save_spectrum_csv(S: Spectrum, path) -> None:
    """Dump (xi coordinates, real, imag, modulus) rows ordered by point index."""
    space = S.space
    p, n = space.p, space.n
    k = 1  # the first coordinates, whose strings cycle with period p^k
    while k < n and p ** (k + 1) <= min(_CSV_BLOCK, _COORDINATE_TABLE):
        k += 1
    period = p**k
    low = _coordinate_strings(p, k)
    high = _coordinate_strings(p, n - k) if k < n else None
    with open(path, "w", newline="", encoding="ascii") as fh:
        header = [f"xi{i + 1}" for i in range(n)] + ["real", "imag", "modulus"]
        fh.write(",".join(header) + "\r\n")
        # the bytes csv.writer gives these rows (no field needs quoting), built
        # column by column: the float columns are formatted by _float_strings,
        # the modulus is Python's abs(complex), which matches numpy's scalar
        # abs where np.abs on an array can differ in the last ulp; a row's first
        # k coordinates are gathered from one table for the whole dump, and the
        # others, constant over runs of p^k rows, from a second one, run by run
        for start in range(0, space.point_count, _CSV_BLOCK):
            values = S.values[start : start + _CSV_BLOCK]
            stop = start + len(values)
            columns = [np.take(low, np.arange(start, stop), mode="wrap").tolist()]
            if k < n:
                runs = np.arange(start // period, (stop - 1) // period + 1)
                lengths = np.diff(np.append(np.clip(runs * period, start, None), stop))
                columns.append(np.repeat(high[runs], lengths).tolist())
            moduli = np.fromiter(map(abs, values.tolist()), dtype=np.float64, count=len(values))
            columns += _float_strings((values.real, values.imag, moduli))
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
