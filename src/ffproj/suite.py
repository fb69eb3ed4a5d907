"""Grid runner that checks every exact identity of the library on small spaces.

A run sweeps (p, n) instances and, per instance, a deterministic battery of
point sets (edge sets plus seeded percolation samples).  Every identity and
bound is decided exactly, in integers, with no transform: the spectral sides
of Plancherel are read from the hyperplane second moments the sweep already
holds, and the character sums from histograms of x.y over each dual, one x
per line.  Every failure is recorded with a witness so a nonzero exit can
name the counterexample instance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import AmbientSpace, PointSet, base_p_digits, digits_of
from .energy import _key_lemma_bounds, energy_identity_closed_form
from .fourier import _line_powers
from .projections import _coset_histograms
from .random_sets import PercolationModel, percolation_sample
from .subspaces import (
    SubspaceArray,
    _block_rows,
    _check_budget,
    _check_enumeration,
    _code_histograms,
    _dual_bases,
    _padded_stack,
    _pivot_columns,
    _point_blocks,
    _residue_codes,
    _rref_faults,
    binom_at_most_twice_power,
    gaussian_binomial,
)

__all__ = ["run_identity_suite", "DEFAULT_PRIMES", "DEFAULT_DIMS"]

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_DIMS = (2, 3)

# in manifest order
_CHECKS = (
    "binomial_vs_enumeration", "pascal_identities", "containment_counts", "perp_duality",
    "character_sums", "coset_decomposition", "cauchy_schwarz", "plancherel",
    "subspace_plancherel", "energy_identity", "energy_identity_spectral",
    "projection_duality", "census_bounds", "energy_bounds",
)
_DELTAS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))  # of the fractional-image census
_INT64_BOUND = 2**63  # int64 sums and products are decided only when they stay below it


def _test_sets(space: AmbientSpace, seed: int) -> list[tuple[str, PointSet]]:
    sets: list[tuple[str, PointSet]] = [
        ("empty", PointSet.empty(space)),
        ("full", PointSet.full(space)),
        ("origin", PointSet.from_indices(space, [0])),
    ]
    for k, density in enumerate((0.2, 0.5, 0.8)):
        sets.append((f"random{k}", percolation_sample(PercolationModel(space, density, seed), k)))
    return sets


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.failures: list[dict] = []

    def record_all(self, ok, witness: Callable[..., dict]) -> None:
        """Add every entry of ``ok`` as an instance; each failing one's witness is built here.

        ``witness(*index)`` is called on the index of each False entry, in
        C order, so the failures follow the axes of ``ok``.
        """
        ok = np.asarray(ok, dtype=bool)
        self.instances += ok.size
        if not ok.all():
            failing = np.unravel_index(np.flatnonzero(~ok), ok.shape)
            self.failures.extend(witness(*index) for index in zip(*(i.tolist() for i in failing)))

    def summary(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failures[:10],
            "failure_count": len(self.failures),
            "pass": not self.failures,
        }


def run_identity_suite(
    primes: Sequence[int] = DEFAULT_PRIMES,
    dims: Sequence[int] = DEFAULT_DIMS,
    seed: int = 0,
) -> dict:
    """Run the full identity battery; returns a manifest with per-check results."""
    summaries = [c.summary() for c in _run_checks(primes, dims, seed).values()]
    return {
        "primes": list(primes),
        "dims": list(dims),
        "seed": seed,
        "checks": summaries,
        "all_pass": all(s["pass"] for s in summaries),
    }


def _run_checks(primes, dims, seed) -> dict[str, _Check]:
    """Every check of every (p, n) cell of the grid, in manifest order."""
    checks = {name: _Check(name) for name in _CHECKS}
    spaces = [AmbientSpace(p, n) for p in primes for n in dims]
    for space in spaces:  # every cell of the grid, before any table is built
        _check_cell(space)
    for space in spaces:
        cell = _cell(space)
        _cell_checks(cell, checks)
        sets = _test_sets(space, seed)
        _set_checks(cell, sets, _sweep_sets(cell, sets), checks)
    return checks


def _check_cell(space: AmbientSpace) -> None:
    """Refuse a cell over the enumeration budget: each G(n, d), then its largest table.

    A cell's character sums hold at most one entry per V in G(n, k), k < n, and point of
    F_p^n, the most for k = n // 2.  Only Gaussian binomials are computed.
    """
    p, n = space.p, space.n
    for d in range(n + 1):
        _check_enumeration(space, d)
    k = n // 2  # C(n, k)_p is largest at k = n // 2 < n
    size = gaussian_binomial(n, k, p) * p**n
    _check_budget(f"the character-sum table of G({n},{k}) x F_{p}^{n}", size)


def _cell(space: AmbientSpace) -> tuple:
    """What the checks of one (p, n) cell read, held per G(n, d).

    The directions, their duals Per(W) row for row (all from one
    :func:`_dual_bases` call), the points of each and the dual route of
    :func:`_dual_route`.
    """
    arrays = {d: SubspaceArray.grassmannian(space, d) for d in range(space.n + 1)}
    duals = dict(zip(arrays, _dual_bases(list(arrays.values()))))
    members = {d: np.concatenate(list(_point_blocks(G))) for d, G in arrays.items()}
    dual_points = {d: np.concatenate(list(_point_blocks(P))) for d, P in duals.items()}
    routes = {d: _dual_route(arrays[d], duals[d]) for d in arrays}
    return space, arrays, duals, members, dual_points, routes


def _starts(arrays: dict) -> np.ndarray:
    """Where each G(n, d) starts in the cell's Grassmannians stacked by d, then their end."""
    return np.cumsum([0] + [len(G) for G in arrays.values()])


def _direction(arrays: dict, starts: np.ndarray, j: int) -> tuple[int, tuple]:
    """Row j of the stacked Grassmannians: its dimension d, and its basis as a witness names it."""
    d = int(np.searchsorted(starts, j, side="right")) - 1
    return d, tuple(map(tuple, arrays[d].bases[j - starts[d]].tolist()))


def _cell_checks(cell, checks) -> None:
    """Counting, containment, duality and character-sum checks of one cell, one record each."""
    space, arrays, duals, members, dual_points, _ = cell
    p, n = space.p, space.n
    binomial = gaussian_binomial
    observed = [len(G) for G in arrays.values()]
    expected = [binomial(n, m, p) for m in arrays]
    checks["binomial_vs_enumeration"].record_all(
        [o == e for o, e in zip(observed, expected)],
        lambda m: {"p": p, "n": n, "m": m, "observed": observed[m], "expected": expected[m]},
    )

    ms = list(range(1, n))
    g = [binomial(n, m, p) for m in ms]
    low = [binomial(n - 1, m, p) + p ** (n - m) * binomial(n - 1, m - 1, p) for m in ms]
    high = [binomial(n - 1, m - 1, p) + p**m * binomial(n - 1, m, p) for m in ms]
    sym = [binomial(n, n - m, p) for m in ms]
    checks["pascal_identities"].record_all(
        [a == b == c and a == d for a, b, c, d in zip(g, low, high, sym)],
        lambda i: {
            "p": p, "n": n, "m": ms[i], "value": g[i], "recurrence_low": low[i],
            "recurrence_high": high[i], "symmetric": sym[i],
        },
    )

    # each xi != 0 lies in C(n-1, m-1)_p members of G(n,m) and in C(n-1, m)_p of their duals
    cases = [("member", m, members[m], binomial(n - 1, m - 1, p)) for m in range(1, n + 1)]
    cases += [("dual", m, dual_points[m], binomial(n - 1, m, p)) for m in range(n)]
    bad = [
        np.flatnonzero(np.bincount(points.ravel(), minlength=p**n)[1:] != expected)
        for _, _, points, expected in cases
    ]
    checks["containment_counts"].record_all(
        [b.size == 0 for b in bad],
        lambda i: {
            "p": p, "n": n, "m": cases[i][1], "kind": cases[i][0], "expected": cases[i][3],
            "first_bad_xi": int(bad[i][0] + 1),
        },
    )

    # the dual U is Per(W), and so Per(U) = W, iff U is canonical, orthogonal to W and of
    # dimension n - m (a U short of rows passes the other two).  W U^T for every W of the
    # cell is one product of the stacked bases, whose zero padding rows are harmless.
    bases, dual_bases = (_padded_stack([G.bases for G in a.values()])[0] for a in (arrays, duals))
    products = bases @ dual_bases.transpose(0, 2, 1) % p
    orthogonal = np.logical_and.reduceat(~products.any(axis=(1, 2)), _starts(arrays)[:-1])
    canonical = [fault is None for fault in _rref_faults([P.bases for P in duals.values()], p)]
    involutive, bijective = [], []
    for (m, G), ok, perpendicular in zip(arrays.items(), canonical, orthogonal.tolist()):
        P = duals[m]
        involutive.append(ok and perpendicular and P.dim == n - m)
        distinct = len(set(map(tuple, P.bases.reshape(len(P), -1).tolist())))
        bijective.append(distinct == len(G) and P.dim == n - m)
    checks["perp_duality"].record_all(
        np.logical_and(involutive, bijective),
        lambda m: {"p": p, "n": n, "m": m, "involutive": involutive[m], "bijective": bijective[m]},
    )

    _character_checks(cell, checks)


def _character_checks(cell, checks) -> None:
    """Per V of G(n, k), k < n, whether sum_{y in D} e(-x.y) = p^(n-k) [x in V] for every x.

    D is V's list in ``dual_points[k]``, x in V is read from ``members[k]``.  The sum is
    sum_j c_j e(-j), c_j = #{y in D : x.y = j}: as 1, e(1), ..., e(p-2) are independent, it is
    an integer A iff c_j - A [j = 0] is constant in j.  Scaling x by t != 0 permutes the bins
    j != 0, so x = 0 and one x per line decide (and the witness counts) the failing x.
    """
    space, arrays, _, members, dual_points, _ = cell
    p, n = space.p, space.n
    maps = np.concatenate([np.zeros((1, n), dtype=np.int64), arrays[1].bases[:, 0]])  # 0, lines
    row = np.zeros(p**n, dtype=np.int64)  # each line's row by its point index, else x = 0's
    row[maps @ p ** np.arange(n)] = np.arange(len(maps))
    xs, failing = maps.astype(np.float64)[None], []
    for k in range(n):
        G, size = dual_points[k].shape
        bad = np.zeros((len(maps), G), dtype=np.int64)  # the sums expected, then failures
        bad[row[members[k]], np.arange(G)[:, None]] = p ** (n - k)  # 0 is in V, so 0's row too
        step = min(len(maps), _block_rows(24 * size))  # a block's maps, then V rows: under the cap
        block = _block_rows(24 * step * size)
        for lo in range(0, G, block):
            rows = digits_of(space, dual_points[k][lo : lo + block].ravel()).astype(np.float64)
            c = len(rows) // size
            tags = np.repeat(np.arange(c), size)
            for m in range(0, len(maps), step):
                h = _code_histograms(space, rows, tags, c, xs[:, m : m + step])
                h[..., 0] -= bad[m : m + step, lo : lo + c]
                bad[m : m + step, lo : lo + c] = (h != h[..., 1:2]).any(axis=2)
        failing.append(bad[0] + (p - 1) * bad[1:].sum(axis=0))  # a line decides p - 1 x
    failing = np.concatenate(failing)

    def witness(j):
        d, V = _direction(arrays, _starts(arrays), j)
        return {"p": p, "n": n, "dim": d, "subspace": V, "failing_x": int(failing[j])}

    checks["character_sums"].record_all(failing == 0, witness)


def _dual_route(directions: SubspaceArray, duals: SubspaceArray) -> tuple[np.ndarray, np.ndarray]:
    """The maps x -> U x of the dual bases U, and the codes each kernel label takes under them.

    U = A Q_W^T with A = U[:, nonpiv(W)], since Q_W^T is the identity on the
    non-pivot columns of W; so a point with kernel label digits y has dual
    route digits A y.  Returns the (r, G, n) float64 maps that
    :func:`_residue_codes` reads and the (G, p^r) relabelling codes.
    """
    space = directions.space
    G, r, n = duals.bases.shape
    free = np.ones((G, n), dtype=bool)
    free[np.arange(G)[:, None], _pivot_columns(directions.bases)] = False
    A_t = duals.bases.transpose(0, 2, 1)[free].reshape(G, r, r)  # A_t[i, a, j] = U_i[j, nonpiv_a]
    labels = base_p_digits(np.arange(space.p**r), space.p, r).astype(np.float64)
    relabel = _residue_codes(space, labels, A_t.transpose(2, 0, 1).astype(np.float64))
    return duals.bases.transpose(1, 0, 2).astype(np.float64), relabel


def _direction_reductions(digits, tags, ntags, directions, maps, relabel) -> list[np.ndarray]:
    """Per-direction reductions of one tagged kernel sweep, block by block.

    Returns (directions, ntags) arrays, column k for the points tagged k: the histogram
    total, the image size, the second moment, the image size of the dual route x -> U x,
    and whether the dual route's histogram, relabelled, is the kernel's.
    """
    points = digits.astype(np.float64)
    blocks, start = [], 0
    for h in _coset_histograms(digits, tags, ntags, directions):
        c = len(h)
        dual = _code_histograms(directions.space, points, tags, ntags, maps[:, start : start + c])
        same = (np.take_along_axis(dual, relabel[start : start + c, None], axis=2) == h).all(axis=2)
        image, dual_image = np.count_nonzero(h, axis=2), np.count_nonzero(dual, axis=2)
        blocks.append((h.sum(axis=2), image, (h * h).sum(axis=2), dual_image, same))
        start += c
    return [np.concatenate(column) for column in zip(*blocks)]


def _sweep_sets(cell, sets) -> list[np.ndarray]:
    """The columns of one tagged sweep per G(n, d), all test sets at once.

    The columns of :func:`_direction_reductions`, then the dual sums of subspace Plancherel,
    sum_{xi in Per(W)} u(xi) over the table u of :func:`_power_table`, which is exactly
    (p - 1) sum_{xi in Per(W)} |Ehat(xi)|^2.  Each column is a (directions, sets) array that
    stacks the directions of G(n, 0), G(n, 1), ..., G(n, n) in order (see :func:`_starts`).
    """
    space, arrays, _, _, dual_points, routes = cell
    indices = [E.indices() for _, E in sets]
    digits = digits_of(space, np.concatenate(indices))
    tags = np.repeat(np.arange(len(sets)), [len(i) for i in indices])
    held = [
        _direction_reductions(digits, tags, len(sets), G, *routes[d]) for d, G in arrays.items()
    ]
    size = np.array([len(i) for i in indices], dtype=np.int64)
    hyperplane_moments = held[space.n - 1][2]  # the second moments over G(n, n-1)
    powers = _power_table(space, size, hyperplane_moments, dual_points)
    dual_sums = [np.take(powers, points, axis=0).sum(axis=1) for points in dual_points.values()]
    return [np.concatenate(column) for column in zip(*held)] + [np.concatenate(dual_sums)]


def _power_table(space, size, moments, dual_points) -> np.ndarray:
    """A (p^n, sets) table u whose sum over any Per(W) is (p - 1) sum_{xi in Per(W)} |Ehat(xi)|^2.

    u(0) = (p - 1) |E|^2, and the non-zero points of each hyperplane's dual line (the rows
    of ``dual_points[n - 1]``, ``moments`` their second moments) take that line's power
    from :func:`_line_powers`, so each line of Per(W) adds p - 1 times its Fourier mass.
    With true duals each non-zero point lies on one line; a point on none reads 0, and a
    point on several the power of the last.  The table holds Python ints when a sum of it
    over the duals of a Grassmannian could reach ``_INT64_BOUND``.
    """
    p, n = space.p, space.n
    lines = dual_points[n - 1]
    widest = max(points.shape[1] for points in dual_points.values())
    count = sum(len(points) for points in dual_points.values())
    if p * (int(moments.max()) + int(size.max()) ** 2) * widest * count >= _INT64_BOUND:
        size, moments = size.astype(object), moments.astype(object)
    rows = np.concatenate([  # a row per line, then a zero row and the origin's
        _line_powers(p, size, moments), np.zeros_like(size)[None], (p - 1) * size[None] ** 2
    ])
    owner = np.full(p**n, -1)
    np.maximum.at(owner, lines.ravel(), np.repeat(np.arange(len(lines)), lines.shape[1]))
    owner[owner < 0] = len(lines)
    owner[0] = len(lines) + 1
    return rows[owner]


def _set_checks(cell, sets, columns, checks) -> None:
    """Every check on the cell's test sets, each decided over all of them at once.

    ``columns`` are as :func:`_sweep_sets` returns them.  Each check is one array
    decision and one record per cell; its failures are listed set by set, then by d or
    m, then by direction, threshold or Theta.  A spectral check compares a sum of the
    power table with its combinatorial side times the scale (p - 1) |Per(W)|, all in
    integers; its witness carries both sides and the scale.
    """
    space, arrays = cell[0], cell[1]
    p, n = space.p, space.n
    names = [name for name, _ in sets]
    size = np.array([E.cardinality for _, E in sets], dtype=np.int64)  # <= p^n <= 2^22
    size_py = size.astype(object)  # as Python ints
    starts = _starts(arrays)
    total, image, moment, dual_image, same, dual_sum = columns
    # every product or sum of image sizes and second moments below, and every moment
    # times its scale, is at most this
    if max(int(image.max()), len(moment), p ** (n + 1)) * int(moment.max()) >= _INT64_BOUND:
        image, moment = image.astype(object), moment.astype(object)
    cosets = np.repeat(p ** (n - np.arange(n + 1)), np.diff(starts))[:, None]  # p^(n-d)
    scale = (p - 1) * cosets

    # the one direction of G(n, 0) has all of F_p^n as its dual
    checks["plancherel"].record_all(
        dual_sum[0] == (p - 1) * p**n * size_py,
        lambda s: {
            "p": p, "n": n, "set": names[s], "lhs": int(dual_sum[0, s]),
            "rhs": p**n * int(size[s]), "scale": p - 1,
        },
    )

    # per (direction, set), recorded transposed: set, then d, then direction
    def where(s, j):
        return {"p": p, "n": n, "set": names[s], "subspace": _direction(arrays, starts, j)[1]}

    in_range = (1 <= dual_image) & (dual_image <= np.minimum(size, cosets))
    checks["coset_decomposition"].record_all(
        ((total == size) & (image == dual_image) & ((size == 0) | in_range)).T, where
    )
    checks["cauchy_schwarz"].record_all((size**2 <= image * moment).T, where)
    checks["subspace_plancherel"].record_all(
        (scale * moment == dual_sum).T,
        lambda s, j: {
            **where(s, j), "lhs": int(moment[j, s]), "rhs": int(dual_sum[j, s]),
            "scale": int(scale[j, 0]),
        },
    )
    checks["projection_duality"].record_all(
        same[starts[1] : starts[n]].T, lambda s, j: where(s, starts[1] + j)
    )

    # per (d, set): energy(E, A(n,d)) and its spectral side, summed over G(n, d)
    energy = np.add.reduceat(moment, starts[:-1], axis=0)
    spectral = np.add.reduceat(dual_sum, starts[:-1], axis=0)
    closed = np.stack([energy_identity_closed_form(space, size_py, d) for d in range(n + 1)])
    injected = np.stack([
        size_py * p**d * _or_zero(n - 1, d, p)
        + size_py**2 * _or_zero(n - 1, d - 1, p)
        for d in range(n + 1)
    ])
    checks["energy_identity"].record_all(
        ((energy == closed) & (closed == injected)).T,
        lambda s, d: {
            "p": p, "n": n, "m": d, "set": names[s],
            "combinatorial": int(energy[d, s]), "closed_form": injected[d, s],
        },
    )
    spectral_scale = scale[starts[:-1]]  # (p - 1) p^(n-d) per d
    checks["energy_identity_spectral"].record_all(
        (spectral == spectral_scale * closed).T,
        lambda s, d: {
            "p": p, "n": n, "m": d, "set": names[s], "spectral": int(spectral[d, s]),
            "closed_form": closed[d, s], "scale": int(spectral_scale[d, 0]),
        },
    )

    ms = list(range(1, n))
    # the range conditions of the small-image census and of the fractional one; the key
    # lemma's condition is both
    low = [binom_at_most_twice_power(n - 1, n - m - 1, p) for m in ms]
    high = [binom_at_most_twice_power(n - 1, m - 1, p) for m in ms]
    _census_checks(p, n, ms, low, high, names, size, image, starts, checks)
    _energy_bound_checks(p, n, ms, low, high, names, size_py, moment, starts, checks)


def _census_checks(p, n, ms, low, high, names, size, image, starts, checks) -> None:
    """The census bounds of every (set, m, threshold) whose hypothesis and range condition hold.

    Per set, the thresholds are N = 1 and |E| // 4 (if over 1) of the small-image census,
    then floor(delta p^m) of the fractional one.  The counts of every set, m and threshold
    are one comparison of the held image sizes of G(n, 1), ..., G(n, n-1).  Every exponent
    of the bounds is an integer, so all counts are decided at once in Python ints:
    count <= 4 N p^(m(n-m)-m), and count (b - a) |E| <= 2a p^(m(n-m)+m) for delta = a/b.
    """
    if not ms:
        return
    quarter = size // 4
    a = np.array([delta.numerator for delta in _DELTAS], dtype=object)
    b = np.array([delta.denominator for delta in _DELTAS], dtype=object)
    thresholds = np.empty((len(ms), len(size), 2 + len(_DELTAS)), dtype=np.int64)  # (m, set, .)
    thresholds[..., 0] = 1
    thresholds[..., 1] = quarter
    thresholds[..., 2:] = np.array([[p**m * a // b] for m in ms], dtype=np.int64)
    # rows starts[1] to starts[n] are G(n, n-m) for m = n-1 down to 1
    rows = np.repeat(thresholds[::-1], np.diff(starts[1 : n + 1]), axis=0)
    hits = image[starts[1] : starts[n], :, None] <= rows
    by_m = np.add.reduceat(hits, starts[1:n] - starts[1], axis=0, dtype=np.int64)[::-1]
    observed = by_m.transpose(1, 0, 2).astype(object)  # (set, m, threshold), Python ints
    small_ok, fractional_ok = np.array(low), np.array(high)
    valid = np.empty(observed.shape, dtype=bool)
    valid[..., 0] = (2 < size)[:, None] & small_ok
    valid[..., 1] = ((quarter > 1) & (2 * quarter < size))[:, None] & small_ok
    valid[..., 2:] = ((size > 0)[:, None] & fractional_ok)[..., None]
    N = np.column_stack([np.ones_like(size), quarter]).astype(object)
    low_power = np.array([[p ** (m * (n - m) - m)] for m in ms], dtype=object)
    high_power = np.array([[p ** (m * (n - m) + m)] for m in ms], dtype=object)
    small = observed[..., :2] <= 4 * N[:, None, :] * low_power
    fractional = observed[..., 2:] * (b - a) * size.astype(object)[:, None, None] <= (
        2 * a * high_power
    )
    chosen = np.flatnonzero(valid)
    instances = list(zip(*(i.tolist() for i in np.unravel_index(chosen, valid.shape))))
    counts = observed.ravel()[chosen].tolist()

    def witness(k):
        s, i, t = instances[k]
        if t < 2:
            named = {"kind": "small_image", "N": int(N[s, t])}
        else:
            named = {"kind": "fractional_image", "delta": str(_DELTAS[t - 2])}
        return {"p": p, "n": n, "m": ms[i], "set": names[s], **named, "observed": counts[k]}

    checks["census_bounds"].record_all(
        np.concatenate([small, fractional], axis=2).ravel()[chosen], witness
    )


def _energy_bound_checks(p, n, ms, low, high, names, size_py, moment, starts, checks) -> None:
    """The key lemma on every set, m and Theta (all of G(n, n-m), then its first half).

    Only the m whose binomial growth condition holds are checked.  Each Theta's energy
    is a cumulative sum of the held second moments; the bounds are integer
    cross-products, for all instances at once.
    """
    lemma = [m for m, a, b in zip(ms, low, high) if a and b]
    if not lemma:
        return
    energies, thetas = [], []
    for m in lemma:
        moments = moment[starts[n - m] : starts[n - m + 1]]
        half = max(1, len(moments) // 2)
        energies.append(np.cumsum(moments, axis=0)[[len(moments) - 1, half - 1]].T)
        thetas.append([len(moments), half])
    energy = np.stack(energies, axis=1).astype(object)  # (sets, m, Theta), Python ints
    m = np.array(lemma, dtype=object)[:, None]
    theta = np.array(thetas, dtype=object)
    pairs, fourier = _key_lemma_bounds(p, n, m, size_py[:, None, None], theta)
    checks["energy_bounds"].record_all(  # energy <= min(bound_pairs, bound_fourier)
        (energy <= pairs) & (energy * p**m <= fourier),
        lambda s, i, t: {
            "p": p, "n": n, "m": lemma[i], "set": names[s], "theta": ("all", "half")[t],
            "energy": energy[s, i, t], "bound_pairs": float(pairs[s, i, t]),
            "bound_fourier": fourier[s, i, t] / p ** lemma[i],
        },
    )


def _or_zero(n, m, p):
    return gaussian_binomial(n, m, p) if 0 <= m <= n else 0
