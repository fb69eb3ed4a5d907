"""Grid runner that checks every exact identity of the library on small spaces.

A run sweeps (p, n) instances and, per instance, a deterministic battery of
point sets (edge sets plus seeded percolation samples).  Integer identities
must hold exactly; spectral recomputations must agree within the Fourier
tolerance.  Every failure is recorded with a witness so a nonzero exit can
name the counterexample instance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import AmbientSpace, PointSet, base_p_digits, digits_of
from .energy import energy_identity_closed_form, key_lemma_check
from .fourier import TOLERANCE, _character_sum_rows, dft, plancherel_check
from .projections import _coset_histograms, census_fractional_image, census_small_image
from .random_sets import PercolationModel, percolation_sample
from .subspaces import (
    SubspaceArray,
    _check_budget,
    _check_enumeration,
    _dual_bases,
    _pivot_columns,
    _point_blocks,
    _residue_codes,
    _rref_fault,
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


def _test_sets(space: AmbientSpace, seed: int) -> list[tuple[str, PointSet]]:
    sets: list[tuple[str, PointSet]] = [
        ("empty", PointSet.empty(space)),
        ("full", PointSet.full(space)),
        ("origin", PointSet.from_indices(space, [0])),
    ]
    for k, density in enumerate((0.2, 0.5, 0.8)):
        model = PercolationModel(space, density, seed)
        sets.append((f"random{k}", percolation_sample(model, trial=k)))
    return sets


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.failures: list[dict] = []

    def record(self, ok: bool, **witness) -> None:
        self.instances += 1
        if not ok:
            self.failures.append(witness)

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
    binomial: Callable[[int, int, int], int] = gaussian_binomial,
) -> dict:
    """Run the full identity battery; returns a manifest with per-check results."""
    checks = {name: _Check(name) for name in _CHECKS}
    spaces = [AmbientSpace(p, n) for p in primes for n in dims]
    for space in spaces:  # every cell of the grid, before any table is built
        _check_cell(space)
    for space in spaces:
        cell = _cell(space)
        _cell_checks(cell, binomial, checks)
        sets = _test_sets(space, seed)
        for (set_name, E), (spectrum, held) in zip(sets, _sweep_sets(cell, sets)):
            _per_set_checks(cell, E, set_name, spectrum, held, binomial, checks)

    summaries = [c.summary() for c in checks.values()]
    return {
        "primes": list(primes),
        "dims": list(dims),
        "seed": seed,
        "checks": summaries,
        "all_pass": all(s["pass"] for s in summaries),
    }


def _check_cell(space: AmbientSpace) -> None:
    """Refuse a cell over the enumeration budget: each G(n, d), then its largest table.

    The largest table of a cell is that of its character sums: one entry
    per subspace V in G(n, k), k < n, and point of F_p^n, held for the
    largest G(n, k) at once.  Only Gaussian binomials are computed.
    """
    p, n = space.p, space.n
    for d in range(n + 1):
        _check_enumeration(space, d, None)
    k = n // 2  # C(n, k)_p is largest at k = n // 2 < n
    size = gaussian_binomial(n, k, p) * p**n
    _check_budget(f"the character-sum table of G({n},{k}) x F_{p}^{n}", size, None)


def _cell(space: AmbientSpace) -> tuple:
    """What the checks of one (p, n) cell read, held per G(n, d).

    The directions, their duals Per(W) row for row (all from one
    :func:`_dual_bases` call), the points of each, the bases as witnesses
    and the dual route of :func:`_dual_route`.
    """
    arrays = {d: SubspaceArray.grassmannian(space, d) for d in range(space.n + 1)}
    duals = dict(zip(arrays, _dual_bases(list(arrays.values()))))
    members = {d: np.concatenate(list(_point_blocks(G))) for d, G in arrays.items()}
    dual_points = {d: np.concatenate(list(_point_blocks(P))) for d, P in duals.items()}
    bases = {d: [tuple(map(tuple, W)) for W in G.bases.tolist()] for d, G in arrays.items()}
    routes = {d: _dual_route(arrays[d], duals[d]) for d in arrays}
    return space, arrays, duals, members, dual_points, bases, routes


def _cell_checks(cell, binomial, checks) -> None:
    """Counting, containment, duality and character-sum checks of one cell."""
    space, arrays, duals, members, dual_points, bases, _ = cell
    p, n = space.p, space.n
    for m in range(n + 1):
        observed = len(arrays[m])
        expected = binomial(n, m, p)
        checks["binomial_vs_enumeration"].record(
            observed == expected, p=p, n=n, m=m,
            observed=observed, expected=expected,
        )

    for m in range(1, n):
        g = binomial(n, m, p)
        low = binomial(n - 1, m, p) + p ** (n - m) * binomial(n - 1, m - 1, p)
        high = binomial(n - 1, m - 1, p) + p**m * binomial(n - 1, m, p)
        sym = binomial(n, n - m, p)
        checks["pascal_identities"].record(
            g == low == high and g == sym, p=p, n=n, m=m,
            value=g, recurrence_low=low, recurrence_high=high, symmetric=sym,
        )

    # each xi != 0 lies in C(n-1, m-1)_p members of G(n,m) and in C(n-1, m)_p of their duals
    cases = [("member", m, members[m], binomial(n - 1, m - 1, p)) for m in range(1, n + 1)]
    cases += [("dual", m, dual_points[m], binomial(n - 1, m, p)) for m in range(n)]
    for kind, m, points, expected in cases:
        bad = np.flatnonzero(np.bincount(points.ravel(), minlength=p**n)[1:] != expected)
        checks["containment_counts"].record(
            bad.size == 0, p=p, n=n, m=m, kind=kind,
            expected=expected,
            first_bad_xi=int(bad[0] + 1) if bad.size else None,
        )

    # only canonical bases have a dual; those of every G(n, m) are dualised at once
    canonical = [m for m, P in duals.items() if _rref_fault(P.bases, p) is None]
    back = dict(zip(canonical, _dual_bases([duals[m] for m in canonical])))
    for m, G in arrays.items():
        P = duals[m]
        involutive = m in back and bool(np.array_equal(back[m].bases, G.bases))
        distinct = len(set(map(tuple, P.bases.reshape(len(P), -1).tolist())))
        bijective = distinct == len(G) and P.dim == n - m
        checks["perp_duality"].record(
            involutive and bijective, p=p, n=n, m=m,
            involutive=involutive, bijective=bijective,
        )

    # the character sum of Per(V) is |Per(V)| on V and vanishes off V
    points = digits_of(space, np.arange(p**n))
    for k in range(n):
        dual_size = p ** (n - k)
        sums = _character_sum_rows(space, points, dual_points[k])
        expected = np.zeros(sums.shape)
        expected[np.arange(len(sums))[:, None], members[k]] = dual_size
        worst = np.abs(sums - expected).max(axis=1).tolist()
        for V, w in zip(bases[k], worst):
            checks["character_sums"].record(
                w <= TOLERANCE * dual_size, p=p, n=n, dim=k, subspace=V, worst=w,
            )


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
    space = directions.space
    cosets = space.p ** (space.n - directions.dim)
    points = digits.astype(np.float64)
    blocks, start = [], 0
    for h in _coset_histograms(digits, tags, ntags, directions):
        c = len(h)
        codes = _residue_codes(space, points, maps[:, start : start + c])
        codes += np.arange(c)[:, None] * (ntags * cosets)  # binned as in the kernel
        codes += tags * cosets
        dual = np.bincount(codes.ravel(), minlength=h.size).reshape(h.shape)
        same = (np.take_along_axis(dual, relabel[start : start + c, None], axis=2) == h).all(axis=2)
        image, dual_image = np.count_nonzero(h, axis=2), np.count_nonzero(dual, axis=2)
        blocks.append((h.sum(axis=2), image, (h * h).sum(axis=2), dual_image, same))
        start += c
    return [np.concatenate(column) for column in zip(*blocks)]


def _sweep_sets(cell, sets) -> list[tuple]:
    """Each test set's spectrum and its columns of one tagged sweep per G(n,d), all sets at once.

    Per d, the columns of :func:`_direction_reductions`, then the dual sums of subspace
    Plancherel: sum_j |E n (x_j + W)|^2 = p^(d-n) sum_{xi in Per(W)} |Ehat(xi)|^2.
    """
    space, arrays, _, _, dual_points, _, routes = cell
    indices = [E.indices() for _, E in sets]
    digits = digits_of(space, np.concatenate(indices))
    tags = np.repeat(np.arange(len(sets)), [len(i) for i in indices])
    spectra = [dft(E) for _, E in sets]
    power = np.stack([spectrum.moduli() ** 2 for spectrum in spectra])
    held = {  # np.take keeps each gathered row contiguous: it sums like the library's 1-D sum
        d: [*_direction_reductions(digits, tags, len(sets), G, *routes[d]),
            np.take(power, dual_points[d], axis=1).sum(axis=2).T]
        for d, G in arrays.items()
    }
    return [(s, {d: [c[:, k] for c in held[d]] for d in held}) for k, s in enumerate(spectra)]


def _per_set_checks(cell, E, set_name, spectrum, held, binomial, checks) -> None:
    """Every check on one set, from its spectrum and its columns of the cell's held sweeps."""
    space, arrays, _, _, _, bases, _ = cell
    p, n = space.p, space.n
    size = E.cardinality
    lhs, rhs, ok = plancherel_check(spectrum)
    checks["plancherel"].record(ok, p=p, n=n, set=set_name, lhs=lhs, rhs=rhs)
    for d in range(n + 1):
        energy, spectral = 0, 0.0  # energy(E, A(n,d)), summed over the directions W
        n_cosets = p ** (n - d)
        for W, total, image, lhs, dual_image, same, dual_sum in zip(
            bases[d], *(column.tolist() for column in held[d])
        ):
            where = {"p": p, "n": n, "set": set_name, "subspace": W}
            checks["coset_decomposition"].record(
                total == size
                and image == dual_image
                and (size == 0 or 1 <= dual_image <= min(size, n_cosets)),
                **where,
            )
            checks["cauchy_schwarz"].record(size**2 <= image * lhs, **where)
            rhs = dual_sum / n_cosets
            checks["subspace_plancherel"].record(
                abs(lhs - rhs) <= TOLERANCE * max(1.0, lhs), **where, lhs=lhs, rhs=rhs
            )
            energy += lhs
            spectral += rhs
            if 1 <= d <= n - 1:
                checks["projection_duality"].record(same, **where)

        rhs = energy_identity_closed_form(space, size, d)
        rhs_injected = size * p**d * _or_zero(binomial, n - 1, d, p) + (
            size**2 * _or_zero(binomial, n - 1, d - 1, p)
        )
        checks["energy_identity"].record(
            energy == rhs == rhs_injected, p=p, n=n, m=d, set=set_name,
            combinatorial=energy, closed_form=rhs_injected,
        )
        diff = abs(spectral - rhs)
        checks["energy_identity_spectral"].record(
            diff <= TOLERANCE * max(1.0, rhs), p=p, n=n, m=d, set=set_name,
            spectral=spectral, closed_form=rhs, diff=diff,
        )

    for m in range(1, n):
        directions = arrays[n - m]
        sweep = (directions, held[n - m][1])
        if size:
            for N in sorted({1, size // 4} - {0}):
                report = census_small_image(E, m, N, sweep=sweep)
                if report.hypothesis_ok and report.range_condition_ok:
                    checks["census_bounds"].record(
                        bool(report.satisfied), p=p, n=n, m=m, set=set_name,
                        kind="small_image", N=N, observed=report.observed,
                    )
            for delta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                report = census_fractional_image(E, m, delta, sweep=sweep)
                if report.hypothesis_ok and report.range_condition_ok:
                    checks["census_bounds"].record(
                        bool(report.satisfied), p=p, n=n, m=m, set=set_name,
                        kind="fractional_image", delta=str(delta),
                        observed=report.observed,
                    )
        half = max(1, len(directions) // 2)
        for theta_name, theta in (("all", directions), ("half", directions[:half])):
            result = key_lemma_check(E, theta, held[n - m][2][: len(theta)])
            if result.condition_ok:
                checks["energy_bounds"].record(
                    result.ok, p=p, n=n, m=m, set=set_name, theta=theta_name,
                    energy=result.energy,
                    bound_pairs=float(result.bound_pairs),
                    bound_fourier=float(result.bound_fourier),
                )


def _or_zero(binomial, n, m, p):
    return binomial(n, m, p) if 0 <= m <= n else 0
