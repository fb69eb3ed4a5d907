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

from .core import AmbientSpace, PointSet, digits_of
from .energy import energy_identity_closed_form, key_lemma_check
from .fourier import TOLERANCE, character_sum, dft, plancherel_check
from .projections import (
    CosetProfile,
    census_fractional_image,
    census_small_image,
    coset_counts,
    project,
    project_onto,
)
from .random_sets import PercolationModel, percolation_sample
from .subspaces import SubspaceArray, _dual_point_blocks, gaussian_binomial, perp

__all__ = ["run_identity_suite", "DEFAULT_PRIMES", "DEFAULT_DIMS"]

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_DIMS = (2, 3)


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

    checks = {
        name: _Check(name)
        for name in (
            "binomial_vs_enumeration",
            "pascal_identities",
            "containment_counts",
            "perp_duality",
            "character_sums",
            "coset_decomposition",
            "cauchy_schwarz",
            "plancherel",
            "subspace_plancherel",
            "energy_identity",
            "energy_identity_spectral",
            "projection_duality",
            "census_bounds",
            "energy_bounds",
        )
    }

    for p in primes:
        for n in dims:
            space = AmbientSpace(p, n)
            arrays = {d: SubspaceArray.grassmannian(space, d) for d in range(n + 1)}
            grassmannians = {d: list(G) for d, G in arrays.items()}
            duals = {d: [perp(W) for W in Gs] for d, Gs in grassmannians.items()}
            # row i lists the points of duals[d][i] in perp(W).point_indices() order
            dual_points = {d: np.concatenate(list(_dual_point_blocks(arrays[d]))) for d in arrays}

            for m in range(n + 1):
                observed = len(grassmannians[m])
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

            _containment_counts(space, grassmannians, duals, binomial, checks)
            _perp_duality(space, grassmannians, duals, checks)
            _character_sums(space, grassmannians, checks)

            cell = (space, arrays, grassmannians, duals, dual_points)
            for set_name, E in _test_sets(space, seed):
                _per_set_checks(cell, E, set_name, binomial, checks)

    summaries = [c.summary() for c in checks.values()]
    return {
        "primes": list(primes),
        "dims": list(dims),
        "seed": seed,
        "checks": summaries,
        "all_pass": all(s["pass"] for s in summaries),
    }


def _containment_counts(space, grassmannians, duals, binomial, checks) -> None:
    p, n = space.p, space.n
    contain = {m: np.zeros(space.point_count, dtype=np.int64) for m in range(1, n + 1)}
    dual = {m: np.zeros(space.point_count, dtype=np.int64) for m in range(n)}
    for m, Gs in grassmannians.items():
        for V, P in zip(Gs, duals[m]):
            if 1 <= m <= n:
                contain[m][V.point_indices()] += 1
            if m <= n - 1:
                dual[m][P.point_indices()] += 1
    for m in range(1, n + 1):
        expected = binomial(n - 1, m - 1, p)
        bad = np.flatnonzero(contain[m][1:] != expected)
        checks["containment_counts"].record(
            bad.size == 0, p=p, n=n, m=m, kind="member",
            expected=expected,
            first_bad_xi=int(bad[0] + 1) if bad.size else None,
        )
    for m in range(n):
        expected = binomial(n - 1, m, p)
        bad = np.flatnonzero(dual[m][1:] != expected)
        checks["containment_counts"].record(
            bad.size == 0, p=p, n=n, m=m, kind="dual",
            expected=expected,
            first_bad_xi=int(bad[0] + 1) if bad.size else None,
        )


def _perp_duality(space, grassmannians, duals, checks) -> None:
    p, n = space.p, space.n
    for m, Gs in grassmannians.items():
        perps = duals[m]
        involutive = all(perp(P) == W for W, P in zip(Gs, perps))
        bijective = len(set(perps)) == len(Gs) and all(P.dim == n - m for P in perps)
        checks["perp_duality"].record(
            involutive and bijective, p=p, n=n, m=m,
            involutive=involutive, bijective=bijective,
        )


def _character_sums(space, grassmannians, checks) -> None:
    p, n = space.p, space.n
    points = digits_of(space, np.arange(space.point_count))
    for k in range(n):
        for V in grassmannians[k]:
            dual_size = p ** (n - k)
            expected = np.zeros(space.point_count)
            expected[V.point_indices()] = dual_size
            worst = float(np.abs(character_sum(V, points) - expected).max())
            checks["character_sums"].record(
                worst <= TOLERANCE * dual_size, p=p, n=n, dim=k,
                subspace=V.basis, worst=worst,
            )


def _per_set_checks(cell, E, set_name, binomial, checks) -> None:
    """Every check on one set: one kernel sweep per G(n,d), whose histograms all checks share."""
    space, arrays, grassmannians, duals, dual_points = cell
    p, n = space.p, space.n
    spectrum = dft(E)
    lhs, rhs, ok = plancherel_check(spectrum)
    checks["plancherel"].record(ok, p=p, n=n, set=set_name, lhs=lhs, rhs=rhs)
    power = np.abs(spectrum.values) ** 2

    sizes = {}  # image sizes over G(n,d), the census sweeps
    for d in range(n + 1):
        energy, spectral = 0, 0.0  # energy(E, A(n,d)), summed over the directions W
        n_cosets = p ** (n - d)
        # subspace Plancherel: sum_j |E n (x_j + W)|^2 = p^(d-n) sum_{xi in Per(W)} |Ehat(xi)|^2
        dual_sums = power[dual_points[d]].sum(axis=1).tolist()
        image_sizes = []
        for W, P, counts, dual_sum in zip(
            grassmannians[d], duals[d], coset_counts(E, arrays[d]), dual_sums
        ):
            profile = CosetProfile(W, counts, E.cardinality)
            image = project(E, W)
            decomposed = int(profile.counts.sum()) == E.cardinality
            image_consistent = profile.image_size == image.size
            min_bound = (
                E.cardinality == 0
                or 1 <= image.size <= min(E.cardinality, n_cosets)
            )
            checks["coset_decomposition"].record(
                decomposed and image_consistent and min_bound,
                p=p, n=n, set=set_name, subspace=W.basis,
            )
            checks["cauchy_schwarz"].record(
                profile.cauchy_schwarz_ok(),
                p=p, n=n, set=set_name, subspace=W.basis,
            )
            lhs, rhs = profile.second_moment(), dual_sum / n_cosets
            checks["subspace_plancherel"].record(
                abs(lhs - rhs) <= TOLERANCE * max(1.0, lhs),
                p=p, n=n, set=set_name, subspace=W.basis, lhs=lhs, rhs=rhs,
            )
            energy += lhs
            spectral += rhs
            image_sizes.append(profile.image_size)
            if 1 <= d <= n - 1:
                dual_image = project_onto(E, P)
                checks["projection_duality"].record(
                    dual_image.size == image.size and dual_image.labels == image.labels,
                    p=p, n=n, set=set_name, subspace=W.basis,
                )
        sizes[d] = np.array(image_sizes, dtype=np.int64)

        rhs = energy_identity_closed_form(space, E.cardinality, d)
        rhs_injected = E.cardinality * p**d * _or_zero(binomial, n - 1, d, p) + (
            E.cardinality**2 * _or_zero(binomial, n - 1, d - 1, p)
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
        sweep = (directions, sizes[n - m])
        if E.cardinality:
            for N in sorted({1, E.cardinality // 4}):
                if N < 1:
                    continue
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
        for theta_name, theta in (
            ("all", directions),
            ("half", directions[: max(1, len(directions) // 2)]),
        ):
            result = key_lemma_check(E, theta)
            if result.condition_ok:
                checks["energy_bounds"].record(
                    result.ok, p=p, n=n, m=m, set=set_name, theta=theta_name,
                    energy=result.energy,
                    bound_pairs=float(result.bound_pairs),
                    bound_fourier=float(result.bound_fourier),
                )


def _or_zero(binomial, n, m, p):
    if m < 0 or m > n:
        return 0
    return binomial(n, m, p)
