"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact identities, the spectral sides of the energy identity and of
subspace Plancherel among them, tolerate nothing; the transform's own values
use the library tolerance; the percolation criteria are statistical with
seeded trials and fixed thresholds.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from ffproj.core import AmbientSpace, PointSet, decode, save_point_set
from ffproj.energy import verify_energy_identity, verify_energy_identity_fourier
from ffproj.fourier import (
    SalemProfile,
    character_sum,
    paraboloid,
    projection_bound_report,
    salem_deficiency,
    subspace_plancherel,
)
from ffproj.projections import ExactBound, coset_counts, projection_sizes
from ffproj.random_sets import verify_large_regime, verify_small_regime
from ffproj.subspaces import (
    Subspace,
    count_subspaces_containing,
    count_subspaces_with_perp_containing,
    enumerate_grassmannian,
    gaussian_binomial,
    verify_pascal_identities,
)

from oracles import brute_containment_counts


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _random_set(space, rng):
    density = rng.uniform(0.05, 0.95)
    return PointSet(space, rng.random(space.point_count) < density)


def test_criterion_1_gaussian_binomials():
    """Closed form equals exhaustive RREF enumeration; Pascal identities exact."""
    checked = 0
    for p in (2, 3, 5):
        for n in range(1, 5):
            space = AmbientSpace(p, n)
            for m in range(n + 1):
                count = sum(1 for _ in enumerate_grassmannian(space, m))
                assert count == gaussian_binomial(n, m, p), (p, n, m)
                checked += 1
            for m in range(1, n):
                assert verify_pascal_identities(n, m, p), (p, n, m)
    _report(1, f"{checked} (n,m,p) instances enumerated")


def test_criterion_2_containment_counts():
    """Subspace-membership counts match both closed forms for every nonzero xi."""
    checked = 0
    for p in (2, 3):
        for n in (2, 3):
            space = AmbientSpace(p, n)
            for idx in range(1, space.point_count):
                xi = decode(space, idx)
                for m in range(1, n + 1):
                    inside = brute_containment_counts(p, n, m)[xi][0]
                    assert count_subspaces_containing(space, xi, m) == inside, (p, n, m, xi)
                    checked += 1
                for m in range(n):
                    dual = brute_containment_counts(p, n, m)[xi][1]
                    assert count_subspaces_with_perp_containing(space, xi, m) == dual, (p, n, m, xi)
                    checked += 1
    _report(2, f"{checked} exhaustive membership counts")


def test_criterion_3_energy_identity():
    """Plane-energy closed form: exhaustive on F_3^2, randomized elsewhere."""
    space = AmbientSpace(3, 2)
    for bits in range(512):
        E = PointSet(space, (bits >> np.arange(9)) & 1 > 0)
        lhs, rhs, equal = verify_energy_identity(E, 1)
        assert equal, (bits, lhs, rhs)
        spectral, rhs2, equal = verify_energy_identity_fourier(E, 1)
        assert equal and spectral == rhs2 == rhs, (bits, spectral, rhs2)

    rng = np.random.default_rng(2024)
    randomized = 0
    for p, n in ((5, 2), (2, 3), (3, 3)):
        big = AmbientSpace(p, n)
        for _ in range(1000):
            E = _random_set(big, rng)
            for m in range(n + 1):
                lhs, rhs, equal = verify_energy_identity(E, m)
                assert equal, (p, n, m, E.cardinality, lhs, rhs)
                spectral, rhs2, equal = verify_energy_identity_fourier(E, m)
                assert equal and spectral == rhs2 == rhs, (p, n, m, spectral, rhs2)
            randomized += 1
    _report(3, f"512 exhaustive subsets + {randomized} random sets, both proofs")


def test_criterion_4_subspace_plancherel_and_characters():
    """Coset second moments match their spectral form; character sums vanish."""
    plancherel_checked = 0
    rng = np.random.default_rng(4)
    for p in (2, 3, 5):
        for n in (2, 3):
            space = AmbientSpace(p, n)
            directions = [
                W for d in range(n + 1) for W in enumerate_grassmannian(space, d)
            ]
            if (p, n) == (3, 2):
                sets = [
                    PointSet(space, (bits >> np.arange(9)) & 1 > 0)
                    for bits in range(512)
                ]
            else:
                sets = [PointSet.empty(space), PointSet.full(space)]
                sets += [_random_set(space, rng) for _ in range(25)]
            for E in sets:
                for W in directions:
                    lhs, rhs, ok = subspace_plancherel(E, W)
                    assert ok and lhs == rhs, (p, n, W.basis, lhs, rhs)
                    plancherel_checked += 1

            for k in range(n):
                for V in enumerate_grassmannian(space, k):
                    members = set(int(i) for i in V.point_indices())
                    dual_size = p ** (n - k)
                    for idx in range(space.point_count):
                        value = character_sum(V, decode(space, idx))
                        target = dual_size if idx in members else 0.0
                        assert abs(value - target) <= 1e-9 * dual_size
    _report(4, f"{plancherel_checked} (E, W) spectral identities, characters exhaustive")


def test_criterion_5_census_bounds():
    """Exceptional-direction counts never exceed the proven bounds."""
    rng = np.random.default_rng(5)
    configs = [(3, 2, 1), (5, 2, 1), (3, 3, 1), (3, 3, 2)]
    censuses = 0
    for p, n, m in configs:
        space = AmbientSpace(p, n)
        exp_small = Fraction(m * (n - m) - m)
        exp_large = Fraction(m * (n - m) + m)
        for _ in range(1000):
            E = _random_set(space, rng)
            size = E.cardinality
            if size == 0:
                continue
            _, sizes = projection_sizes(E, m)
            for N in sorted({1, size // 4, size // 2 - 1}):
                if not 1 <= N < size / 2:
                    continue
                observed = int((sizes <= N).sum())
                bound = ExactBound(Fraction(4 * N), p, exp_small)
                assert bound.satisfied_by(observed), (p, n, m, N, observed)
                censuses += 1
            for delta in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                          Fraction(3, 4), Fraction(9, 10)):
                threshold = delta * p**m
                observed = int(
                    (sizes * threshold.denominator <= threshold.numerator).sum()
                )
                bound = ExactBound(2 * delta / (1 - delta) / size, p, exp_large)
                assert bound.satisfied_by(observed), (p, n, m, delta, observed)
                censuses += 1
    _report(5, f"{censuses} censuses, zero bound violations")


def test_criterion_6_cauchy_schwarz_and_min_bound():
    """Exhaustive F_3^2 sweep: pair inequality and the min(|E|, p^m) cap."""
    space = AmbientSpace(3, 2)
    directions = list(enumerate_grassmannian(space, 1))
    for bits in range(512):
        E = PointSet(space, (bits >> np.arange(9)) & 1 > 0)
        for counts in coset_counts(E, directions):
            image = np.count_nonzero(counts)
            assert E.cardinality**2 <= image * int(counts @ counts)
            if E.cardinality:
                assert 1 <= image <= min(E.cardinality, 3)
            else:
                assert image == 0
    _report(6, "512 subsets x 4 directions, zero violations")


def test_criterion_7_paraboloid_salem():
    """Paraboloid spectra peak at p^((n-1)/2); decay-case conclusions verified."""
    checked = []
    for p in (3, 5, 7, 11, 13):
        for n in (2, 3):
            space = AmbientSpace(p, n)
            E = paraboloid(space)
            report = salem_deficiency(E)
            expected = p ** ((n - 1) / 2)
            assert abs(report.max_nonzero_modulus - expected) <= 1e-6 * expected
            for m in range(1, n):
                case_report = projection_bound_report(E, SalemProfile(1.0, 0.5), m)
                assert case_report.profile_ok, (p, n, m)
                active = case_report.cases[case_report.case]
                assert active["holds"], (p, n, m, case_report)
                if case_report.cases["c"]["applicable"]:
                    assert case_report.cases["c"]["holds"], (p, n, m)
            checked.append((p, n))
    _report(7, f"{len(checked)} paraboloid configurations")


def test_criterion_8_percolation_small_regime():
    """Seeded sparse percolation keeps every projection above |E|/24."""
    rates = {}
    for p in (7, 13, 31):
        report = verify_small_regime(p, 2, 1, 1.0, trials=200, seed=2024)
        rates[p] = report.success_rate
    print(f"  small-regime success rates across p: {rates} (trend reported)")
    assert rates[31] >= 0.95, rates
    _report(8, f"p=31 success rate {rates[31]:.3f} >= 0.95")


def test_criterion_9_percolation_large_regime():
    """Seeded dense percolation fills every projection."""
    report = verify_large_regime(31, 2, 1, 1.7, trials=200, seed=2024)
    assert report.success_rate >= 0.95, report.success_rate
    _report(9, f"p=31 all-projections-full rate {report.success_rate:.3f} >= 0.95")


CLI_COMMANDS = {
    "enumerate": ["enumerate", "--p", "3", "--n", "2", "--m", "1"],
    "project": ["project", "--pointset", "line.pts", "--basis", "1,0", "--profile"],
    "census": ["census", "--pointset", "line.pts", "--m", "1", "--kind", "small",
               "--N", "1"],
    "energy": ["energy", "--pointset", "line.pts", "--m", "1"],
    "spectrum": ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2"],
    "percolate": ["percolate", "--regime", "small", "--p", "5", "--n", "2",
                  "--m", "1", "--s", "1", "--trials", "5", "--seed", "42"],
    "verify": ["verify", "--p", "3", "--n", "2"],
}


def test_criterion_10_determinism(tmp_path):
    """Every command re-run with the same config yields byte-identical reports."""
    space = AmbientSpace(3, 2)
    line = Subspace.from_rows(space, [(1, 0)]).point_set()
    save_point_set(line, tmp_path / "line.pts")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).parent.parent / "src") + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    for name, args in CLI_COMMANDS.items():
        blobs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "ffproj", *args, "--out", "r.json"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, (name, result.stderr)
            data = json.loads((tmp_path / "r.json").read_text())
            data.pop("wall_clock_s", None)
            blobs.append(json.dumps(data, sort_keys=True))
        assert blobs[0] == blobs[1], name
    _report(10, f"{len(CLI_COMMANDS)} commands byte-identical modulo wall clock")
