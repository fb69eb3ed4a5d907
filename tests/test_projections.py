import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj.core import AmbientSpace, BudgetError, PointSet
from ffproj.projections import (
    ExactBound,
    census_at_scales,
    census_fractional_image,
    census_small_image,
    compare_to_power,
    coset_counts,
    coset_profile,
    floor_power_quotient,
    project,
    project_onto,
    projection_sizes,
)
from ffproj.subspaces import Subspace, enumerate_grassmannian, perp

from oracles import brute_coset_counts, brute_cosets_hit, span_points

F32 = AmbientSpace(3, 2)
F32_DIRECTIONS = list(enumerate_grassmannian(F32, 1))


def test_project_full_and_singleton():
    space = AmbientSpace(5, 2)
    full = PointSet.full(space)
    single = PointSet.from_indices(space, [7])
    for W in enumerate_grassmannian(space, 1):
        assert project(full, W).size == 5
        assert project(single, W).size == 1


def test_project_line_directions():
    line_dir = Subspace.from_rows(F32, [(1, 0)])
    E = line_dir.point_set()
    for W in F32_DIRECTIONS:
        expected = 1 if W == line_dir else 3
        assert project(E, W).size == expected


def test_project_degenerate_directions():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 2)])
    img_zero = project(E, Subspace.zero(F32))
    assert img_zero.degenerate and img_zero.size == E.cardinality
    img_full = project(E, Subspace.full(F32))
    assert img_full.degenerate and img_full.size == 1


def test_project_matches_brute_cosets_exhaustive():
    vectors = [tuple(v) for v in itertools.product(range(3), repeat=2)]
    for bits in range(0, 512, 7):  # a spread of subsets, endpoints included
        E_vectors = [v for i, v in enumerate(vectors) if bits >> i & 1]
        E = PointSet.from_vectors(F32, E_vectors)
        for W in F32_DIRECTIONS:
            pts = W.point_set().vectors()
            assert project(E, W).size == len(brute_cosets_hit(E_vectors, pts, 3))


def test_profile_example():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 0), (0, 1)])
    W = Subspace.from_rows(F32, [(0, 1)])  # cosets are the columns x1 = const
    prof = coset_profile(E, W)
    assert sorted(prof.counts.tolist()) == [0, 1, 2]
    assert prof.total == 3
    assert prof.image_size == 2


def test_profile_full_coset():
    W = Subspace.from_rows(F32, [(1, 2)])
    plane = W.point_set()
    prof = coset_profile(plane, W)
    assert sorted(prof.counts.tolist()) == [0, 0, 3]
    full_prof = coset_profile(PointSet.full(F32), W)
    assert full_prof.counts.tolist() == [3, 3, 3]


def test_profile_matches_brute_counts():
    rng = np.random.default_rng(3)
    space = AmbientSpace(5, 2)
    for _ in range(10):
        E = PointSet(space, rng.random(25) < 0.4)
        for W in enumerate_grassmannian(space, 1):
            prof = coset_profile(E, W)
            oracle = brute_coset_counts(
                E.vectors(), W.point_set().vectors(), 5, 2
            )
            assert sorted(prof.counts.tolist()) == oracle


@st.composite
def _sweep_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(0, n))
    mask = draw(st.lists(st.booleans(), min_size=p**n, max_size=p**n))
    return p, n, dim, mask


@given(_sweep_cases())
@example((3, 2, 1, [False] * 9))  # empty E
@example((2, 3, 0, [True, False] * 4))  # dim W = 0: one coset per point
@example((3, 2, 2, [True, False, True] * 3))  # dim W = n: a single coset
@settings(max_examples=60, deadline=None)
def test_coset_counts_match_brute_force(case):
    p, n, dim, mask = case
    space = AmbientSpace(p, n)
    E = PointSet(space, np.array(mask))
    directions = list(enumerate_grassmannian(space, dim))
    histograms = list(coset_counts(E, directions))
    assert len(histograms) == len(directions)
    for W, counts in zip(directions, histograms):
        assert counts.dtype == np.int64 and counts.size == p ** (n - dim)
        oracle = brute_coset_counts(E.vectors(), span_points(W.basis, p, n), p, n)
        assert sorted(counts.tolist()) == oracle


def test_coset_counts_rejects_foreign_direction():
    E = PointSet.full(F32)
    W = next(enumerate_grassmannian(AmbientSpace(5, 2), 1))
    with pytest.raises(ValueError):
        next(coset_counts(E, [W]))


def test_exhaustive_f32_invariants():
    """All 512 subsets x all 4 directions: min bound, Cauchy-Schwarz, decomposition."""
    for bits in range(512):
        mask = (bits >> np.arange(9)) & 1 > 0
        E = PointSet(F32, mask)
        for W in F32_DIRECTIONS:
            prof = coset_profile(E, W)
            image = project(E, W)
            assert int(prof.counts.sum()) == E.cardinality
            assert prof.image_size == image.size
            if E.cardinality:
                assert 1 <= image.size <= min(E.cardinality, 3)
            else:
                assert image.size == 0
            assert prof.cauchy_schwarz_ok()
            if image.size > 3 - 1:
                assert image.size == 3


def test_projection_duality_exhaustive():
    for bits in range(0, 512, 5):
        mask = (bits >> np.arange(9)) & 1 > 0
        E = PointSet(F32, mask)
        for V in F32_DIRECTIONS:
            assert project_onto(E, V).size == project(E, perp(V)).size


def test_census_small_line_example():
    line = Subspace.from_rows(F32, [(1, 0)]).point_set()
    report = census_small_image(line, 1, 1)
    assert report.observed == 1
    assert report.bound.as_fraction() == 4
    assert report.satisfied and report.hypothesis_ok and report.range_condition_ok


def test_census_small_full_space():
    space = AmbientSpace(5, 2)
    report = census_small_image(PointSet.full(space), 1, 2)
    assert report.observed == 0 and report.satisfied


def test_census_small_hypothesis_flag():
    line = Subspace.from_rows(F32, [(1, 0)]).point_set()
    report = census_small_image(line, 1, 2)  # N = 2 >= |E|/2
    assert not report.hypothesis_ok
    assert report.observed >= 0  # still computed


def test_census_small_random_draws():
    space = AmbientSpace(5, 2)
    rng = np.random.default_rng(4)
    for _ in range(100):
        idx = rng.choice(25, size=5, replace=False)
        E = PointSet.from_indices(space, idx)
        report = census_small_image(E, 1, 2)
        assert report.hypothesis_ok and report.range_condition_ok
        assert report.satisfied  # bound 4 * 5^0 * 2 = 8 over 6 directions


def test_census_fractional_full_space():
    space = AmbientSpace(5, 2)
    report = census_fractional_image(PointSet.full(space), 1, Fraction(1, 2))
    assert report.observed == 0 and report.satisfied


def test_census_fractional_random_draws():
    space = AmbientSpace(5, 2)
    rng = np.random.default_rng(5)
    for _ in range(100):
        idx = rng.choice(25, size=20, replace=False)
        E = PointSet.from_indices(space, idx)
        report = census_fractional_image(E, 1, Fraction(1, 2))
        assert report.satisfied
        # 2 * (delta/(1-delta)) * p^(m(n-m)+m) / |E| = 2 * 25 / 20
        assert report.bound.as_fraction() == Fraction(5, 2)


def test_census_fractional_recovers_not_full_census():
    # delta = (p^m - 1)/p^m counts exactly the directions with non-full image
    rng = np.random.default_rng(6)
    space = AmbientSpace(3, 2)
    for _ in range(30):
        E = PointSet(space, rng.random(9) < 0.5)
        if E.cardinality == 0:
            continue
        report = census_fractional_image(E, 1, Fraction(2, 3))
        _, sizes = projection_sizes(E, 1)
        assert report.observed == int((sizes != 3).sum())


def test_census_fractional_rejects_bad_delta():
    with pytest.raises(ValueError):
        census_fractional_image(PointSet.full(F32), 1, Fraction(1))


def test_census_at_scales_full_space():
    space = AmbientSpace(5, 2)
    reports = census_at_scales(PointSet.full(space), 1, Fraction(2), Fraction(1))
    assert reports["full_image"].observed == 0
    assert not reports["full_image"].hypothesis_ok  # s = 2m boundary excluded
    assert reports["scale_m"].hypothesis_ok  # s > m
    assert reports["scale_m"].satisfied


def test_census_at_scales_line():
    space = AmbientSpace(5, 2)
    line = Subspace.from_rows(space, [(1, 0)]).point_set()
    reports = census_at_scales(line, 1, Fraction(1), Fraction(1))
    # threshold floor(p^t/10) = 0, images are nonempty
    assert reports["scale_t"].threshold == 0
    assert reports["scale_t"].observed == 0
    assert reports["scale_t"].hypothesis_ok


def test_census_reports_carry_their_sweep():
    space = AmbientSpace(3, 3)
    E = PointSet.from_indices(space, [0, 1, 5, 13, 26])
    directions, sizes = projection_sizes(E, 1)
    reports = [
        census_small_image(E, 1, 2),
        census_fractional_image(E, 1, Fraction(1, 2)),
        *census_at_scales(E, 1, Fraction(3, 2), Fraction(1)).values(),
    ]
    for r in reports:
        assert r.directions == directions
        assert np.array_equal(r.sizes, sizes)
        assert r.observed == int((sizes <= r.threshold).sum())


def test_projection_sizes_obeys_budget_env(monkeypatch):
    monkeypatch.setenv("FFPROJ_BUDGET", "5")
    E = PointSet.full(AmbientSpace(5, 3))  # G(3,2) over F_5 has 31 elements
    with pytest.raises(BudgetError, match="over budget 5"):
        projection_sizes(E, 1)


def test_census_at_scales_case_b_example():
    space = AmbientSpace(7, 2)
    E = PointSet.full(space)  # |E| = 49 = p^2
    reports = census_at_scales(E, 1, Fraction(2), Fraction(1))
    r = reports["scale_m"]
    assert r.hypothesis_ok and r.observed == 0 and r.satisfied
    assert r.bound.as_fraction() == Fraction(1, 2)


def test_floor_power_quotient():
    assert floor_power_quotient(5, Fraction(1), 10) == 0
    assert floor_power_quotient(5, Fraction(2), 10) == 2
    assert floor_power_quotient(2, Fraction(2), 4) == 1  # boundary 4/4
    assert floor_power_quotient(3, Fraction(3, 2), 1) == 5  # floor(3*sqrt(3))
    assert floor_power_quotient(7, Fraction(1, 2), 10) == 0
    for p in (2, 3, 5, 7):
        for num in range(0, 7):
            for den in (1, 2, 3):
                expected = int(float(p) ** (num / den) / 10 + 1e-12)
                assert floor_power_quotient(p, Fraction(num, den), 10) == expected


def test_compare_to_power_exact():
    assert compare_to_power(Fraction(8), 2, Fraction(3)) == 0
    assert compare_to_power(Fraction(5), 2, Fraction(3)) < 0
    assert compare_to_power(Fraction(9), 2, Fraction(3)) > 0
    assert compare_to_power(Fraction(2), 2, Fraction(1, 2)) > 0  # 2 > sqrt(2)
    assert compare_to_power(Fraction(3), 5, Fraction(3, 4)) < 0  # 3 < 5^(3/4)


def test_exact_bound_irrational_exponent():
    bound = ExactBound(Fraction(1, 2), 5, Fraction(3, 2))  # 5^1.5/2 ~ 5.59
    assert bound.as_fraction() is None
    assert bound.satisfied_by(5)
    assert not bound.satisfied_by(6)
    assert abs(float(bound) - 5**1.5 / 2) < 1e-12


def test_small_census_bounds_random_p3_n3():
    rng = np.random.default_rng(7)
    space = AmbientSpace(3, 3)
    for _ in range(50):
        E = PointSet(space, rng.random(27) < rng.uniform(0.1, 0.9))
        if E.cardinality == 0:
            continue
        for m in (1, 2):
            for N in (1, max(1, E.cardinality // 3)):
                report = census_small_image(E, m, N)
                if report.hypothesis_ok and report.range_condition_ok:
                    assert report.satisfied, (E.cardinality, m, N, report.observed)
