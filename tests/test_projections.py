import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj import projections, subspaces
from ffproj.core import AmbientSpace, BudgetError, PointSet
from ffproj.energy import all_planes, energy
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
from ffproj.subspaces import (
    Subspace,
    SubspaceArray,
    coset_labels,
    enumerate_grassmannian,
    perp,
)

from oracles import brute_coset_counts, brute_cosets_hit, brute_energy, span_points, vec_add

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
    cap = draw(st.sampled_from([0, 200, 1000, 1 << 20]))
    return p, n, dim, mask, cap


@given(_sweep_cases())
@example((3, 2, 1, [False] * 9, 0))  # empty E
@example((2, 3, 0, [True, False] * 4, 0))  # dim W = 0: one coset per point
@example((3, 2, 2, [True, False, True] * 3, 0))  # dim W = n: a single coset
@example((3, 3, 1, [True, False, False] * 9, 600))  # chunks of 2 over 13 directions
@settings(max_examples=60, deadline=None)
def test_coset_counts_match_brute_force(case):
    p, n, dim, mask, cap = case
    space = AmbientSpace(p, n)
    E = PointSet(space, np.array(mask))
    idx = E.indices()
    directions = list(enumerate_grassmannian(space, dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)  # small caps split G(n, dim)
        histograms = list(coset_counts(E, directions))
    assert len(histograms) == len(directions)
    for W, counts in zip(directions, histograms):
        assert counts.dtype == np.int64 and counts.size == p ** (n - dim)
        expected = np.bincount(coset_labels(W, idx), minlength=p ** (n - dim))
        assert np.array_equal(counts, expected)  # same counts in label order
        oracle = brute_coset_counts(E.vectors(), span_points(W.basis, p, n), p, n)
        assert sorted(counts.tolist()) == oracle


@pytest.mark.parametrize("p,n", [(101, 1), (101, 2), (8191, 1), (8191, 2)])
def test_coset_counts_match_brute_force_at_large_primes(p, n):
    # a few points and explicit directions: all of G(2, 0) over F_8191 needs p^2 bins
    rng = np.random.default_rng(p + n)
    space = AmbientSpace(p, n)
    lines = [row for row in rng.integers(0, p, (3, n)).tolist() if any(row)]
    start = rng.integers(0, p, n)
    on_a_line = [(start + t * np.array(lines[0])) % p for t in range(4)]  # one coset of lines[0]
    scattered = rng.integers(0, p**n, 8)
    E = PointSet.from_indices(
        space, np.concatenate([scattered, np.array(on_a_line) @ p ** np.arange(n)])
    )
    directions = list(dict.fromkeys(Subspace.from_rows(space, [row]) for row in lines))
    if p**n <= 10**4:
        directions.insert(0, Subspace.zero(space))
    idx = E.indices()
    histograms = list(coset_counts(E, directions))
    assert len(histograms) == len(directions)
    assert max(h.max() for h in histograms) >= 4
    for W, counts in zip(directions, histograms):
        expected = np.bincount(coset_labels(W, idx), minlength=p ** (n - W.dim))
        assert np.array_equal(counts, expected)
        oracle = brute_coset_counts(E.vectors(), span_points(W.basis, p, n), p, n)
        assert sorted(counts.tolist()) == oracle


def test_coset_counts_mixed_dimensions(monkeypatch):
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", 500)
    space = AmbientSpace(3, 3)
    E = PointSet(space, np.random.default_rng(5).random(27) < 0.5)
    G = {d: list(enumerate_grassmannian(space, d)) for d in range(4)}
    directions = G[1][:5] + G[0] + G[1][5:] + G[2] + G[3] + G[2][:3] + G[0]
    histograms = list(coset_counts(E, iter(directions)))
    assert len(histograms) == len(directions)
    for W, counts in zip(directions, histograms):
        expected = np.bincount(coset_labels(W, E.indices()), minlength=3 ** (3 - W.dim))
        assert np.array_equal(counts, expected)


def _brute_plane(P):
    p, n = P.space.p, P.space.n
    return {vec_add(w, P.rep, p) for w in span_points(P.direction.basis, p, n)}


def test_energy_spans_several_chunks(monkeypatch):
    space = AmbientSpace(3, 3)
    E = PointSet(space, np.random.default_rng(7).random(27) < 0.4)
    planes = all_planes(space, 1)
    expected = brute_energy(E.vectors(), [_brute_plane(P) for P in planes])
    assert energy(E, planes) == expected
    # two directions of G(3,1) per chunk: 13 directions make 7 chunks
    cap = 2 * projections._chunk_bytes(E.cardinality, 2, 1, 3)
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    assert energy(E, planes) == expected
    subfamily = planes[::4]
    assert energy(E, subfamily) == brute_energy(
        E.vectors(), [_brute_plane(P) for P in subfamily]
    )


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
    held = [  # a caller's own sweep, as an array or as a list, gives the same reports
        census_small_image(E, 1, 2, sweep=(directions, sizes)),
        census_fractional_image(E, 1, Fraction(1, 2), sweep=(list(directions), sizes)),
    ]
    assert [r.to_json_dict() for r in held] == [r.to_json_dict() for r in reports[:2]]
    assert all(r.directions == directions for r in held)


def test_directions_of_the_wrong_dimension_are_refused():
    space = AmbientSpace(3, 3)
    full = PointSet.full(space)
    lines = SubspaceArray.grassmannian(space, 1)  # m = 1 needs planes, n - m = 2
    for directions in (lines, list(lines)):
        with pytest.raises(ValueError, match="need n - m = 2"):
            projection_sizes(full, 1, directions=directions)
        sweep = (directions, np.full(len(lines), 9))
        with pytest.raises(ValueError, match="need n - m = 2"):
            census_small_image(full, 1, 1, sweep=sweep)
        with pytest.raises(ValueError, match="need n - m = 2"):
            census_fractional_image(full, 1, Fraction(1, 2), sweep=sweep)
    planes = SubspaceArray.grassmannian(space, 2)
    with pytest.raises(ValueError, match="12 image sizes for 13 directions"):
        census_small_image(full, 1, 1, sweep=(planes, np.full(12, 3)))


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
