import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj import projections, subspaces
from ffproj.core import AmbientSpace, BudgetError, PointSet
from ffproj.energy import energy
from ffproj.projections import (
    ExactBound,
    census_at_scales,
    census_fractional_image,
    census_small_image,
    compare_to_power,
    coset_counts,
    floor_power_quotient,
    projection_sizes,
)
from ffproj.subspaces import (
    Subspace,
    SubspaceArray,
    enumerate_grassmannian,
    perp,
)

from oracles import (
    brute_coset_counts,
    brute_cosets_hit,
    brute_energy,
    brute_plane,
    fraction_compare_to_power,
    fraction_satisfied_by,
    int64_coset_labels,
    span_points,
)

F32 = AmbientSpace(3, 2)
F32_DIRECTIONS = list(enumerate_grassmannian(F32, 1))


def _image(E, W):
    """The labels of the cosets of W that E meets, from W's histogram."""
    return np.flatnonzero(next(coset_counts(E, [W])))


def test_project_full_and_singleton():
    space = AmbientSpace(5, 2)
    full = PointSet.full(space)
    single = PointSet.from_indices(space, [7])
    for W in enumerate_grassmannian(space, 1):
        assert _image(full, W).size == 5
        assert _image(single, W).size == 1


def test_project_line_directions():
    line_dir = Subspace.from_rows(F32, [(1, 0)])
    E = line_dir.point_set()
    for W in F32_DIRECTIONS:
        expected = 1 if W == line_dir else 3
        assert _image(E, W).size == expected


def test_project_degenerate_directions():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 2)])
    assert _image(E, Subspace.zero(F32)).tolist() == sorted(E.indices().tolist())
    assert _image(E, Subspace.full(F32)).tolist() == [0]


def test_project_matches_brute_cosets_exhaustive():
    vectors = [tuple(v) for v in itertools.product(range(3), repeat=2)]
    for bits in range(0, 512, 7):  # a spread of subsets, endpoints included
        E_vectors = [v for i, v in enumerate(vectors) if bits >> i & 1]
        E = PointSet.from_vectors(F32, E_vectors)
        for W in F32_DIRECTIONS:
            pts = W.point_set().vectors()
            assert _image(E, W).size == len(brute_cosets_hit(E_vectors, pts, 3))


def test_profile_example():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 0), (0, 1)])
    W = Subspace.from_rows(F32, [(0, 1)])  # cosets are the columns x1 = const
    counts = next(coset_counts(E, [W]))
    assert sorted(counts.tolist()) == [0, 1, 2]
    assert counts.sum() == 3
    assert np.count_nonzero(counts) == 2


def test_profile_full_coset():
    W = Subspace.from_rows(F32, [(1, 2)])
    plane = W.point_set()
    assert sorted(next(coset_counts(plane, [W])).tolist()) == [0, 0, 3]
    assert next(coset_counts(PointSet.full(F32), [W])).tolist() == [3, 3, 3]


def test_profile_matches_brute_counts():
    rng = np.random.default_rng(3)
    space = AmbientSpace(5, 2)
    directions = list(enumerate_grassmannian(space, 1))
    for _ in range(10):
        E = PointSet(space, rng.random(25) < 0.4)
        for W, counts in zip(directions, coset_counts(E, directions)):
            oracle = brute_coset_counts(
                E.vectors(), W.point_set().vectors(), 5, 2
            )
            assert sorted(counts.tolist()) == oracle


@st.composite
def _sweep_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    if p**n > 343:
        n -= 1  # keep the brute-force oracle quick
    dim = draw(st.integers(0, n))
    mask = draw(st.lists(st.booleans(), min_size=p**n, max_size=p**n))
    cap = draw(st.sampled_from([0, 200, 1000, 1 << 20]))
    seed = draw(st.none() | st.integers(0, 2**16))  # None: enumeration order
    return p, n, dim, mask, cap, seed


@given(_sweep_cases())
@example((3, 2, 1, [False] * 9, 0, None))  # empty E
@example((2, 3, 0, [True, False] * 4, 0, None))  # dim W = 0: one coset per point
@example((3, 2, 2, [True, False, True] * 3, 0, None))  # dim W = n: a single coset
@example((3, 3, 1, [True, False, False] * 9, 600, None))  # map blocks of 12, chunks of 1
@example((3, 4, 2, [True, False] * 4 + [False] * 73, 1100, 1))  # map blocks of 17, chunks of 5
@settings(max_examples=60, deadline=None)
def test_coset_counts_match_brute_force(case):
    p, n, dim, mask, cap, seed = case
    space = AmbientSpace(p, n)
    E = PointSet(space, np.array(mask))
    idx = E.indices()
    directions = list(enumerate_grassmannian(space, dim))
    if seed is not None:
        random.Random(seed).shuffle(directions)  # every block mixes pivot patterns
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)  # small caps split map blocks and chunks
        histograms = list(coset_counts(E, SubspaceArray.of(space, directions)))
    assert len(histograms) == len(directions)
    for W, counts in zip(directions, histograms):
        assert counts.dtype == np.int64 and counts.size == p ** (n - dim)
        expected = np.bincount(int64_coset_labels(W, idx), minlength=p ** (n - dim))
        assert np.array_equal(counts, expected)  # same counts in label order
        oracle = brute_coset_counts(E.vectors(), span_points(W.basis, p, n), p, n)
        assert sorted(counts.tolist()) == oracle


def _kernel(digits, tags, ntags, directions):
    blocks = list(projections._coset_histograms(digits, tags, ntags, directions))
    cosets = directions.space.p ** (directions.space.n - directions.dim)
    return np.concatenate(blocks) if blocks else np.zeros((0, ntags, cosets), dtype=np.int64)


def _spy_pattern_route(monkeypatch):
    """Record the fold flag and the chunk rows of every Grassmannian-route sweep."""
    calls = []
    real = projections._pattern_histograms

    def spy(digits, tags, ntags, directions, fold, rows):
        calls.append((fold, rows))
        return real(digits, tags, ntags, directions, fold, rows)

    monkeypatch.setattr(projections, "_pattern_histograms", spy)
    return calls


@st.composite
def _tagged_sweeps(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 23]))
    n = draw(st.sampled_from(range(1, {2: 4, 3: 3, 5: 3, 7: 2, 23: 2}[p] + 1)))
    k = draw(st.sampled_from(range(n + 1)))
    ntags = draw(st.integers(1, 4))
    # distinct points within a tag (the oracle counts a set); a point may carry several
    # tags.  The first tag has ``size`` points, the others up to as many
    size = draw(st.integers(0, min(p**n, 40)))
    seed = draw(st.integers(0, 2**16))
    # a cap in bytes, or chunks of at least p^w directions on the Grassmannian route
    cap = draw(st.sampled_from([1, 200, 700, 1 << 20]) | st.tuples(st.integers(1, 3)))
    return p, n, k, ntags, size, seed, cap


@given(_tagged_sweeps())
@example((7, 2, 1, 1, 40, 2, 700))  # fold: 14 bins per direction, against up to 40 labels
@example((3, 3, 1, 3, 27, 3, 700))  # lookup over r = 2 digits
@example((3, 3, 2, 4, 5, 3, (1,)))  # r = 1, more bins than labels: the stacked product
@example((2, 4, 2, 2, 16, 4, 200))  # G(4, 2): patterns of 0 to 4 free entries
@example((23, 2, 1, 2, 40, 0, 1))  # chunks of one direction: the stacked product
@example((5, 3, 3, 2, 30, 5, 1))  # r = 0: one direction, one coset
@example((3, 3, 1, 2, 27, 6, (1,)))  # chunks of a few directions, with fixed free entries
@example((2, 4, 3, 1, 16, 7, (2,)))  # 16 labels, at least 3/2 p^2: the shear
@example((2, 2, 1, 1, 4, 7, (2,)))  # fold over F_2: 4 bins per direction, 4 labels
@example((3, 2, 2, 1, 9, 8, 700))  # r = 0, one tag
@example((5, 3, 1, 1, 40, 9, 700))  # r = 2, one tag
@settings(max_examples=150, deadline=None)
def test_grassmannian_route_matches_stacked_product_and_brute_force(case):
    p, n, k, ntags, size, seed, cap = case
    space = AmbientSpace(p, n)
    rng = np.random.default_rng(seed)
    sizes = [size] + rng.integers(0, size + 1, ntags - 1).tolist()
    indices = [rng.choice(p**n, size=s, replace=False) for s in sizes]
    tags = np.repeat(np.arange(ntags), [len(i) for i in indices])
    digits = np.concatenate(indices)[:, None] // p ** np.arange(n) % p
    if isinstance(cap, tuple):  # at least a direction's labels and widest bins, p^w times
        cap = 8 * (len(digits) + ntags * n * p ** max(1, n - k)) * p ** cap[0]
    G = SubspaceArray.grassmannian(space, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)
        got = _kernel(digits, tags, ntags, G)
        stacked = _kernel(digits, tags, ntags, G[:])  # a slice is not marked: stacked product
    assert got.dtype == np.int64 and got.shape == (len(G), ntags, p ** (n - k))
    assert np.array_equal(got, stacked)
    # the helper that bins the stacked product, on all label maps at once: r digits wide
    maps = np.concatenate(list(G.label_map_blocks())).transpose(2, 0, 1)
    assert maps.shape[0] == n - k
    direct = subspaces._code_histograms(space, digits.astype(np.float64), tags, ntags, maps)
    assert np.array_equal(direct, got)
    for W, h in zip(G, got):
        points = span_points(W.basis, p, n)
        for t in range(ntags):
            vectors = [tuple(v) for v in digits[tags == t].tolist()]
            assert sorted(h[t].tolist()) == brute_coset_counts(vectors, points, p, n)


def test_kernel_routes_are_chosen_by_size(monkeypatch):
    calls = _spy_pattern_route(monkeypatch)
    rng = np.random.default_rng(3)

    def sweep(p, n, k, ntags, size):
        digits = rng.integers(0, p, (size, n))
        tags = rng.integers(0, ntags, size)
        G = SubspaceArray.grassmannian(AmbientSpace(p, n), k)
        got = _kernel(digits, tags, ntags, G)
        assert np.array_equal(got, _kernel(digits, tags, ntags, G[:]))
        return got

    sweep(23, 3, 2, 1, 500)  # under p^2 labels, 69 bins each: fold
    sweep(23, 3, 1, 1, 2600)  # the energy sweep, r = 2: lookup tables
    sweep(3, 5, 3, 1, 90)  # r = 2 over few points: lookup tables
    assert [fold for fold, _ in calls] == [True, False, False]
    sweep(13, 3, 2, 40, 520)  # 40 tagged trials: 1560 bins for 520 labels, r = 1: product
    sweep(3, 2, 1, 6, 30)  # a suite cell: the whole sweep is one stacked chunk
    sweep(3, 2, 2, 6, 30)  # r = 0: one direction
    assert len(calls) == 3

    # arrays that are not a whole Grassmannian take the stacked product
    space = AmbientSpace(23, 3)
    E = PointSet.from_indices(space, rng.choice(space.point_count, 500, replace=False))  # fold
    listed = list(enumerate_grassmannian(space, 2))
    for directions in (listed[::-1], listed + listed, listed[1:]):
        assert len(list(coset_counts(E, directions))) == len(directions)
    assert len(calls) == 3
    histograms = np.array(list(coset_counts(E, SubspaceArray.grassmannian(space, 2))))
    assert len(calls) == 4
    shuffled = random.Random(0).sample(range(len(listed)), len(listed))
    reordered = np.array(list(coset_counts(E, [listed[i] for i in shuffled])))
    assert np.array_equal(reordered, histograms[shuffled])


def test_kernel_chunks_stay_under_the_cap(monkeypatch):
    # a direction of a chunk costs one int64 label per point and 25 int64 bins; a chunk
    # leaves open as many free entries as fit, one to all four (G(4, 2) has up to four)
    calls = _spy_pattern_route(monkeypatch)
    rng = np.random.default_rng(4)
    digits = rng.integers(0, 5, (300, 4))
    tags = np.zeros(300, dtype=np.int64)
    G = SubspaceArray.grassmannian(AmbientSpace(5, 4), 2)
    expected = _kernel(digits, tags, 1, G[:])
    for width in range(5):
        cap = 8 * (300 + 25) * 5**width
        monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
        blocks = list(projections._coset_histograms(digits, tags, 1, G))
        assert np.array_equal(np.concatenate(blocks), expected)
        if width:
            assert calls.pop() == (False, 5**width)
            assert max(len(h) for h in blocks) == 5**width
        else:  # fewer than p directions per chunk: the stacked product, one direction each
            assert not calls and max(len(h) for h in blocks) == 1


@st.composite
def _pencil_sweeps(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 23]))
    n = draw(st.integers(2, {2: 4, 3: 4, 5: 4, 7: 3, 23: 3}[p]))
    ntags = draw(st.integers(1, 3))
    size = draw(st.integers(0, min(p**n, 40)))
    seed = draw(st.integers(0, 2**16))
    # a cap in bytes (1 byte: one pencil per chunk and one b per gather), or chunks of
    # p^w pencils
    cap = draw(st.sampled_from([1, 300, 2000, 1 << 20]) | st.tuples(st.integers(1, 2)))
    return p, n, ntags, size, seed, cap


@given(_pencil_sweeps())
@example((2, 2, 1, 4, 0, 1))  # patterns of zero and one free entry, one pencil
@example((3, 4, 2, 30, 1, 1))  # two fixed entries, one pencil and one b at a time
@example((5, 3, 3, 40, 2, (1,)))  # chunks of 5 pencils, gathers of 2 pencils
@example((7, 3, 1, 40, 4, 2000))  # gathers over 5 and then 2 values of b
@example((23, 3, 1, 40, 3, 2000))  # 23 pencils with a fixed entry, one b per gather
@settings(max_examples=80, deadline=None)
def test_shear_route_matches_stacked_product_and_brute_force(case):
    p, n, ntags, size, seed, cap = case
    space = AmbientSpace(p, n)
    rng = np.random.default_rng(seed)
    sizes = [size] + rng.integers(0, size + 1, ntags - 1).tolist()
    indices = [rng.choice(p**n, size=s, replace=False) for s in sizes]
    tags = np.repeat(np.arange(ntags), [len(i) for i in indices])
    digits = np.concatenate(indices)[:, None] // p ** np.arange(n) % p
    if isinstance(cap, tuple):  # p^w pencils' keys and bins
        cap = 8 * (len(digits) + ntags * p * p) * p ** cap[0]
    G = SubspaceArray.grassmannian(space, n - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)
        got = np.concatenate(list(projections._shear_histograms(digits, tags, ntags, G)))
        stacked = _kernel(digits, tags, ntags, G[:])
    assert got.dtype == np.int64 and got.shape == (len(G), ntags, p)
    assert np.array_equal(got, stacked)
    # the oracle on a dozen directions, the last of them the pattern with no free entry
    for i in np.linspace(0, len(G) - 1, min(len(G), 12)).astype(int).tolist():
        points = span_points(G[i].basis, p, n)
        for t in range(ntags):
            vectors = [tuple(v) for v in digits[tags == t].tolist()]
            assert sorted(got[i, t].tolist()) == brute_coset_counts(vectors, points, p, n)


def test_shear_route_is_chosen_by_size(monkeypatch):
    from ffproj import random_sets
    from ffproj.fourier import paraboloid
    from ffproj.suite import run_identity_suite

    calls = []
    real = projections._shear_histograms

    def spy(digits, tags, ntags, directions):
        calls.append((len(digits), ntags))
        return real(digits, tags, ntags, directions)

    monkeypatch.setattr(projections, "_shear_histograms", spy)
    rng = np.random.default_rng(5)

    def random_set(p, n, size):
        return PointSet.from_indices(AmbientSpace(p, n), rng.choice(p**n, size, replace=False))

    def hyperplane_histograms(E, directions=None):
        if directions is None:
            directions = SubspaceArray.grassmannian(E.space, E.space.n - 1)
        return np.array(list(coset_counts(E, directions)))

    # the energy sweep of the benchmark's F_23^3 set: about 23^2.5 points, 4.8 p^2
    E = random_set(23, 3, 2537)
    histograms = hyperplane_histograms(E)
    assert calls == [(2537, 1)]
    listed = list(SubspaceArray.grassmannian(E.space, 2))  # not marked: the stacked product
    assert np.array_equal(histograms, hyperplane_histograms(E, listed))
    # the benchmark's percolate calls: fewer points than ntags p^2 in every group
    for regime, p, n, s in (("small", 31, 2, 1.0), ("large", 31, 2, 1.7),
                            ("small", 13, 3, 1.0), ("large", 13, 3, 1.5)):
        runner = {"small": random_sets.verify_small_regime,
                  "large": random_sets.verify_large_regime}[regime]
        runner(p, n, 1, s, 40, seed=0)
    # the benchmark's verify cells: each sweep fits one stacked-product chunk
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)):
        assert run_identity_suite(primes=[p], dims=[n], seed=0)["all_pass"]
    hyperplane_histograms(random_set(101, 2, 101**2 // 4))  # N = p^2 / 4
    hyperplane_histograms(random_set(23, 3, 528))  # N just under p^2: fold
    assert len(calls) == 1
    hyperplane_histograms(random_set(23, 3, 529))  # N = p^2
    hyperplane_histograms(paraboloid(AmbientSpace(31, 3)))  # N = p^2
    assert calls[1:] == [(529, 1), (961, 1)]
    # with tags the edge is N = ntags p^2
    G = SubspaceArray.grassmannian(AmbientSpace(23, 3), 2)
    for N in (3 * 529 - 1, 3 * 529):
        digits = rng.integers(0, 23, (N, 3))
        tags = np.arange(N) % 3
        assert np.array_equal(_kernel(digits, tags, 3, G), _kernel(digits, tags, 3, G[:]))
    assert calls[3:] == [(3 * 529, 3)]


def test_shear_arrays_stay_under_the_cap(monkeypatch):
    # 13 pencils of F_13^3 in the pattern with a fixed entry; 300 points, 3/2 p^2 < 300
    calls = {"keys": [], "bins": [], "doubled": [], "gathered": []}
    real_labels, real_shears = projections._chunk_labels, projections._shears
    real_windows = projections.sliding_window_view

    def labels(*args):
        keys = real_labels(*args)
        calls["keys"].append(keys.nbytes)
        return keys

    def shears(H, p):
        calls["bins"].append((len(H), H.nbytes))
        for block in real_shears(H, p):
            calls["gathered"].append((len(block), 8 * p * block.size))  # the summed gather
            yield block

    def windows(h, *args, **kwargs):
        calls["doubled"].append(h.nbytes)
        return real_windows(h, *args, **kwargs)

    monkeypatch.setattr(projections, "_chunk_labels", labels)
    monkeypatch.setattr(projections, "_shears", shears)
    monkeypatch.setattr(projections, "sliding_window_view", windows)
    p, N = 13, 300
    rng = np.random.default_rng(6)
    for ntags in (1, 2):
        digits = rng.integers(0, p, (ntags * N, 3))
        tags = np.repeat(np.arange(ntags), N)
        G = SubspaceArray.grassmannian(AmbientSpace(p, 3), 2)
        expected = _kernel(digits, tags, ntags, G[:])
        pencil = 8 * (ntags * N + ntags * p * p)  # a pencil's keys and bins
        # many pencils a chunk; 13, 2 or 1 pencils; one pencil's gather in 5, 2 or 13 parts
        for cap in (1 << 20, 13 * pencil, 2 * pencil, pencil, 8 * ntags * p**3 // 3,
                    8 * ntags * p**3 // 6, 8 * ntags * p * p):
            monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
            for values in calls.values():
                values.clear()
            assert np.array_equal(_kernel(digits, tags, ntags, G), expected)
            assert calls["bins"], cap  # the shear ran
            one_pencil = pencil > cap  # a chunk holds at least one pencil
            for keys, (c, bins) in zip(calls["keys"], calls["bins"]):
                assert keys + bins <= cap or (c == 1 and one_pencil)
            for doubled in calls["doubled"]:
                assert doubled <= cap or one_pencil
            for c, gathered in calls["gathered"]:  # at least one direction a gather
                assert gathered <= cap or (c == 1 and 8 * ntags * p * p > cap)
            if 8 * ntags * p**3 > cap:  # gathers split a pencil over b
                assert max(c for c, _ in calls["gathered"]) < p


def _histogram_sizes(digits, tags, ntags, directions):
    blocks = projections._coset_histograms(digits, tags, ntags, directions)
    return np.concatenate([np.count_nonzero(h, axis=2) for h in blocks])


@pytest.mark.parametrize("ntags", [1, 3, 40])
@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 13, 31) for n in (2, 3, 4)])
def test_word_route_matches_the_histograms_and_brute_force(monkeypatch, p, n, ntags):
    space = AmbientSpace(p, n)
    rng = np.random.default_rng(100 * p + 10 * n + ntags)
    sizes = rng.integers(1, min(p**n, 3 * p) + 1, ntags)  # distinct points within a tag
    sizes[1:2] = 0  # a tag with no points
    indices = [rng.choice(p**n, size=s, replace=False) for s in sizes.tolist()]
    tags = np.repeat(np.arange(ntags), sizes)
    digits = np.concatenate(indices)[:, None] // p ** np.arange(n) % p
    G = SubspaceArray.grassmannian(space, n - 1)
    expected = _histogram_sizes(digits, tags, ntags, G)
    pencil = 8 * (len(digits) + ntags * p * p)  # a pencil's keys and bins
    # one pencil a chunk, so every free entry is fixed; chunks of p pencils (n = 4: one
    # entry fixed, one open) and p^2 pencils (two open); the default cap
    for cap in (1, pencil * p, pencil * p * p, 1 << 20):
        monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
        got = np.concatenate(list(projections._word_sizes(digits, tags, ntags, G)))
        assert got.dtype == np.int64 and got.shape == (len(G), ntags)
        assert np.array_equal(got, expected), cap
    if p ** (n - 1) > 961:
        return  # the histograms are checked against the oracle at these sizes elsewhere
    # the oracle on three directions, the last the pattern with no free entry, and three tags
    for i in (0, len(G) // 2, len(G) - 1):
        points = span_points(G[i].basis, p, n)
        for t in range(min(ntags, 3)):
            vectors = [tuple(v) for v in digits[tags == t].tolist()]
            assert got[i, t] == len(brute_cosets_hit(vectors, points, p))


@pytest.mark.parametrize("ntags", [1, 40])
@pytest.mark.parametrize("route,p,n,k,per_tag", [
    ("product", 5, 3, 2, 10),  # the whole sweep is one stacked-product chunk
    ("fold", 37, 2, 1, 80),  # 2p > 64 bits: no words, n p <= N / ntags < p^2
    ("pattern", 3, 4, 2, 30),  # r = 2
    ("word", 5, 3, 2, 30),  # N >= 2 ntags p
])
def test_image_sizes_count_the_occupied_cosets_on_every_route(monkeypatch, route, p, n, k, per_tag, ntags):
    space = AmbientSpace(p, n)
    rng = np.random.default_rng(p + n + ntags)
    # tag 0 has a full image: it holds the whole space when r = 2, else the coordinate
    # axes, which meet every coset of every hyperplane.  Tag 1 has none
    axes = np.unique(np.arange(p)[:, None] * p ** np.arange(n))
    full = np.arange(p**n) if n - k > 1 else axes
    sizes = rng.integers(per_tag // 2, 3 * per_tag // 2 + 1, ntags).tolist()
    indices = [rng.choice(p**n, size=s, replace=False) for s in sizes]
    indices[0] = np.union1d(full, indices[0])
    if ntags > 1:
        indices[1] = indices[1][:0]
    tags = np.repeat(np.arange(ntags), [len(i) for i in indices])
    digits = np.concatenate(indices)[:, None] // p ** np.arange(n) % p
    G = SubspaceArray.grassmannian(space, k)
    if route != "product":  # a chunk of p directions on the route, so not one stacked chunk
        chunk = 8 * (len(digits) + ntags * (n * p if route == "fold" else p * p))
        monkeypatch.setattr(subspaces, "_KERNEL_BYTES", chunk * p)
    assert projections._route(len(digits), ntags, G, sizes=True)[0] == route
    got = projections._image_sizes(digits, tags, ntags, G)
    assert got.dtype == np.int64 and got.shape == (len(G), ntags)
    assert (got[:, 0] == p ** (n - k)).all()
    if ntags > 1:
        assert (got[:, 1] == 0).all()
    for i, W in enumerate(G):
        points = span_points(W.basis, p, n)
        for t in range(ntags) if ntags == 1 or len(G) <= 31 else (0, 1, 2, ntags - 1):
            vectors = [tuple(v) for v in digits[tags == t].tolist()]
            assert got[i, t] == np.count_nonzero(brute_coset_counts(vectors, points, p, n))


@pytest.mark.parametrize("route,p,n,k,N", [
    ("product", 5, 3, 2, 50),
    ("fold", 37, 2, 1, 80),
    ("pattern", 3, 4, 2, 30),
    ("shear", 37, 2, 1, 37 * 37),
])
def test_every_histogram_route_yields_fresh_writable_blocks(monkeypatch, route, p, n, k, N):
    # _image_sizes overwrites each block with its occupancy, so no block may be a view of
    # another, of a buffer a route reuses, or of a table a later sweep reads
    space = AmbientSpace(p, n)
    digits = np.random.default_rng(p).choice(p**n, N, replace=False)[:, None] // p ** np.arange(n) % p
    tags = np.zeros(N, dtype=np.int64)
    G = SubspaceArray.grassmannian(space, k)
    if route != "product":  # chunks of about p directions: several blocks a sweep
        monkeypatch.setattr(subspaces, "_KERNEL_BYTES", 8 * (N + (n * p if route == "fold" else p * p)) * p)
    assert projections._route(N, 1, G)[0] == route
    first, second = (list(projections._coset_histograms(digits, tags, 1, G)) for _ in range(2))
    assert len(first) > (route != "product")
    for i, h in enumerate(first):
        assert h.dtype == np.int64 and h.flags.writeable
        assert not any(np.shares_memory(h, g) for g in first[:i] + second)


def test_word_route_is_chosen_by_size(monkeypatch):
    from ffproj import random_sets
    from ffproj.fourier import paraboloid

    calls = []
    real = projections._word_sizes

    def spy(digits, tags, ntags, directions):
        calls.append((len(digits), ntags, directions.space.p))
        return real(digits, tags, ntags, directions)

    monkeypatch.setattr(projections, "_word_sizes", spy)
    rng = np.random.default_rng(7)

    def sweep(p, n, ntags, per_tag, directions=None):
        """Image sizes of ntags sets of per_tag points each, against the histograms."""
        space = AmbientSpace(p, n)
        digits = np.concatenate(
            [rng.choice(p**n, per_tag, replace=False) for _ in range(ntags)]
        )[:, None] // p ** np.arange(n) % p
        tags = np.repeat(np.arange(ntags), per_tag)
        G = SubspaceArray.grassmannian(space, n - 1)
        directions = G if directions is None else directions(G)
        sizes = projections._image_sizes(digits, tags, ntags, directions)
        assert np.array_equal(sizes, _histogram_sizes(digits, tags, ntags, G[:])[: len(sizes)])
        return calls.pop() if calls else None

    # N / (ntags p) about 1 is refused, about 3.5 taken; the rule's edge is N = 2 ntags p
    assert sweep(13, 3, 40, 13) is None
    assert sweep(13, 3, 40, 45) == (1800, 40, 13)
    assert sweep(13, 3, 10, 2 * 13 - 1) is None
    assert sweep(13, 3, 10, 2 * 13) == (260, 10, 13)
    assert sweep(23, 3, 1, 80) == (80, 1, 23)
    assert sweep(31, 3, 1, 100) == (100, 1, 31)  # 2p = 62 bits
    assert sweep(37, 3, 1, 100) is None  # 2p = 74 bits: the histograms
    assert sweep(31, 3, 1, 100, lambda G: G[:]) is None  # a slice is not marked
    assert sweep(31, 3, 1, 100, lambda G: G[:500]) is None
    assert sweep(5, 3, 1, 40) is None  # the whole sweep is one stacked-product chunk
    assert sweep(31, 2, 1, 900) is None  # 32 directions, one stacked-product chunk
    assert sweep(31, 2, 2, 961) == (1922, 2, 31)
    # other codimensions take the histograms
    E = PointSet.from_indices(AmbientSpace(13, 3), rng.choice(13**3, 900, replace=False))
    projection_sizes(E, 2)
    assert not calls
    # the benchmark's sweeps: the F_23^3 census set and the F_31^3 paraboloid are taken,
    # the percolate groups of 40 trials at s = 1 refused, those at s = 1.7 and 1.5 taken
    projection_sizes(PointSet.from_indices(AmbientSpace(23, 3), np.arange(0, 23**3, 5)), 1)
    projection_sizes(paraboloid(AmbientSpace(31, 3)), 1)
    assert [c[:2] for c in calls] == [(2434, 1), (961, 1)]
    calls.clear()
    for regime, p, n, s in (("small", 31, 2, 1.0), ("large", 31, 2, 1.7),
                            ("small", 13, 3, 1.0), ("large", 13, 3, 1.5)):
        runner = {"small": random_sets.verify_small_regime,
                  "large": random_sets.verify_large_regime}[regime]
        runner(p, n, 1, s, 40, seed=0)
    assert [(ntags, p) for _, ntags, p in calls] == [(40, 31), (40, 13)]


def test_word_route_arrays_stay_under_the_cap(monkeypatch):
    # 13 pencils of F_13^3 in the pattern with an open entry; the shifted words of a chunk
    # take as many bytes as its bins
    calls = {"keys": [], "bins": []}
    real_labels, real_chunks = projections._chunk_labels, projections._table_chunks

    def labels(*args):
        keys = real_labels(*args)
        calls["keys"].append(keys.nbytes)
        return keys

    def chunks(*args, **kwargs):
        for pattern, counts in real_chunks(*args, **kwargs):
            if counts is not None:
                calls["bins"].append(counts.nbytes)
            yield pattern, counts

    monkeypatch.setattr(projections, "_chunk_labels", labels)
    monkeypatch.setattr(projections, "_table_chunks", chunks)
    p, N = 13, 300
    rng = np.random.default_rng(8)
    for ntags in (1, 40):
        digits = rng.integers(0, p, (ntags * N, 3))
        tags = np.repeat(np.arange(ntags), N)
        G = SubspaceArray.grassmannian(AmbientSpace(p, 3), 2)
        expected = _histogram_sizes(digits, tags, ntags, G[:])
        pencil = 8 * (ntags * N + ntags * p * p)  # a pencil's keys and bins
        for cap in (1 << 20, 13 * pencil, 2 * pencil, pencil, pencil // 2):
            monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
            for values in calls.values():
                values.clear()
            got = np.concatenate(list(projections._word_sizes(digits, tags, ntags, G)))
            assert np.array_equal(got, expected)
            assert calls["bins"], cap
            for keys, bins in zip(calls["keys"], calls["bins"]):
                # a chunk holds at least one pencil
                assert keys + bins <= cap or (bins == 8 * ntags * p * p and pencil > cap)


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
    histograms = list(coset_counts(E, directions))
    if p**n <= 10**4:  # the zero direction, of another dimension: a sweep of its own
        directions.insert(0, Subspace.zero(space))
        histograms.insert(0, next(coset_counts(E, directions[:1])))
    idx = E.indices()
    assert len(histograms) == len(directions)
    assert max(h.max() for h in histograms) >= 4
    for W, counts in zip(directions, histograms):
        expected = np.bincount(int64_coset_labels(W, idx), minlength=p ** (n - W.dim))
        assert np.array_equal(counts, expected)
        oracle = brute_coset_counts(E.vectors(), span_points(W.basis, p, n), p, n)
        assert sorted(counts.tolist()) == oracle


def test_coset_counts_mixed_dimensions():
    space = AmbientSpace(3, 3)
    E = PointSet.full(space)
    G = {d: list(enumerate_grassmannian(space, d)) for d in range(4)}
    for directions in (G[1][:5] + G[0], G[2] + G[3] + G[2][:3]):
        with pytest.raises(ValueError, match="direction set mixes dimensions"):
            next(coset_counts(E, iter(directions)))


def test_energy_spans_several_chunks(monkeypatch):
    space = AmbientSpace(3, 3)
    E = PointSet(space, np.random.default_rng(7).random(27) < 0.4)
    G = SubspaceArray.grassmannian(space, 1)
    directions = SubspaceArray(space, G.bases.repeat(9, axis=0))  # A(3, 1): 9 cosets each
    labels = np.tile(np.arange(9), len(G))
    reps = subspaces._plane_reps(directions, labels).tolist()
    planes = [brute_plane(W.basis, rep, 3, 3) for W, rep in zip(directions, reps)]
    expected = brute_energy(E.vectors(), planes)
    assert energy(E, directions, labels) == expected
    # two directions of G(3,1) per chunk: 13 directions make 7 chunks
    cap = 2 * projections._chunk_bytes(E.cardinality, 2, 1, 3)
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    assert energy(E, directions, labels) == expected
    assert energy(E, directions[::4], labels[::4]) == brute_energy(E.vectors(), planes[::4])


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
        for W, counts in zip(F32_DIRECTIONS, coset_counts(E, F32_DIRECTIONS)):
            image = np.flatnonzero(counts)
            assert image.tolist() == np.unique(int64_coset_labels(W, E.indices())).tolist()
            assert int(counts.sum()) == E.cardinality
            if E.cardinality:
                assert 1 <= image.size <= min(E.cardinality, 3)
            else:
                assert image.size == 0
            assert E.cardinality**2 <= image.size * int(counts @ counts)  # Cauchy-Schwarz
            if image.size > 3 - 1:
                assert image.size == 3


def test_projection_duality_exhaustive():
    """The image along Per(V) has as many cosets as E has values of x -> (x.v) over V's basis."""
    duals = [perp(V) for V in F32_DIRECTIONS]
    for bits in range(0, 512, 5):
        mask = (bits >> np.arange(9)) & 1 > 0
        E = PointSet(F32, mask)
        along = [np.count_nonzero(h) for h in coset_counts(E, duals)]
        onto = [
            len({tuple(sum(a * b for a, b in zip(x, v)) % 3 for v in V.basis) for x in E.vectors()})
            for V in F32_DIRECTIONS
        ]
        assert along == onto


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


@given(
    st.fractions(min_value=0, max_value=10**4, max_denominator=60),
    st.sampled_from([1, 2, 3, 5, 7, 31, 101]),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(min_value=-5, max_value=50, max_denominator=24),
    st.integers(0, 10**4),
    st.integers(1, 12),
)
@example(Fraction(0), 2, Fraction(3, 2), Fraction(0), 0, 10)  # value 0, coeff 0
@example(Fraction(0), 5, Fraction(-1, 2), Fraction(-3, 4), 1, 3)  # a negative coeff
@example(Fraction(1), 7, Fraction(0), Fraction(1, 3), 0, 1)  # exponent 0: a tie
@example(Fraction(1, 25), 5, Fraction(-2), Fraction(1, 25), 1, 1)  # ties below 1
@example(Fraction(3, 2), 2, Fraction(-1, 3), Fraction(7, 5), 2, 7)
@settings(max_examples=300, deadline=None)
def test_integer_bound_decisions_match_the_fraction_ones(
    value, base, exponent, coeff, observed, divisor
):
    assert compare_to_power(value, base, exponent) == fraction_compare_to_power(
        value, base, exponent
    )
    bound = ExactBound(coeff, base, exponent)
    assert bound.satisfied_by(observed) == fraction_satisfied_by(bound, observed)
    # the search finds the largest k with k divisor <= base^exponent, by the old decisions
    if exponent >= 0 and base > 1 and exponent <= 4:
        k = floor_power_quotient(base, exponent, divisor)
        assert fraction_compare_to_power(Fraction(k * divisor), base, exponent) <= 0
        assert fraction_compare_to_power(Fraction((k + 1) * divisor), base, exponent) > 0


def test_exact_bound_decisions_refuse_a_negative_quotient():
    for decide in (
        lambda: compare_to_power(Fraction(-1, 3), 3, Fraction(1, 2)),
        lambda: ExactBound(Fraction(2), 3, Fraction(1)).satisfied_by(-1),
    ):
        with pytest.raises(ValueError, match="value must be nonnegative"):
            decide()


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
