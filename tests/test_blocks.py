"""Array-native Grassmannian sweeps: RREF blocks, label-map blocks and the batched dual."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj import core, subspaces
from ffproj.core import AmbientSpace, BudgetError, IdentityError, PointSet, is_prime
from ffproj.energy import (
    energy_identity_closed_form,
    energy_over_all_planes,
    verify_energy_identity_fourier,
)
from ffproj.projections import coset_counts, projection_sizes
from ffproj.random_sets import PercolationModel, percolation_sample
from ffproj.subspaces import (
    Subspace,
    SubspaceArray,
    _dual_bases,
    _dual_generators,
    _pivot_columns,
    _point_blocks,
    _residue_codes,
    enumerate_grassmannian,
    gaussian_binomial,
    label_maps,
    perp,
    rref_stack,
)

from oracles import (
    brute_coset_counts,
    brute_perp,
    loop_spectral_energy,
    ordered_span_indices,
    rref_fault,
    span_points,
)


def _template_grassmannian(p, n, k):
    """RREF bases of G(n, k) by filling each pivot pattern's free entries, one at a time."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(n) if j > pivots[i] and j not in pivots]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, piv in enumerate(pivots):
                rows[i][piv] = 1
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            out.append(tuple(map(tuple, rows)))
    return out


@st.composite
def _cells(draw, primes=(2, 3, 5, 7), max_n=4):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    if p == 7 and n == 4:
        n = 3  # G(4, 2) over F_7 has 2850 elements; keep examples quick
    k = draw(st.integers(0, n))
    return p, n, k


@given(_cells(), st.sampled_from([1, 200, 1 << 20]))
@example((2, 4, 2), 1)
@example((3, 3, 1), 200)
@settings(max_examples=60, deadline=None)
def test_pattern_blocks_match_enumeration(cell, cap):
    p, n, k = cell
    space = AmbientSpace(p, n)
    reference = _template_grassmannian(p, n, k)
    assert len(reference) == gaussian_binomial(n, k, p)
    with pytest.MonkeyPatch.context() as mp:
        # a small cap splits the blocks inside a pivot pattern
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)
        validated = [W.basis for W in enumerate_grassmannian(space, k)]
        blocks = list(subspaces._pattern_blocks(space, k))
        array = SubspaceArray.grassmannian(space, k)
    got = []
    for bases in blocks:
        assert bases.dtype == np.int64 and bases.shape[1:] == (k, n)
        assert 1 <= len(bases) <= max(1, cap // (16 * n * n))
        assert len({tuple(piv) for piv in _pivot_columns(bases).tolist()}) == 1
        got += [tuple(map(tuple, b)) for b in bases.tolist()]
    assert got == reference
    assert validated == reference
    assert [tuple(map(tuple, b)) for b in array.bases.tolist()] == reference


def test_grassmannian_checks_the_budget_at_the_call(monkeypatch):
    monkeypatch.setenv("FFPROJ_BUDGET", "3")
    space = AmbientSpace(3, 2)
    with pytest.raises(subspaces.BudgetError, match=r"G\(2,1\) over F_3 has 4 elements"):
        SubspaceArray.grassmannian(space, 1)
    with pytest.raises(ValueError):
        SubspaceArray.grassmannian(space, 3)


def test_subspace_array_is_a_sequence_of_subspaces():
    space = AmbientSpace(3, 3)
    array = SubspaceArray.grassmannian(space, 1)
    listed = list(enumerate_grassmannian(space, 1))
    assert len(array) == 13 and array.dim == 1
    assert array == listed and list(array) == listed
    assert array[4] == listed[4] and array[-1] == listed[-1]
    assert array[2:5] == listed[2:5] and isinstance(array[2:5], SubspaceArray)
    assert listed[7] in array and array.index(listed[7]) == 7
    assert array != SubspaceArray.grassmannian(space, 2)
    assert not array.bases.flags.writeable
    maps = np.concatenate(list(array.label_map_blocks()))
    each = [label_maps(W.matrix[None], 3)[0] for W in listed]
    assert np.array_equal(maps, np.stack(each))


@given(_cells(), st.sampled_from([1, 300, 1100, 1 << 20]), st.randoms(use_true_random=False))
@example((2, 4, 1), 1100, random.Random(0))  # map blocks of 11, dual chunks of 2
@settings(max_examples=40, deadline=None)
def test_batched_dual_is_perp(cell, cap, rng):
    p, n, k = cell
    space = AmbientSpace(p, n)
    directions = list(enumerate_grassmannian(space, k))
    rng.shuffle(directions)  # every block mixes pivot patterns
    array = SubspaceArray.of(space, directions)
    assert array.pivots.tolist() == [list(W.pivots) for W in directions]
    dual_bases = rref_stack(label_maps(array.bases, p).transpose(0, 2, 1), p)
    assert dual_bases.shape == (len(directions), n - k, n)
    assert rref_fault(dual_bases, p) is None  # each dual basis is in canonical RREF form
    duals = [Subspace(space, b) for b in dual_bases.tolist()]
    for W, P in zip(directions, duals):
        # x is orthogonal to W iff it is orthogonal to W's basis rows
        assert span_points(P.basis, p, n) == brute_perp(W.basis, p, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)  # small caps split map blocks and chunks
        dual_array = _dual_bases(array)
        blocks = list(_point_blocks(dual_array))
    assert list(dual_array) == duals
    assert all(b.flags.c_contiguous for b in blocks)
    assert np.concatenate(blocks).tolist() == [ordered_span_indices(P.basis, p, n) for P in duals]


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 4), st.data())
@example(2, 3, None)  # every G(3, d) over F_2, in one call
@settings(max_examples=60, deadline=None)
def test_batched_duals_are_the_per_array_duals_and_perp(p, n, data):
    space = AmbientSpace(p, n)
    if data is None:
        arrays = [SubspaceArray.grassmannian(space, d) for d in range(n + 1)]
    else:  # random canonical stacks of mixed dimensions, the zero and full subspaces among them
        arrays = []
        for d in data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4)):
            G = SubspaceArray.grassmannian(space, d)
            picks = data.draw(st.lists(st.integers(0, len(G) - 1), max_size=5))
            arrays.append(SubspaceArray._unchecked(space, G.bases[picks]))
    batched = _dual_bases(arrays)
    assert len(batched) == len(arrays)
    for G, duals in zip(arrays, batched):
        alone = _dual_bases(G)
        assert duals.bases.shape == (len(G), n - G.dim, n)
        assert np.array_equal(duals.bases, alone.bases)
        assert SubspaceArray(space, duals.bases) == duals  # every dual basis is canonical
        assert list(duals) == [perp(W) for W in G]  # row for row
        if len(G):  # the generators are the rows of Q_W^T
            generators = _dual_generators(G.bases, True) % p
            assert np.array_equal(generators, label_maps(G.bases, p).transpose(0, 2, 1))
        if p**n <= 125:
            for W, P in zip(G, duals):
                assert span_points(P.basis, p, n) == brute_perp(W.basis, p, n)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_rref_stack_is_the_canonical_basis_of_the_span(p, n, data):
    r = data.draw(st.integers(0, n))
    mats = data.draw(st.lists(
        st.lists(st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                 min_size=r, max_size=r),
        min_size=1, max_size=6,
    ))
    space = AmbientSpace(p, n)
    bases = rref_stack(np.array(mats, dtype=np.int64).reshape(len(mats), r, n), p)
    for m, basis in zip(mats, bases.tolist()):
        rank = sum(map(any, basis))
        assert not any(map(any, basis[rank:]))  # a rank-deficient matrix ends in zero rows
        assert rref_fault([basis[:rank]], p) is None  # the canonical RREF form
        W = Subspace(space, basis[:rank])
        residues = [[c % p for c in row] for row in m]
        assert span_points(W.basis, p, n) == span_points(residues, p, n)


def test_rref_stack_ends_rank_deficient_matrices_in_zero_rows():
    mats = np.array([
        [[1, 2, 0], [2, 4, 0], [0, 0, 3]],
        [[0, 0, 0], [0, 2, 1], [0, 4, 2]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ])
    assert rref_stack(mats, 5).tolist() == [
        [[1, 2, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 1, 3], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]


def test_rref_stack_inverts_only_its_pivots_at_large_p():
    p = 1000003  # a table of every inverse mod p would take 8 MB
    tracemalloc.start()
    try:
        bases = rref_stack(np.array([[[0, 5, 7], [3, 1, 0]]]), p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    inv3, inv5 = pow(3, -1, p), pow(5, -1, p)
    assert bases.tolist() == [[[1, 0, -inv3 * 7 * inv5 % p], [0, 1, 7 * inv5 % p]]]


def test_dual_bases_refuse_a_zero_row(monkeypatch):
    real = subspaces.rref_stack

    def zeroes_the_last_row(mats, p):
        bases = real(mats, p)
        bases[:, -1] = 0
        return bases

    monkeypatch.setattr(subspaces, "rref_stack", zeroes_the_last_row)
    with pytest.raises(IdentityError, match="rank-deficient dual basis"):
        _dual_bases(SubspaceArray.grassmannian(AmbientSpace(3, 3), 1))


@st.composite
def _sets(draw):
    p, n, k = draw(_cells(primes=(2, 3, 5), max_n=3))
    mask = draw(st.lists(st.booleans(), min_size=p**n, max_size=p**n))
    cap = draw(st.sampled_from([0, 300, 1 << 20]))
    return p, n, np.array(mask), cap


@given(_sets())
@example((3, 3, np.arange(27) % 4 == 0, 0))
@example((2, 3, np.zeros(8, dtype=bool), 300))
@settings(max_examples=50, deadline=None)
def test_block_fed_sweeps_match_brute_force(case):
    p, n, mask, cap = case
    space = AmbientSpace(p, n)
    E = PointSet(space, mask)
    vectors = E.vectors()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)  # small caps split every sweep
        energies = [energy_over_all_planes(E, d) for d in range(n + 1)]
        sweeps = {m: projection_sizes(E, m) for m in range(1, n)}
    for d in range(n + 1):
        expected = 0
        for W in enumerate_grassmannian(space, d):
            counts = brute_coset_counts(vectors, span_points(W.basis, p, n), p, n)
            expected += sum(c * c for c in counts)
            if 1 <= n - d <= n - 1:
                directions, sizes = sweeps[n - d]
                i = directions.index(W)
                assert sizes[i] == sum(1 for c in counts if c)
        assert energies[d] == expected
    for m, (directions, sizes) in sweeps.items():
        assert isinstance(directions, SubspaceArray)
        assert directions == list(enumerate_grassmannian(space, n - m))
        assert sizes.dtype == np.int64 and len(sizes) == len(directions)
        listed = [int(np.count_nonzero(h)) for h in coset_counts(E, list(directions))]
        assert sizes.tolist() == listed


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2), (5, 3), (11, 2), (23, 2)])
def test_spectral_energy_equals_the_perp_loop_oracle(monkeypatch, p, n):
    space = AmbientSpace(p, n)
    for trial in range(3):
        E = percolation_sample(PercolationModel(space, 0.4, seed=p * n), trial)
        for m in range(n + 1):
            bases = [W.basis for W in enumerate_grassmannian(space, m)]
            expected = loop_spectral_energy(E.vectors(), bases, p, n, m)
            assert expected == energy_identity_closed_form(space, E.cardinality, m)
            for cap in (1 << 20, 1):  # the default blocks, and one hyperplane per block
                monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
                assert verify_energy_identity_fourier(E, m) == (expected, expected, True)


def test_residue_codes_are_exact_at_the_float64_edge(monkeypatch):
    p = 67108859  # the largest prime <= 2^26 + 1
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, 2**26 + 2))
    assert 2 * (p - 1) ** 2 < 2**53 <= 3 * (p - 1) ** 2
    monkeypatch.setattr(core, "DEFAULT_POINT_BUDGET", p**2)
    space = AmbientSpace(p, 2)  # a codec only: no point set is built
    rng = np.random.default_rng(0)
    rows = np.concatenate([[[p - 1, p - 1], [0, 0], [1, p - 1]], rng.integers(0, p, (40, 2))])
    maps = np.concatenate([[[[p - 1, p - 1]] * 2] * 2, rng.integers(0, p, (2, 5, 2))], axis=1)
    codes = _residue_codes(space, rows.astype(np.float64), maps.astype(np.float64))
    # sum_j ((x . column j of map i) mod p) p^j in Python integers
    columns = maps.tolist()
    expected = [
        [sum(sum(a * b for a, b in zip(x, columns[j][i])) % p * p**j for j in range(2))
         for x in rows.tolist()]
        for i in range(maps.shape[1])
    ]
    assert codes.dtype == np.int64 and codes.flags.c_contiguous
    assert codes.tolist() == expected


def test_residue_codes_refuse_an_inexact_product_before_allocating(monkeypatch):
    p = 67108859
    monkeypatch.setattr(core, "DEFAULT_POINT_BUDGET", p**3)
    space = AmbientSpace(p, 3)  # 3 (p-1)^2 >= 2^53
    rows = np.ones((4096, 3))
    maps = np.ones((2, 256, 3))  # the product alone would take 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="2\\^53"):
            _residue_codes(space, rows, maps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
