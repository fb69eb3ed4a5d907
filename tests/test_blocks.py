"""Array-native Grassmannian sweeps: RREF blocks, label-map blocks and the batched dual."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj import subspaces
from ffproj.core import AmbientSpace, BudgetError, PointSet, is_prime
from ffproj.energy import energy_over_all_planes, verify_energy_identity_fourier
from ffproj.fourier import dft
from ffproj.projections import coset_counts, projection_sizes
from ffproj.random_sets import PercolationModel, percolation_sample
from ffproj.subspaces import (
    Subspace,
    SubspaceArray,
    _residue_codes,
    enumerate_grassmannian,
    gaussian_binomial,
    grassmannian_blocks,
    label_maps,
    perp,
    rref_mod_p,
    rref_stack,
)

from oracles import brute_coset_counts, brute_perp, span_points


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


@given(_cells(), st.sampled_from([1, 2, 3, 5, 64]), st.sampled_from([1, 200, 1 << 20]))
@example((2, 4, 2), 2, 1)
@example((3, 3, 1), 3, 200)
@settings(max_examples=60, deadline=None)
def test_grassmannian_blocks_match_enumeration(cell, rows, cap):
    p, n, k = cell
    space = AmbientSpace(p, n)
    reference = _template_grassmannian(p, n, k)
    assert len(reference) == gaussian_binomial(n, k, p)
    with pytest.MonkeyPatch.context() as mp:
        # a small cap splits the default blocks inside a pivot pattern
        mp.setattr(subspaces, "_KERNEL_BYTES", cap)
        validated = [W.basis for W in enumerate_grassmannian(space, k)]
        default_blocks = list(grassmannian_blocks(space, k))
    blocks = list(grassmannian_blocks(space, k, rows))
    for chunked, limit in ((blocks, rows), (default_blocks, max(1, cap // (16 * n * n)))):
        got = []
        for bases, pivots in chunked:
            assert bases.dtype == np.int64 and bases.shape[1:] == (k, n)
            assert 1 <= len(bases) <= limit
            block = [tuple(map(tuple, b)) for b in bases.tolist()]
            for basis in block:  # Subspace() rejects a basis not in RREF with these pivots
                Subspace(space, basis, pivots)
            got += block
        assert got == reference
    assert validated == reference
    assert [tuple(map(tuple, b)) for b in SubspaceArray.grassmannian(space, k).bases.tolist()] \
        == reference


def test_grassmannian_blocks_check_the_budget_at_the_call():
    space = AmbientSpace(3, 2)
    with pytest.raises(subspaces.BudgetError, match=r"G\(2,1\) over F_3 has 4 elements"):
        grassmannian_blocks(space, 1, budget=3)
    with pytest.raises(ValueError):
        grassmannian_blocks(space, 3)


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
    maps = np.concatenate(list(array.label_map_blocks(3)))
    each = [label_maps(W.matrix[None], W.pivots, 3)[0] for W in listed]
    assert np.array_equal(maps, np.stack(each))


@given(_cells(), st.sampled_from([1, 4, 1000]))
@settings(max_examples=40, deadline=None)
def test_batched_dual_is_perp(cell, rows):
    p, n, k = cell
    space = AmbientSpace(p, n)
    directions = list(enumerate_grassmannian(space, k))
    duals = []
    for bases, pivots in grassmannian_blocks(space, k, rows):
        dual_bases, dual_pivots = rref_stack(label_maps(bases, pivots, p).transpose(0, 2, 1), p)
        assert dual_bases.shape == (len(bases), n - k, n)
        duals += [Subspace(space, tuple(map(tuple, b)), tuple(piv))
                  for b, piv in zip(dual_bases.tolist(), dual_pivots.tolist())]
    assert duals == [perp(W) for W in directions]
    if p**n <= 27:
        for W, P in zip(directions, duals):
            assert span_points(P.basis, p, n) == brute_perp(span_points(W.basis, p, n), p, n)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_rref_stack_matches_rref_mod_p(p, n, data):
    r = data.draw(st.integers(0, n))
    mats = data.draw(st.lists(
        st.lists(st.lists(st.integers(-p, 2 * p), min_size=n, max_size=n),
                 min_size=r, max_size=r),
        min_size=1, max_size=6,
    ))
    full_rank = [m for m in mats if len(rref_mod_p(m, p, n)[0]) == r]
    if not full_rank:
        return
    stack = np.array(full_rank, dtype=np.int64).reshape(len(full_rank), r, n)
    bases, pivots = rref_stack(stack, p)
    for m, basis, piv in zip(full_rank, bases.tolist(), pivots.tolist()):
        assert (tuple(map(tuple, basis)), tuple(piv)) == rref_mod_p(m, p, n)


def test_rref_stack_rejects_rank_deficient_stacks():
    with pytest.raises(subspaces.IdentityError):
        rref_stack(np.array([[[1, 2], [2, 4]]]), 5)


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


def _per_direction_spectral(E, m):
    """The spectral energy summed one dual at a time, as perp(V).point_indices() orders it.

    Also returns whether that float sum rounds: whether it differs from the
    correctly rounded sum of the same terms.
    """
    space, p = E.space, E.space.p
    power = np.abs(dft(E).values) ** 2
    lhs, terms = 0.0, []
    for V in enumerate_grassmannian(space, m):
        dual = power[perp(V).point_indices()]
        lhs += float(dual.sum())
        terms += dual.tolist()
    return lhs * float(Fraction(p**m, p**space.n)), lhs != math.fsum(terms)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (7, 2), (5, 3), (11, 2), (23, 2)])
def test_spectral_energy_is_bit_identical_to_the_perp_loop(monkeypatch, p, n):
    space = AmbientSpace(p, n)
    rounded = 0
    for trial in range(3):
        E = percolation_sample(PercolationModel(space, 0.4, seed=p * n), trial)
        for m in range(n + 1):
            expected, rounds = _per_direction_spectral(E, m)
            rounded += rounds
            for cap in (1 << 20, 1):  # the default blocks, and one dual per block
                monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
                assert verify_energy_identity_fourier(E, m)[0] == expected  # not merely close
    # over F_2 every character is +-1 and the sums are exact; elsewhere they
    # round, so the summation order is exercised
    assert rounded or p == 2


def test_residue_codes_are_exact_at_the_float64_edge():
    p = 67108859  # the largest prime <= 2^26 + 1
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, 2**26 + 2))
    assert 2 * (p - 1) ** 2 < 2**53 <= 3 * (p - 1) ** 2
    space = AmbientSpace(p, 2, max_points=p**2)  # a codec only: no point set is built
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


def test_residue_codes_refuse_an_inexact_product_before_allocating():
    p = 67108859
    space = AmbientSpace(p, 3, max_points=p**3)  # 3 (p-1)^2 >= 2^53
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
