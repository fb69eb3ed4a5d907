import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffproj.core import AmbientSpace, BudgetError, digits_of, encode
from ffproj.subspaces import (
    AffinePlane,
    Subspace,
    SubspaceArray,
    _dual_bases,
    affine_count,
    all_cosets,
    check_range_condition,
    coset_labels,
    coset_of,
    coset_reps,
    count_subspaces_containing,
    count_subspaces_with_perp_containing,
    enumerate_affine,
    enumerate_grassmannian,
    gaussian_binomial,
    label_maps,
    load_subspace,
    parse_subspace,
    perp,
    save_subspace,
    serialize_subspace,
    verify_pascal_identities,
)

from oracles import (
    all_vectors,
    brute_perp,
    brute_subspace_pointsets,
    int64_coset_labels,
    span_points,
)


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(4, 2, 2) == 35
    for n, p in [(1, 2), (3, 3), (4, 5)]:
        assert gaussian_binomial(n, 0, p) == 1
        assert gaussian_binomial(n, n, p) == 1


def test_gaussian_binomial_contract():
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 3)
    with pytest.raises(ValueError):
        gaussian_binomial(2, -1, 3)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_binomial_matches_brute_spans(p, n):
    for m in range(n + 1):
        assert gaussian_binomial(n, m, p) == len(brute_subspace_pointsets(p, n, m))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_count_and_uniqueness(p):
    for n in range(1, 5):
        space = AmbientSpace(p, n)
        for m in range(n + 1):
            subs = list(enumerate_grassmannian(space, m))
            assert len(subs) == gaussian_binomial(n, m, p)
            assert len(set(subs)) == len(subs)
            for W in subs[:20]:
                assert W.dim == m


def test_enumerated_pointsets_match_brute():
    space = AmbientSpace(3, 2)
    for m in range(3):
        oracle = brute_subspace_pointsets(3, 2, m)
        mine = {
            frozenset(tuple(v) for v in W.point_set().vectors())
            for W in enumerate_grassmannian(space, m)
        }
        assert mine == oracle


def test_enumeration_budget_refusal():
    space = AmbientSpace(5, 3)
    with pytest.raises(BudgetError):
        list(enumerate_grassmannian(space, 1, budget=10))


def test_enumeration_budget_is_checked_at_the_call():
    space = AmbientSpace(3, 2)
    # no next(): the call itself refuses, so a lazy caller cannot slip past
    with pytest.raises(BudgetError, match=r"G\(2,1\) over F_3 has 4 elements, over budget 3"):
        enumerate_grassmannian(space, 1, budget=3)
    with pytest.raises(BudgetError, match=r"A\(2,1\) over F_3 has 12 elements, over budget 5"):
        enumerate_affine(space, 1, budget=5)
    assert len(list(enumerate_affine(space, 1, budget=12))) == 12


def test_range_condition_examples():
    assert check_range_condition(2, 1, 3)
    assert check_range_condition(2, 1, 2)
    assert not check_range_condition(4, 2, 2)  # 35 > 2*16


def test_pascal_identities_examples():
    assert verify_pascal_identities(3, 1, 3)  # 13 = 4 + 9*1
    assert verify_pascal_identities(2, 1, 2)  # 3 = 1 + 2*1
    assert verify_pascal_identities(4, 2, 2)  # 35 = 7 + 4*7
    for p in (2, 3, 5):
        for n in range(2, 5):
            for m in range(1, n):
                assert verify_pascal_identities(n, m, p)


def test_affine_enumeration_counts():
    assert len(list(enumerate_affine(AmbientSpace(3, 2), 1))) == 12
    assert len(list(enumerate_affine(AmbientSpace(2, 2), 2))) == 1
    assert len(list(enumerate_affine(AmbientSpace(2, 3), 2))) == 14
    assert affine_count(AmbientSpace(2, 3), 2) == 14


def test_each_point_on_constant_number_of_lines():
    space = AmbientSpace(3, 2)
    lines = list(enumerate_affine(space, 1))
    for x in all_vectors(3, 2):
        assert sum(1 for line in lines if line.contains(x)) == 4


def test_each_point_on_gaussian_binomial_planes():
    # one coset of each direction passes through any fixed point
    for p, n, m in [(3, 2, 1), (2, 3, 1), (2, 3, 2)]:
        space = AmbientSpace(p, n)
        planes = list(enumerate_affine(space, m))
        for x in [(0,) * n, tuple(range(1, n + 1))]:
            x = tuple(c % p for c in x)
            hits = sum(1 for plane in planes if plane.contains(x))
            assert hits == gaussian_binomial(n, m, p)


def test_perp_examples():
    f22 = AmbientSpace(2, 2)
    W = Subspace.from_rows(f22, [(1, 1)])
    assert perp(W) == W

    f32 = AmbientSpace(3, 2)
    full = Subspace.full(f32)
    assert perp(full) == Subspace.zero(f32)

    W = Subspace.from_rows(f32, [(1, 0)])
    expected = brute_perp(frozenset(W.point_set().vectors()), 3, 2)
    assert frozenset(perp(W).point_set().vectors()) == expected
    assert perp(W).basis == ((0, 1),)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_perp_against_brute_force(p, n):
    space = AmbientSpace(p, n)
    for m in range(n + 1):
        for W in enumerate_grassmannian(space, m):
            pts = frozenset(W.point_set().vectors())
            assert frozenset(perp(W).point_set().vectors()) == brute_perp(pts, p, n)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_perp_involution_and_bijection(p, n):
    space = AmbientSpace(p, n)
    for m in range(n + 1):
        Gs = list(enumerate_grassmannian(space, m))
        perps = [perp(W) for W in Gs]
        assert all(P.dim == n - m for P in perps)
        assert all(perp(P) == W for W, P in zip(Gs, perps))
        assert set(perps) == set(enumerate_grassmannian(space, n - m))


def test_coset_of_examples():
    space = AmbientSpace(3, 2)
    W = Subspace.from_rows(space, [(1, 0)])
    assert coset_of(W, (2, 0)).rep == (0, 0)
    assert coset_of(W, (2, 1)) == coset_of(W, (0, 1))
    zero = Subspace.zero(space)
    reps = {coset_of(zero, v).rep for v in space.iter_vectors()}
    assert len(reps) == 9


def test_cosets_partition_space():
    space = AmbientSpace(3, 2)
    for m in range(3):
        for W in enumerate_grassmannian(space, m):
            planes = all_cosets(W)
            assert len(planes) == 3 ** (2 - m)
            seen = set()
            for plane in planes:
                pts = frozenset(int(i) for i in plane.point_indices())
                assert len(pts) == 3**m
                seen |= pts
            assert seen == set(range(9))


def test_same_coset_iff_difference_in_subspace():
    space = AmbientSpace(3, 2)
    vectors = all_vectors(3, 2)
    for W in enumerate_grassmannian(space, 1):
        for u in vectors:
            for v in vectors:
                diff = tuple((a - b) % 3 for a, b in zip(u, v))
                same = coset_of(W, u) == coset_of(W, v)
                assert same == W.contains(diff)


def test_coset_labels_consistent_with_plane_labels():
    space = AmbientSpace(5, 2)
    W = Subspace.from_rows(space, [(1, 3)])
    idx = np.arange(space.point_count)
    labels = coset_labels(W, idx)
    assert np.array_equal(labels, int64_coset_labels(W, idx))
    assert sorted(set(labels.tolist())) == list(range(5))
    for plane in all_cosets(W):
        for i in plane.point_indices():
            assert labels[int(i)] == plane.label()


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_coset_of_decodes_the_oracle_label(p, n):
    space = AmbientSpace(p, n)
    for k in range(n + 1):
        for W in enumerate_grassmannian(space, k):
            reps = list(coset_reps(W))
            for x in all_vectors(p, n):
                label = int(int64_coset_labels(W, [encode(space, x)])[0])
                plane = coset_of(W, x)
                assert plane.rep == reps[label] and plane.label() == label
                assert plane.contains(x) and W.contains(x) == (label == 0)


def test_from_rows_reduces_entries_beyond_int64_and_negative_ones():
    space = AmbientSpace(5, 3)
    W = Subspace.from_rows(space, [(10**29 + 1, 0, -1), (-3, 2**70, 0)])
    # mod 5 the rows are (1, 0, 4) and (2, 4, 0)
    assert W == Subspace.from_rows(space, [(1, 0, 4), (2, 4, 0)])
    assert span_points(W.basis, 5, 3) == span_points([(1, 0, 4), (2, 4, 0)], 5, 3)
    assert Subspace.from_rows(space, [(-5, 10**40, 0)]) == Subspace.zero(space)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2)])
def test_label_map_gives_coset_labels(p, n):
    space = AmbientSpace(p, n)
    idx = np.arange(space.point_count)
    digits = digits_of(space, idx)
    for k in range(n + 1):
        directions = SubspaceArray.grassmannian(space, k)
        blocks = np.concatenate(list(directions.label_map_blocks()))
        for W, Q in zip(directions, blocks):
            assert np.array_equal(Q, label_maps(W.matrix[None], p)[0])
            assert Q.shape == (n, n - k) and Q.dtype == np.float64
            labels = ((digits @ Q) % p) @ p ** np.arange(n - k)
            expected = int64_coset_labels(W, idx)
            assert np.array_equal(labels, expected)
            assert np.array_equal(coset_labels(W, idx), expected)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_subspace_array_of_round_trips(p, n):
    space = AmbientSpace(p, n)
    for k in range(n + 1):
        listed = list(enumerate_grassmannian(space, k))
        array = SubspaceArray.of(space, iter(listed))
        assert array == SubspaceArray.grassmannian(space, k) and list(array) == listed
        assert array.dim == k and array.bases.shape == (len(listed), k, n)
        assert SubspaceArray.of(space, array) is array
        assert list(SubspaceArray.of(space, listed[1::2])) == listed[1::2]
    empty = SubspaceArray.of(space, [])
    assert len(empty) == 0 and empty.bases.shape == (0, 0, n)


def test_subspace_array_of_rejects_foreign_and_mixed_subspaces():
    space, other = AmbientSpace(3, 2), AmbientSpace(5, 2)
    line, plane = Subspace.from_rows(space, [(1, 2)]), Subspace.full(space)
    with pytest.raises(ValueError, match="different spaces"):
        SubspaceArray.of(space, [line, Subspace.from_rows(other, [(1, 2)])])
    with pytest.raises(ValueError, match="different spaces"):
        SubspaceArray.of(space, SubspaceArray.grassmannian(other, 1))
    with pytest.raises(ValueError, match="mixes dimensions"):
        SubspaceArray.of(space, [line, plane])


def test_subspace_array_freezes_a_view_not_the_callers_array():
    space = AmbientSpace(3, 2)
    bases = np.array([[[1, 0]], [[1, 2]]], dtype=np.int64)
    array = SubspaceArray(space, bases)
    assert bases.flags.writeable and not array.bases.flags.writeable
    assert np.shares_memory(array.bases, bases)


@pytest.mark.parametrize("bases,message", [
    ([[[0, 0]]], "zero row"),  # once died in a reshape of the label maps
    ([[[1, 3]]], "residues"),
    ([[[1, -1]]], "residues"),
    ([[[0, 1], [1, 0]]], "strictly increase"),
    ([[[2, 1]]], "unit column"),
    ([[[1, 1], [0, 1]]], "unit column"),
])
def test_subspace_array_refuses_non_canonical_bases(bases, message):
    with pytest.raises(ValueError, match=message):
        SubspaceArray(AmbientSpace(3, 2), np.array(bases))


@pytest.mark.parametrize("p,message", [(2, "zero row"), (3, "unit column")])
def test_subspace_array_refuses_shifted_dual_bases(p, message):
    # the duals of G(3, 1) with their last column shifted by 1: over F_2 some rows vanish
    duals = _dual_bases(SubspaceArray.grassmannian(AmbientSpace(p, 3), 1))
    bases = duals.bases.copy()
    bases[..., -1] = (bases[..., -1] + 1) % p
    with pytest.raises(ValueError, match=message):
        SubspaceArray(duals.space, bases)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_subspace_array_accepts_every_canonical_stack(p, n):
    space = AmbientSpace(p, n)
    for k in range(n + 1):
        G = SubspaceArray.grassmannian(space, k)
        assert SubspaceArray(space, G.bases) == G
        assert SubspaceArray(space, _dual_bases(G).bases) == _dual_bases(G)


@st.composite
def _subspace_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    W = draw(st.sampled_from(list(enumerate_grassmannian(AmbientSpace(p, n), k))))
    return p, n, W


@given(_subspace_cases(), st.data())
@settings(max_examples=80, deadline=None)
def test_rref_is_canonical_for_any_spanning_set(case, data):
    p, n, W = case
    # random combinations of the basis rows, plus each basis row scaled
    coeffs = data.draw(st.lists(
        st.lists(st.integers(0, p - 1), min_size=W.dim, max_size=W.dim), max_size=3
    ))
    rows = (np.array(coeffs, dtype=np.int64).reshape(len(coeffs), W.dim) @ W.matrix % p).tolist()
    scales = data.draw(st.lists(st.integers(1, p - 1), min_size=W.dim, max_size=W.dim))
    rows += [[c * x % p for x in row] for c, row in zip(scales, W.basis)]
    rows = data.draw(st.permutations(rows))
    assert Subspace.from_rows(W.space, rows) == W


@given(_subspace_cases())
@settings(max_examples=80, deadline=None)
def test_perp_matches_brute_force_randomly(case):
    p, n, W = case
    expected = brute_perp(span_points(W.basis, p, n), p, n)
    assert span_points(perp(W).basis, p, n) == expected


def test_containment_count_examples():
    f32 = AmbientSpace(3, 2)
    assert count_subspaces_containing(f32, (1, 0), 1, verify=True) == 1
    assert count_subspaces_with_perp_containing(f32, (2, 1), 1, verify=True) == 1
    f23 = AmbientSpace(2, 3)
    assert count_subspaces_containing(f23, (1, 0, 0), 2, verify=True) == 3


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_containment_counts_exhaustive(p, n):
    from ffproj.core import decode

    space = AmbientSpace(p, n)
    for idx in range(1, space.point_count):
        xi = decode(space, idx)
        for m in range(1, n + 1):
            count_subspaces_containing(space, xi, m, verify=True)
        for m in range(n):
            count_subspaces_with_perp_containing(space, xi, m, verify=True)


def test_containment_count_rejects_zero():
    space = AmbientSpace(3, 2)
    with pytest.raises(ValueError):
        count_subspaces_containing(space, (0, 0), 1)


def test_rref_canonical_uniqueness():
    space = AmbientSpace(5, 3)
    W = Subspace.from_rows(space, [(1, 0, 2), (0, 1, 3)])
    V = Subspace.from_rows(space, [(1, 1, 0), (2, 1, 2)])  # same span, other generators
    assert frozenset(W.point_set().vectors()) == frozenset(V.point_set().vectors())
    assert W == V
    rows = W.matrix
    for i, piv in enumerate(W.pivots):
        assert rows[i, piv] == 1
        assert not rows[:, piv][np.arange(W.dim) != i].any()


def test_subspace_serialization_roundtrip(tmp_path):
    space = AmbientSpace(3, 3)
    W = Subspace.from_rows(space, [(1, 2, 0), (0, 0, 1)])
    path = tmp_path / "w.sub"
    save_subspace(W, path)
    assert load_subspace(path) == W
    assert serialize_subspace(W).splitlines()[0] == "subspace p=3 n=3 m=2"


def test_subspace_parse_rejects_non_canonical():
    text = "subspace p=3 n=2 m=1\n2,0\n"  # leading entry not 1
    with pytest.raises(ValueError):
        parse_subspace(text)


def test_affine_plane_rejects_bad_rep():
    space = AmbientSpace(3, 2)
    W = Subspace.from_rows(space, [(1, 0)])
    with pytest.raises(ValueError):
        AffinePlane(W, (1, 0))  # nonzero at pivot column


def test_enumeration_order_deterministic():
    space = AmbientSpace(3, 2)
    first = [W.basis for W in enumerate_grassmannian(space, 1)]
    second = [W.basis for W in enumerate_grassmannian(space, 1)]
    assert first == second
    assert first[0] == ((1, 0),)  # pivot pattern (0,) comes first
