import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffproj.core import AmbientSpace, BudgetError, PointSet, digits_of, encode
from ffproj.projections import coset_counts
from ffproj.subspaces import (
    Subspace,
    SubspaceArray,
    _dual_bases,
    _plane_reps,
    affine_count,
    check_range_condition,
    coset_labels,
    count_subspaces_containing,
    count_subspaces_with_perp_containing,
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
    brute_cosets_hit,
    brute_containment_counts,
    brute_perp,
    brute_plane,
    brute_subspace_pointsets,
    int64_coset_labels,
    rref_fault,
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


def test_enumeration_budget_refusal(monkeypatch):
    monkeypatch.setenv("FFPROJ_BUDGET", "10")
    space = AmbientSpace(5, 3)
    with pytest.raises(BudgetError):
        list(enumerate_grassmannian(space, 1))


def test_enumeration_budget_is_checked_at_the_call(monkeypatch):
    monkeypatch.setenv("FFPROJ_BUDGET", "3")
    space = AmbientSpace(3, 2)
    # no next(): the call itself refuses, so a lazy caller cannot slip past
    with pytest.raises(BudgetError, match=r"G\(2,1\) over F_3 has 4 elements, over budget 3"):
        enumerate_grassmannian(space, 1)


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
    for p, n, m, count in [(3, 2, 1, 12), (2, 2, 2, 1), (2, 3, 2, 14), (3, 3, 1, 117)]:
        space = AmbientSpace(p, n)
        cosets = [
            plane
            for W in enumerate_grassmannian(space, m)
            for plane in brute_cosets_hit(all_vectors(p, n), W.point_set().vectors(), p)
        ]
        assert affine_count(space, m) == len(set(cosets)) == count


def _planes_through_each_point(p, n, m):
    """Per point x of F_p^n, the planes of A(n, m) through it: the nonzero bins of {x}'s histograms.

    Every histogram of a singleton must have a single nonzero bin, equal to 1.
    """
    space = AmbientSpace(p, n)
    G = SubspaceArray.grassmannian(space, m)
    for index in range(space.point_count):
        histograms = np.array(list(coset_counts(PointSet.from_indices(space, [index]), G)))
        assert (np.count_nonzero(histograms, axis=1) == 1).all()
        assert (histograms.max(axis=1) == 1).all()
        yield int(histograms.sum())


def test_each_point_on_constant_number_of_lines():
    assert list(_planes_through_each_point(3, 2, 1)) == [4] * 9


def test_each_point_on_gaussian_binomial_planes():
    # one coset of each direction passes through any fixed point
    for p, n, m in [(3, 2, 1), (2, 3, 1), (2, 3, 2)]:
        assert set(_planes_through_each_point(p, n, m)) == {gaussian_binomial(n, m, p)}


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


def _reps(W, labels):
    """Canonical representatives of the cosets ``labels`` of one ``Subspace`` W, as tuples."""
    directions = SubspaceArray.of(W.space, [W] * len(labels))
    return [tuple(rep) for rep in _plane_reps(directions, np.array(labels)).tolist()]


def test_plane_reps_examples():
    space = AmbientSpace(3, 2)
    W = Subspace.from_rows(space, [(1, 0)])
    vectors = [(2, 0), (2, 1), (0, 1)]
    label_20, label_21, label_01 = coset_labels(W, [encode(space, v) for v in vectors])
    assert _reps(W, [label_20]) == [(0, 0)]
    assert label_21 == label_01 and _reps(W, [label_21]) == [(0, 1)]
    zero = Subspace.zero(space)
    assert _reps(zero, list(range(9))) == all_vectors(3, 2)  # labels are the point indices
    assert _plane_reps(SubspaceArray.of(space, []), np.zeros(0, dtype=np.int64)).shape == (0, 2)


def test_cosets_partition_space():
    space = AmbientSpace(3, 2)
    for m in range(3):
        for W in enumerate_grassmannian(space, m):
            planes = [brute_plane(W.basis, rep, 3, 2) for rep in _reps(W, range(3 ** (2 - m)))]
            assert all(len(P) == 3**m for P in planes)
            assert frozenset().union(*planes) == frozenset(all_vectors(3, 2))
            assert sum(map(len, planes)) == 9  # disjoint


def test_same_coset_iff_difference_in_subspace():
    space = AmbientSpace(3, 2)
    vectors = all_vectors(3, 2)
    for W in enumerate_grassmannian(space, 1):
        labels = coset_labels(W, [encode(space, v) for v in vectors]).tolist()
        for u, lu in zip(vectors, labels):
            for v, lv in zip(vectors, labels):
                diff = tuple((a - b) % 3 for a, b in zip(u, v))
                assert (lu == lv) == W.contains(diff)


def test_coset_labels_consistent_with_plane_labels():
    space = AmbientSpace(5, 2)
    W = Subspace.from_rows(space, [(1, 3)])
    idx = np.arange(space.point_count)
    labels = coset_labels(W, idx)
    assert np.array_equal(labels, int64_coset_labels(W, idx))
    assert sorted(set(labels.tolist())) == list(range(5))
    for label, rep in enumerate(_reps(W, range(5))):
        for x in brute_plane(W.basis, rep, 5, 2):
            assert labels[encode(space, x)] == label


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_plane_reps_decode_the_oracle_label(p, n):
    space = AmbientSpace(p, n)
    vectors = all_vectors(p, n)
    indices = [encode(space, x) for x in vectors]
    for k in range(n + 1):
        for W in enumerate_grassmannian(space, k):
            labels = int64_coset_labels(W, indices).tolist()
            reps = _reps(W, labels)
            assert coset_labels(W, [encode(space, rep) for rep in reps]).tolist() == labels
            for x, label, rep in zip(vectors, labels, reps):
                assert not any(rep[t] for t in W.pivots)  # canonical: 0 on the pivots
                assert x in brute_plane(W.basis, rep, p, n)
                assert W.contains(x) == (label == 0)


def test_from_rows_reduces_entries_beyond_int64_and_negative_ones():
    space = AmbientSpace(5, 3)
    W = Subspace.from_rows(space, [(10**29 + 1, 0, -1), (-3, 2**70, 0)])
    # mod 5 the rows are (1, 0, 4) and (2, 4, 0)
    assert W == Subspace.from_rows(space, [(1, 0, 4), (2, 4, 0)])
    assert span_points(W.basis, 5, 3) == span_points([(1, 0, 4), (2, 4, 0)], 5, 3)
    assert Subspace.from_rows(space, [(-5, 10**40, 0)]) == Subspace.zero(space)


def test_from_rows_refuses_non_integral_entries():
    space = AmbientSpace(5, 2)
    with pytest.raises(ValueError, match=r"rows\[1\]\[0\] = 2.5 is not an integer"):
        Subspace.from_rows(space, [(1, 0), (2.5, 1)])  # int() would read span{(1, 0), (2, 1)}
    assert Subspace.from_rows(space, [(1.0, 2**70)]) == Subspace.from_rows(space, [(1, 2**70 % 5)])


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


_NON_CANONICAL = [
    ([[[0, 0]]], "zero row"),  # once died in a reshape of the label maps
    ([[[1, 3]]], "residues"),
    ([[[1, -1]]], "residues"),
    ([[[0, 1], [1, 0]]], "strictly increase"),
    ([[[2, 1]]], "unit column"),
    ([[[1, 1], [0, 1]]], "unit column"),
]


@pytest.mark.parametrize("bases,message", _NON_CANONICAL)
def test_subspace_array_refuses_non_canonical_bases(bases, message):
    with pytest.raises(ValueError, match=message):
        SubspaceArray(AmbientSpace(3, 2), np.array(bases))


@pytest.mark.parametrize("bases,message", _NON_CANONICAL + [([[[1, 2**70]]], "residues")])
def test_subspace_and_its_parser_refuse_what_the_array_refuses(bases, message):
    space, (basis,) = AmbientSpace(3, 2), bases
    with pytest.raises(ValueError, match=message):
        Subspace(space, basis)
    text = f"subspace p=3 n=2 m={len(basis)}\n" + "".join(f"{a},{b}\n" for a, b in basis)
    with pytest.raises(ValueError, match=message):
        parse_subspace(text)


@pytest.mark.parametrize("bases,message", [
    ([[[1, 1.5]]], r"bases\[0, 0, 1\] = 1.5 is not an integer"),  # once read as span{(1, 1)}
    ([[[1, 0]], [[float("nan"), 1]]], r"bases\[1, 0, 0\] = nan is not an integer"),
    ([[[1, "2"]]], r"bases\[0, 0, 0\] = '1' is not an integer"),
])
def test_subspace_array_refuses_non_integral_entries(bases, message):
    with pytest.raises(ValueError, match=message):
        SubspaceArray(AmbientSpace(3, 2), bases)


@pytest.mark.parametrize("bases,message", [
    # numpy's cast raised OverflowError
    ([[[1, 2**70]]], r"bases\[0, 0, 1\] = 1180591620717411303424 is outside the int64 range"),
    (np.array([[[1, 0]], [[0, 2**64 - 1]]], dtype=np.uint64),  # once wrapped to -1
     r"bases\[1, 0, 1\] = 18446744073709551615 is outside the int64 range"),
])
def test_subspace_array_refuses_entries_beyond_int64(bases, message):
    with pytest.raises(ValueError, match=message):
        SubspaceArray(AmbientSpace(3, 2), bases)


def test_subspace_refuses_non_integral_basis_entries():
    space = AmbientSpace(3, 2)
    # once kept, its matrix truncated to (1, 0) and its dual taken as span{(0, 1)}
    with pytest.raises(ValueError, match=r"basis\[0\]\[1\] = 0.5 is not an integer"):
        Subspace(space, ((1, 0.5),))
    W = Subspace(space, ((1.0, 2.0),))
    assert W == Subspace(space, ((1, 2),)) and type(W.basis[0][1]) is int


def test_subspace_array_takes_integral_floats():
    space = AmbientSpace(3, 2)
    assert SubspaceArray(space, [[[1.0, 2.0]]]) == SubspaceArray(space, [[[1, 2]]])


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
    assert count_subspaces_containing(f32, (1, 0), 1) == 1
    assert count_subspaces_with_perp_containing(f32, (2, 1), 1) == 1
    f23 = AmbientSpace(2, 3)
    assert count_subspaces_containing(f23, (1, 0, 0), 2) == 3


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_containment_counts_exhaustive(p, n):
    space = AmbientSpace(p, n)
    for xi in all_vectors(p, n)[1:]:
        for m in range(1, n + 1):
            assert count_subspaces_containing(space, xi, m) == brute_containment_counts(p, n, m)[xi][0]
        for m in range(n):
            assert (count_subspaces_with_perp_containing(space, xi, m)
                    == brute_containment_counts(p, n, m)[xi][1])


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


def test_enumeration_order_deterministic():
    space = AmbientSpace(3, 2)
    first = [W.basis for W in enumerate_grassmannian(space, 1)]
    second = [W.basis for W in enumerate_grassmannian(space, 1)]
    assert first == second
    assert first[0] == ((1, 0),)  # pivot pattern (0,) comes first


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (2, 4)])
def test_rref_faults_agree_with_the_row_by_row_check(p, n):
    from ffproj import subspaces

    rng = np.random.default_rng(p * 10 + n)
    space = AmbientSpace(p, n)
    arrays = [SubspaceArray.grassmannian(space, d) for d in range(n + 1)]
    assert subspaces._rref_faults([G.bases for G in arrays], p) == [None] * (n + 1)
    for _ in range(200):
        mutated = []
        for G in arrays:
            bases = G.bases.copy()
            if bases.size and rng.random() < 0.7:
                g, i, j = (rng.integers(s) for s in bases.shape)
                change = rng.integers(4)
                if change == 0:  # any value, a residue or not
                    bases[g, i, j] = rng.integers(-1, p + 1)
                elif change == 1:
                    bases[g, i] = 0
                elif change == 2:
                    bases[g] = bases[g, ::-1]
                else:
                    bases[g, i] = (bases[g, i] + bases[g, (i + 1) % len(bases[g])]) % p
            mutated.append(bases)
        for bases, fault in zip(mutated, subspaces._rref_faults(mutated, p)):
            word = rref_fault(bases, p)
            assert fault is None if word is None else word in fault
