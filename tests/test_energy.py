from fractions import Fraction

import numpy as np
import pytest

import ffproj.energy as energy_module
from ffproj.core import AmbientSpace, PointSet, encode
from ffproj.energy import (
    additive_energy,
    energy_identity_closed_form,
    energy_over_all_planes,
    family_energy,
    key_lemma_check,
    product_set,
    sum_lines,
    verify_energy_identity,
    verify_energy_identity_fourier,
)
from ffproj.projections import coset_counts
from ffproj.subspaces import Subspace, SubspaceArray, enumerate_grassmannian, gaussian_binomial

from oracles import (
    all_vectors,
    brute_additive_energy,
    brute_cosets_hit,
    brute_energy,
    brute_plane,
    int64_coset_labels,
)

F32 = AmbientSpace(3, 2)


def full_family(space, m):
    """A(n, m) as a family: each direction of G(n, m) once per coset label."""
    G = SubspaceArray.grassmannian(space, m)
    cosets = space.p ** (space.n - m)
    return SubspaceArray(space, G.bases.repeat(cosets, axis=0)), np.tile(np.arange(cosets), len(G))


def test_energy_empty_set():
    assert family_energy(PointSet.empty(F32), *full_family(F32, 1)) == 0
    assert family_energy(PointSet.full(F32), SubspaceArray.of(F32, []), []) == 0
    assert energy_over_all_planes(PointSet.empty(F32), 1) == 0


def test_energy_singleton_counts_planes_through_point():
    for p, n, m in [(3, 2, 1), (2, 3, 1), (2, 3, 2)]:
        space = AmbientSpace(p, n)
        E = PointSet.from_indices(space, [0])
        assert family_energy(E, *full_family(space, m)) == gaussian_binomial(n, m, p)


def test_energy_two_points_f32():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 2)])
    assert family_energy(E, *full_family(F32, 1)) == 10
    assert energy_over_all_planes(E, 1) == 10


def test_energy_matches_brute_force():
    """Random families, with repeated directions and repeated planes, for p in {2, 3, 5}, n <= 3."""
    rng = np.random.default_rng(10)
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            space = AmbientSpace(p, n)
            vectors = all_vectors(p, n)
            for m in range(n + 1):
                G = list(enumerate_grassmannian(space, m))
                for _ in range(3):
                    # each plane through a drawn point; the last two repeat the first two
                    picks = rng.integers(len(G), size=rng.integers(2, 10)).tolist()
                    points = rng.integers(len(vectors), size=len(picks)).tolist()
                    family = [(G[i], vectors[j]) for i, j in zip(picks, points)]
                    family += family[:2]
                    labels = [int(int64_coset_labels(W, [encode(space, x)])[0]) for W, x in family]
                    planes = [brute_plane(W.basis, x, p, n) for W, x in family]
                    directions = SubspaceArray.of(space, [W for W, _ in family])
                    E = PointSet(space, rng.random(space.point_count) < rng.uniform(0, 1))
                    assert family_energy(E, directions, labels) == brute_energy(E.vectors(), planes)


def test_energy_over_a_full_family_is_the_brute_sum():
    for p, n in [(2, 3), (3, 2), (3, 3), (5, 2)]:
        space = AmbientSpace(p, n)
        E = PointSet(space, np.random.default_rng(p * n).random(space.point_count) < 0.5)
        for m in range(n + 1):
            planes = [
                plane
                for W in enumerate_grassmannian(space, m)
                for plane in brute_cosets_hit(all_vectors(p, n), W.point_set().vectors(), p)
            ]
            expected = brute_energy(E.vectors(), planes)
            assert family_energy(E, *full_family(space, m)) == expected == energy_over_all_planes(E, m)


def test_energy_rejects_mixed_dimensions():
    mixed = list(enumerate_grassmannian(F32, 1)) + list(enumerate_grassmannian(F32, 2))
    with pytest.raises(ValueError, match="mixes dimensions"):
        family_energy(PointSet.full(F32), mixed, [0] * len(mixed))


def test_energy_checks_its_family():
    E = PointSet.full(F32)
    directions, labels = full_family(F32, 1)
    with pytest.raises(ValueError, match="11 coset labels for 12 directions"):
        family_energy(E, directions, labels[:11])
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=r"coset labels must lie in \[0, 3\)"):
            family_energy(E, directions, np.where(np.arange(12) == 5, bad, labels))
    with pytest.raises(ValueError, match="different spaces"):
        family_energy(PointSet.full(AmbientSpace(5, 2)), directions, labels)


def test_energy_refuses_non_integral_labels():
    E = PointSet.full(F32)
    G = SubspaceArray.grassmannian(F32, 1)
    with pytest.raises(ValueError, match=r"labels\[0\] = 1.7 is not an integer"):
        family_energy(E, G[:1], [1.7])  # once read plane 1
    with pytest.raises(ValueError, match=r"labels\[1\] = inf is not an integer"):
        family_energy(E, G[:2], np.array([0.0, np.inf]))
    assert family_energy(E, G[:1], [1.0]) == family_energy(E, G[:1], [1]) == 9


def test_energy_refuses_labels_beyond_int64():
    E = PointSet.full(F32)
    G = SubspaceArray.grassmannian(F32, 1)
    with pytest.raises(ValueError, match=r"labels\[0\] = 1180591620717411303424 is outside"):
        family_energy(E, G[:1], [2**70])  # numpy's cast raised OverflowError
    with pytest.raises(ValueError, match=r"labels\[1\] = 18446744073709551615 is outside"):
        family_energy(E, G[:2], np.array([0, 2**64 - 1], dtype=np.uint64))


def test_energy_monotone_in_family():
    rng = np.random.default_rng(11)
    directions, labels = full_family(F32, 1)
    for _ in range(10):
        E = PointSet(F32, rng.random(9) < 0.6)
        k = rng.integers(1, len(labels))
        smaller = family_energy(E, directions[:k], labels[:k])
        assert family_energy(E, directions[: k + 1], labels[: k + 1]) >= smaller


def test_identity_exhaustive_f32():
    for bits in range(512):
        E = PointSet(F32, (bits >> np.arange(9)) & 1 > 0)
        lhs, rhs, equal = verify_energy_identity(E, 1)
        assert equal, (bits, lhs, rhs)


@pytest.mark.parametrize("p,n", [(5, 2), (2, 3), (3, 3)])
def test_identity_random_draws(p, n):
    rng = np.random.default_rng(12)
    space = AmbientSpace(p, n)
    for _ in range(200):
        E = PointSet(space, rng.random(space.point_count) < rng.uniform(0, 1))
        for m in range(n + 1):
            lhs, rhs, equal = verify_energy_identity(E, m)
            assert equal, (p, n, m, E.cardinality, lhs, rhs)


def test_identity_closed_form_edges():
    # m = 0: planes are single points, energy = |E|; m = n: one plane, |E|^2
    space = AmbientSpace(3, 2)
    E = PointSet.from_vectors(space, [(0, 0), (1, 1), (2, 0)])
    assert energy_identity_closed_form(space, 3, 0) == 3
    assert energy_over_all_planes(E, 0) == 3
    assert energy_identity_closed_form(space, 3, 2) == 9
    assert energy_over_all_planes(E, 2) == 9


def test_identity_fourier_path():
    E = PointSet.from_vectors(F32, [(0, 0), (1, 2)])
    lhs, rhs, equal = verify_energy_identity_fourier(E, 1)
    assert equal and lhs == rhs == 10 and isinstance(lhs, Fraction)

    space = AmbientSpace(5, 2)
    from ffproj.fourier import paraboloid

    P = paraboloid(space)
    lhs, rhs, equal = verify_energy_identity_fourier(P, 1)
    assert equal and lhs == rhs
    with pytest.raises(ValueError, match="need 0 <= m <= n"):
        verify_energy_identity_fourier(P, 3)


def test_identity_fourier_random_draws():
    rng = np.random.default_rng(13)
    space = AmbientSpace(2, 3)
    for _ in range(50):
        E = PointSet(space, rng.random(8) < 0.5)
        for m in range(4):
            lhs, rhs, equal = verify_energy_identity_fourier(E, m)
            assert equal and lhs == rhs == energy_over_all_planes(E, m)


def test_additive_energy_examples():
    assert additive_energy({0}, {0}, 5) == 1
    assert additive_energy({0, 1}, {0, 1}, 5) == 6
    assert additive_energy(range(5), range(5), 5) == 125


def test_additive_energy_matches_brute_quadruples():
    rng = np.random.default_rng(14)
    for p in (5, 7, 11, 13):
        for _ in range(5):
            A = set(rng.choice(p, size=rng.integers(1, p), replace=False).tolist())
            B = set(rng.choice(p, size=rng.integers(1, p), replace=False).tolist())
            assert additive_energy(A, B, p) == brute_additive_energy(A, B, p)


def test_additive_energy_equals_line_energy(monkeypatch):
    rng = np.random.default_rng(15)
    swept = []
    real = energy_module._histogram_blocks
    monkeypatch.setattr(
        energy_module, "_histogram_blocks", lambda E, G: swept.append(len(G)) or real(E, G)
    )
    for p in (5, 13):
        lines = sum_lines(p)
        assert len(lines[0]) == len(lines[1]) == p
        for _ in range(10):
            A = set(rng.choice(p, size=rng.integers(1, p), replace=False).tolist())
            B = set(rng.choice(p, size=rng.integers(1, p), replace=False).tolist())
            assert additive_energy(A, B, p) == family_energy(product_set(A, B, p), *lines)
    assert swept == [1] * 20  # the p lines of a call share one direction, swept once


def test_key_lemma_empty_theta():
    E = PointSet.full(F32)
    result = key_lemma_check(E, [])
    assert result.energy == 0 and result.ok


def test_key_lemma_line_over_all_directions():
    line = Subspace.from_rows(F32, [(1, 0)]).point_set()
    directions = list(enumerate_grassmannian(F32, 1))
    result = key_lemma_check(line, directions)
    # coset expansion covers all 12 lines; energy = 9 + 3*3 = 18
    assert result.energy == family_energy(line, *full_family(F32, 1))
    assert result.energy == 18
    assert result.condition_ok and result.ok
    assert result.small_set_regime


def test_key_lemma_random_draws():
    rng = np.random.default_rng(16)
    space = AmbientSpace(5, 2)
    directions = list(enumerate_grassmannian(space, 1))
    for _ in range(100):
        idx = rng.choice(25, size=6, replace=False)
        E = PointSet.from_indices(space, idx)
        half = [directions[i] for i in sorted(
            rng.choice(len(directions), size=3, replace=False)
        )]
        result = key_lemma_check(E, half)
        assert result.condition_ok
        assert result.ok, result
        assert result.energy <= min(result.bound_pairs, result.bound_fourier)


def test_key_lemma_reads_held_second_moments():
    space = AmbientSpace(3, 3)
    E = PointSet(space, np.random.default_rng(4).random(27) < 0.5)
    directions = list(enumerate_grassmannian(space, 2))
    moments = [int(h @ h) for h in coset_counts(E, directions)]
    swept = key_lemma_check(E, directions)
    held = key_lemma_check(E, directions, np.array(moments))
    assert held == swept and type(held.energy) is int
    assert key_lemma_check(E, directions[:4], moments[:4]) == key_lemma_check(E, directions[:4])
    with pytest.raises(ValueError, match="12 second moments for 13 directions"):
        key_lemma_check(E, directions, moments[:12])


def test_key_lemma_rejects_mixed_dims():
    space = AmbientSpace(2, 3)
    dirs = [
        next(iter(enumerate_grassmannian(space, 1))),
        next(iter(enumerate_grassmannian(space, 2))),
    ]
    with pytest.raises(ValueError):
        key_lemma_check(PointSet.full(space), dirs)


def test_key_lemma_regime_split_favors_expected_bound():
    # small sets:  pair-counting bound is the minimum; large sets: spectral one
    space = AmbientSpace(5, 2)
    directions = list(enumerate_grassmannian(space, 1))
    small = PointSet.from_indices(space, [0, 1, 2])
    large = PointSet.from_indices(space, range(20))
    rs = key_lemma_check(small, directions)
    rl = key_lemma_check(large, directions)
    assert rs.small_set_regime and rs.bound_pairs <= rs.bound_fourier
    assert not rl.small_set_regime and rl.bound_fourier <= rl.bound_pairs
