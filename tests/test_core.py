import numpy as np
import pytest

from ffproj.core import (
    AmbientSpace,
    BudgetError,
    PointSet,
    decode,
    dot,
    encode,
    is_prime,
    load_point_set,
    save_point_set,
)


def test_encode_examples():
    assert encode(AmbientSpace(3, 2), (0, 0)) == 0
    assert encode(AmbientSpace(3, 2), (2, 1)) == 5  # 2 + 1*3
    assert encode(AmbientSpace(5, 1), (4,)) == 4


@pytest.mark.parametrize("p,n", [(2, 3), (3, 4), (5, 4), (2, 10)])
def test_codec_roundtrip_exhaustive(p, n):
    space = AmbientSpace(p, n)
    for idx in range(space.point_count):
        assert encode(space, decode(space, idx)) == idx


def test_codec_roundtrip_randomized():
    space = AmbientSpace(7, 5)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, space.point_count, size=500):
        v = decode(space, int(idx))
        assert encode(space, v) == idx


def test_codec_bijection_on_vectors():
    space = AmbientSpace(3, 2)
    indices = {encode(space, v) for v in space.iter_vectors()}
    assert indices == set(range(9))


def test_dot_examples():
    assert dot((1, 2), (3, 4), 5) == 1  # 3 + 8 = 11 = 1 mod 5
    assert dot((4, 2, 3), (0, 0, 0), 5) == 0
    assert dot((1, 1), (1, 1), 2) == 0


def test_dot_bilinear_random():
    rng = np.random.default_rng(1)
    p = 7
    for _ in range(200):
        u, v, w = (tuple(int(x) for x in rng.integers(0, p, 3)) for _ in range(3))
        vw = tuple((a + b) % p for a, b in zip(v, w))
        assert dot(u, vw, p) == (dot(u, v, p) + dot(u, w, p)) % p
        assert dot(u, v, p) == dot(v, u, p)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3), 5)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 31, 97, 65537}
    for k in range(2, 200):
        assert is_prime(k) == all(k % d for d in range(2, k))
    for k in primes:
        assert is_prime(k)


def test_space_rejects_composite_modulus():
    with pytest.raises(ValueError):
        AmbientSpace(9, 2)
    with pytest.raises(ValueError):
        AmbientSpace(1, 2)


def test_space_budget():
    with pytest.raises(BudgetError):
        AmbientSpace(2, 27)  # 2^27 over the default 2^26 budget
    AmbientSpace(2, 27, max_points=1 << 27)  # explicit budget admits it


def test_point_set_dedup_and_cardinality():
    space = AmbientSpace(3, 2)
    E = PointSet.from_vectors(space, [(0, 0), (0, 0), (1, 1)])
    assert E.cardinality == 2
    assert E.cardinality == int(np.sum(E.mask))
    assert PointSet.empty(space).cardinality == 0
    assert PointSet.full(space).cardinality == 9


def test_point_set_cardinality_matches_bit_count():
    space = AmbientSpace(5, 2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        mask = rng.random(space.point_count) < 0.4
        E = PointSet(space, mask)
        assert E.cardinality == sum(1 for b in E.mask if b)


def test_point_set_immutable():
    space = AmbientSpace(3, 2)
    E = PointSet.full(space)
    with pytest.raises(ValueError):
        E.mask[0] = False
    with pytest.raises(AttributeError):
        E.cardinality = 7


def test_point_set_rejects_outside_points():
    space = AmbientSpace(3, 2)
    with pytest.raises(ValueError):
        PointSet.from_vectors(space, [(3, 0)])
    with pytest.raises(ValueError):
        PointSet.from_indices(space, [9])


def test_point_set_file_roundtrip(tmp_path):
    space = AmbientSpace(5, 2)
    E = PointSet.from_vectors(space, [(0, 0), (4, 3), (2, 2)])
    path = tmp_path / "set.pts"
    save_point_set(E, path)
    back = load_point_set(path)
    assert back == E
    assert back.space == space


def test_point_set_file_format(tmp_path):
    space = AmbientSpace(3, 2)
    path = tmp_path / "set.pts"
    save_point_set(PointSet.from_vectors(space, [(1, 0)]), path)
    assert path.read_text() == "ffpointset 1 p=3 n=2\n1,0\n"


def test_point_set_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.pts"
    bad.write_text("ffpointset 2 p=3 n=2\n0,0\n")
    with pytest.raises(ValueError):
        load_point_set(bad)
    bad.write_text("ffpointset 1 p=3 n=2\n0,0,0\n")
    with pytest.raises(ValueError):
        load_point_set(bad)
    bad.write_text("ffpointset 1 p=3 n=2\n0,x\n")
    with pytest.raises(ValueError):
        load_point_set(bad)
