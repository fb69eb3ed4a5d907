import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffproj import core
from ffproj.core import (
    AmbientSpace,
    BudgetError,
    PointSet,
    decode,
    dot,
    encode,
    is_prime,
    load_point_set,
    point_set_space,
    save_point_set,
)

from oracles import token_cast_load_point_set


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


def test_space_holds_integral_floats_as_ints_and_refuses_others():
    space = AmbientSpace(3.0, np.int64(2))
    assert space == AmbientSpace(3, 2) and type(space.p) is type(space.n) is int
    assert PointSet.full(space).cardinality == 9  # a float p^n once broke the mask
    for p, n, message in [
        (2.5, 2, r"p must be an integer, got 2\.5"),  # once a TypeError from pow in is_prime
        (3, 2.5, r"n must be an integer, got 2\.5"),
        (float("nan"), 2, "p must be an integer, got nan"),
        ("3", 2, "p must be an integer, got '3'"),
    ]:
        with pytest.raises(ValueError, match=message):
            AmbientSpace(p, n)


def test_space_budget(monkeypatch):
    with pytest.raises(BudgetError):
        AmbientSpace(2, 27)  # 2^27 over the default 2^26 budget
    monkeypatch.setattr(core, "DEFAULT_POINT_BUDGET", 1 << 27)
    AmbientSpace(2, 27)  # the budget is read at construction: a larger one admits it


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


def test_codec_and_point_sets_refuse_non_integral_entries():
    space = AmbientSpace(3, 2)
    # int() and an int64 cast would truncate these to (1, 0) and index 1
    with pytest.raises(ValueError, match=r"vector\[0\] = 1.5 is not an integer"):
        encode(space, (1.5, 0))
    with pytest.raises(ValueError, match=r"vector\[1\] = nan is not an integer"):
        PointSet.from_vectors(space, [(0, 0), (2, float("nan"))])
    with pytest.raises(ValueError, match=r"indices\[1\] = 1.7 is not an integer"):
        PointSet.from_indices(space, [0, 1.7])
    with pytest.raises(ValueError, match=r"indices\[0\] = 1.7 is not an integer"):
        PointSet.from_indices(space, [1.7])
    assert encode(space, (1.0, np.float32(2))) == encode(space, (1, 2))
    assert PointSet.from_indices(space, [1.0, 7]) == PointSet.from_indices(space, [1, 7])


def test_point_set_file_roundtrip(tmp_path):
    space = AmbientSpace(5, 2)
    E = PointSet.from_vectors(space, [(0, 0), (4, 3), (2, 2)])
    path = tmp_path / "set.pts"
    save_point_set(E, path)
    back = load_point_set(path)
    assert back == E
    assert back.space == space == point_set_space(path)


def test_point_set_file_format(tmp_path):
    space = AmbientSpace(3, 2)
    path = tmp_path / "set.pts"
    save_point_set(PointSet.from_vectors(space, [(1, 0)]), path)
    assert path.read_text() == "ffpointset 1 p=3 n=2\n1,0\n"


def test_point_set_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.pts"
    bad.write_text("ffpointset 2 p=3 n=2\n0,0\n")
    for read in (load_point_set, point_set_space):
        with pytest.raises(ValueError, match="bad ffpointset header"):
            read(bad)
    # the first bad line decides the message, whatever follows it
    for body, message in [
        ("0,0\n0,0,0\n1,x\n", "vector has 3 coordinates, expected 2"),
        ("0,0\n\n0\n", "vector has 1 coordinates, expected 2"),
        ("0,0\n\n1,x\n0,0,0\n", "line 4: bad coordinates '1,x'"),
        ("1,1\n2.0,1\n", "line 3: bad coordinates '2.0,1'"),
        ("0,1\n0,3\n0,-1\n", "coordinate 3 out of range [0, 3)"),
        ("0,1\n0,-1\n", "coordinate -1 out of range [0, 3)"),
        ("0,99999999999999999999\n", "coordinate 99999999999999999999 out of range [0, 3)"),
    ]:
        bad.write_text("ffpointset 1 p=3 n=2\n" + body)
        with pytest.raises(ValueError) as info:
            load_point_set(bad)
        assert str(info.value) == message
        assert point_set_space(bad) == AmbientSpace(3, 2)  # the header alone is read


def test_point_set_file_reads_what_int_reads(tmp_path):
    path = tmp_path / "set.pts"
    path.write_text("ffpointset 1 p=11 n=2\n\n 2 , +1 \n1_0,-0\n\n")
    assert load_point_set(path).vectors() == [(10, 0), (2, 1)]


# edits that keep a body readable (blank lines, padding, signs, leading zeros, separators
# int() accepts) and edits that break it (bad tokens, field counts, ranges, digit runs)
_EDITS = [
    "\n", " ", "\t", "\x0c", "\r\n", "+", "-", "0", "_", ",", "x", ".", "9" * 19, "",
]


@st.composite
def _point_files(draw):
    p = draw(st.sampled_from([2, 3, 11, 23]))
    n = draw(st.integers(1, 3))
    points = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=6))
    text = "".join(",".join(map(str, row)) + "\n" for row in points)
    for _ in range(draw(st.integers(0, 3))):  # splice an edit in at a random place
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(_EDITS)) + text[at + cut :]
    return f"ffpointset 1 p={p} n={n}\n" + text


def _outcome(read, path):
    try:
        E = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return E.space, E.indices().tolist()


@given(_point_files())
@example("ffpointset 1 p=3 n=2\n")  # no points
@example("ffpointset 1 p=3 n=2\n1,2\n2,0")  # no final newline
@example("ffpointset 1 p=3 n=2\n1,2\n2,3\n0,9\n")  # the first point out of range decides
@example("ffpointset 1 p=3 n=2\n1,2\n,0\n")  # an empty field
@example("ffpointset 1 p=3 n=2\n0000000000000000001,2\n")  # 19 digits
@example("ffpointset 1 p=2 n=1\n9999999999999999999")  # no separator at all, beyond int64
@settings(max_examples=300, deadline=None)
def test_load_point_set_matches_the_token_cast_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("pts") / "set.pts"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)
    assert _outcome(load_point_set, path) == _outcome(token_cast_load_point_set, path)
