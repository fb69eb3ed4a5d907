import csv
import math
import tracemalloc

import numpy as np
import pytest

from ffproj import fourier, subspaces
from ffproj.core import AmbientSpace, BudgetError, PointSet, encode
from ffproj.fourier import (
    FULL_SPECTRUM_BUDGET,
    TOLERANCE,
    SalemProfile,
    character_sum,
    dft,
    paraboloid,
    plancherel_check,
    pointwise_coefficient,
    projection_bound_report,
    salem_deficiency,
    save_spectrum_csv,
    sphere,
    sphere_size_window,
    subspace_plancherel,
)
from ffproj.subspaces import Subspace, enumerate_grassmannian, perp

from oracles import all_vectors, brute_dft, brute_perp, digit_loop_norms, tensordot_dft


def test_dft_singleton_and_full():
    space = AmbientSpace(3, 2)
    S = dft(PointSet.from_indices(space, [0]))
    assert np.allclose(S.values, 1.0)
    S = dft(PointSet.full(space))
    assert abs(S.values[0] - 9) < 1e-12
    assert np.allclose(S.values[1:], 0.0, atol=1e-12)


def test_dft_two_point_example():
    space = AmbientSpace(3, 1)
    E = PointSet.from_vectors(space, [(0,), (1,)])
    S = dft(E)
    expected = 1 + np.exp(-2j * np.pi / 3)
    assert abs(S.values[1] - expected) < 1e-12
    assert abs(abs(S.values[1]) - 1.0) < 1e-12


def test_dft_zero_coefficient_is_cardinality():
    rng = np.random.default_rng(20)
    space = AmbientSpace(5, 2)
    for _ in range(20):
        E = PointSet(space, rng.random(25) < rng.uniform(0, 1))
        assert dft(E).values[0] == E.cardinality  # exactly


def test_dft_matches_brute_loop():
    space = AmbientSpace(3, 2)
    rng = np.random.default_rng(21)
    from ffproj.core import decode

    for _ in range(10):
        E = PointSet(space, rng.random(9) < 0.5)
        S = dft(E)
        oracle = brute_dft(E.vectors(), 3, 2)
        for idx in range(9):
            assert abs(S.values[idx] - oracle[decode(space, idx)]) < 1e-10


@pytest.mark.parametrize("p,n", [(5, 2), (2, 3), (3, 3)])
def test_dft_matches_numpy_fftn(p, n):
    rng = np.random.default_rng(22)
    space = AmbientSpace(p, n)
    E = PointSet(space, rng.random(space.point_count) < 0.5)
    S = dft(E)
    via_fft = np.fft.fftn(E.mask.astype(float).reshape((p,) * n, order="F"))
    assert np.allclose(S.values, via_fft.reshape(-1, order="F"), atol=1e-9)


def test_dft_conjugate_symmetry():
    space = AmbientSpace(7, 2)
    rng = np.random.default_rng(23)
    E = PointSet(space, rng.random(49) < 0.4)
    S = dft(E)
    for xi in [(1, 0), (3, 4), (6, 6), (2, 5)]:
        neg = tuple((-c) % 7 for c in xi)
        assert abs(S.at(neg) - S.at(xi).conjugate()) < 1e-10


def test_dft_budget_refusal():
    space = AmbientSpace(2, 23)  # within point budget, over spectrum budget
    assert space.point_count > FULL_SPECTRUM_BUDGET
    with pytest.raises(BudgetError):
        dft(PointSet.empty(space))


# the benchmark's transforms above 31^3 points: five axes, and three of 101 points each
_LARGE_BUILT_IN_SETS = {
    13: lambda: paraboloid(AmbientSpace(13, 5)),
    101: lambda: sphere(AmbientSpace(101, 3), 1),
}


@pytest.mark.parametrize("p", [2, 3, 7, 13, 31, 101])
def test_dft_keeps_the_bytes_of_the_tensordot_transform(p):
    rng = np.random.default_rng(p)
    sets = []
    for n in range(1, 7):
        if p**n > 31**3:
            break
        space = AmbientSpace(p, n)
        sets.append(PointSet(space, rng.random(space.point_count) < 0.3))
        if n >= 2:
            sets += [paraboloid(space), sphere(space, 1)]
    if p in _LARGE_BUILT_IN_SETS:
        sets.append(_LARGE_BUILT_IN_SETS[p]())
    for E in sets:
        expected = tensordot_dft(E.mask, p, E.space.n)
        assert dft(E).values.tobytes() == expected.tobytes(), E


@pytest.mark.parametrize("p, n", [(2, 14), (31, 3)])
def test_dft_holds_at_most_two_complex_arrays(p, n):
    space = AmbientSpace(p, n)
    E = PointSet(space, np.random.default_rng(n).random(space.point_count) < 0.3)
    fourier._character_matrix(p)  # cached, so the table is not counted below
    array = 16 * space.point_count  # bytes of one complex128 array of p^n entries
    bound = 2 * array + array // 8  # the slack covers the small objects of the call

    def peak_of(transform):
        tracemalloc.start()
        try:
            result = transform()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    S, peak = peak_of(lambda: dft(E))
    assert peak <= bound, (peak, bound)
    # the transform as first written holds a third array while each axis is multiplied
    _, tensordot_peak = peak_of(lambda: tensordot_dft(E.mask, p, n))
    assert tensordot_peak > bound, (tensordot_peak, bound)
    with pytest.raises(ValueError):  # read-only
        S.values[0] = 0
    assert np.array_equal(S.moduli(), np.abs(S.values))


def test_character_matrix_is_read_only():
    F = fourier._character_matrix(5)
    with pytest.raises(ValueError):
        F[0, 0] = 0
    assert F[0, 0] == 1


def test_moduli_are_computed_once_and_read_only():
    S = dft(paraboloid(AmbientSpace(5, 2)))
    moduli = S.moduli()
    assert S.moduli() is moduli and not moduli.flags.writeable
    assert np.array_equal(moduli, np.abs(S.values))


def test_pointwise_matches_full_dft():
    space = AmbientSpace(5, 2)
    rng = np.random.default_rng(24)
    E = PointSet(space, rng.random(25) < 0.5)
    S = dft(E)
    for xi in [(0, 0), (1, 0), (2, 3), (4, 4)]:
        assert abs(pointwise_coefficient(E, xi) - S.at(xi)) < 1e-10


def test_coefficients_refuse_a_non_integral_frequency():
    space = AmbientSpace(5, 2)
    E = paraboloid(space)
    S = dft(E)
    for coefficient in (S.at, lambda xi: pointwise_coefficient(E, xi)):
        with pytest.raises(ValueError, match=r"vector\[1\] = 2.5 is not an integer"):
            coefficient((1, 2.5))  # int() would read the coefficient at (1, 2)
        assert coefficient((1.0, 2.0)) == coefficient((1, 2))


def test_plancherel_trivial_and_random():
    space = AmbientSpace(5, 2)
    lhs, rhs, ok = plancherel_check(dft(PointSet.from_indices(space, [0])))
    assert ok and abs(lhs - 25) < 1e-9
    lhs, rhs, ok = plancherel_check(dft(PointSet.full(space)))
    assert ok and abs(lhs - 625) < 1e-9
    rng = np.random.default_rng(25)
    for _ in range(50):
        E = PointSet(space, rng.random(25) < rng.uniform(0, 1))
        assert plancherel_check(dft(E))[2]


def test_subspace_plancherel_edges():
    space = AmbientSpace(3, 2)
    full = PointSet.full(space)
    origin = PointSet.from_indices(space, [0])
    for d in range(3):
        for W in enumerate_grassmannian(space, d):
            lhs, rhs, ok = subspace_plancherel(full, W)
            assert ok and lhs == rhs == 3 ** (2 - d) * 9 ** d  # p^m cosets of p^(n-m) points
            lhs, rhs, ok = subspace_plancherel(origin, W)
            assert ok and lhs == rhs == 1
            assert subspace_plancherel(PointSet.empty(space), W) == (0, 0, True)


def test_subspace_plancherel_refuses_its_hyperplanes_over_budget(monkeypatch):
    space = AmbientSpace(3, 2)
    E = PointSet.full(space)
    monkeypatch.setenv("FFPROJ_BUDGET", "3")
    with pytest.raises(BudgetError, match=r"^the family of hyperplanes containing W has 4 "):
        subspace_plancherel(E, Subspace.zero(space))  # every line of F_3^2
    assert subspace_plancherel(E, Subspace.from_rows(space, [(1, 0)])) == (27, 27, True)


@pytest.mark.parametrize("lines", [1, 3, 31])
def test_subspace_plancherel_reads_its_lines_in_blocks(monkeypatch, lines):
    # blocks of one line of Per(W), of three, and all of them at once (F_5^3 has 31 lines);
    # each side is also the Fourier mass of Per(W) over p^m, within the transform's rounding
    space = AmbientSpace(5, 3)
    E = PointSet(space, np.random.default_rng(9).random(125) < 0.4)
    mass = dft(E).moduli() ** 2
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", 8 * E.cardinality * lines)
    for d in range(4):
        for W in enumerate_grassmannian(space, d):
            lhs, rhs, ok = subspace_plancherel(E, W)
            assert ok and lhs == rhs
            spectral = mass[perp(W).point_indices()].sum() / 5 ** (3 - d)
            assert abs(spectral - lhs) <= 1e-9 * lhs


def test_subspace_plancherel_exhaustive_f32():
    space = AmbientSpace(3, 2)
    directions = list(enumerate_grassmannian(space, 1))
    for bits in range(512):
        E = PointSet(space, (bits >> np.arange(9)) & 1 > 0)
        for W in directions:
            lhs, rhs, ok = subspace_plancherel(E, W)
            assert ok and lhs == rhs, (bits, W.basis, lhs, rhs)


@pytest.mark.parametrize("p,n", [(2, 3), (5, 2), (3, 3)])
def test_subspace_plancherel_random(p, n):
    rng = np.random.default_rng(26)
    space = AmbientSpace(p, n)
    for _ in range(20):
        E = PointSet(space, rng.random(space.point_count) < rng.uniform(0, 1))
        for d in range(n + 1):
            for W in enumerate_grassmannian(space, d):
                lhs, rhs, ok = subspace_plancherel(E, W)
                assert ok and lhs == rhs


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7) for n in (2, 3)])
def test_line_powers_are_exact(p, n):
    # for xi != 0, sum_{t != 0} |Ehat(t xi)|^2 = p M(xi^perp) - |E|^2 with
    # M(xi^perp) = sum_j c_j^2, c the histogram of x.xi mod p over E: the integer
    # the identity suite reads in place of a transform
    from ffproj.core import decode
    from ffproj.projections import coset_counts
    from ffproj.fourier import _line_powers

    space = AmbientSpace(p, n)
    random = PointSet(space, np.random.default_rng(p * n).random(space.point_count) < 0.5)
    for E in (random, paraboloid(space), sphere(space, 1)):
        power = dft(E).moduli() ** 2
        brute = brute_dft(E.vectors(), p, n)
        size = E.cardinality
        for line in enumerate_grassmannian(space, 1):
            h = next(coset_counts(E, [perp(line)]))
            exact = p * int(h @ h) - size**2
            assert _line_powers(p, size, int(h @ h)) == exact
            points = [int(xi) for xi in line.point_indices() if xi]
            assert len(points) == p - 1
            fast = float(power[points].sum())
            slow = sum(abs(brute[decode(space, xi)]) ** 2 for xi in points)
            for value in (fast, slow):
                assert abs(value - exact) <= TOLERANCE * max(1, exact)


def test_character_sum_examples():
    space = AmbientSpace(3, 2)
    V = Subspace.from_rows(space, [(1, 0)])
    assert abs(character_sum(V, (0, 0)) - 3) < 1e-12  # x in V: |Per(V)| = 3
    assert abs(character_sum(V, (1, 1))) < 1e-12


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_character_sum_exhaustive(p, n):
    from ffproj.core import decode

    space = AmbientSpace(p, n)
    for k in range(n):
        for V in enumerate_grassmannian(space, k):
            members = set(int(i) for i in V.point_indices())
            dual_size = p ** (n - k)
            for idx in range(space.point_count):
                value = character_sum(V, decode(space, idx))
                if idx in members:
                    assert abs(value - dual_size) < 1e-9 * dual_size
                else:
                    assert abs(value) < 1e-9 * dual_size


@pytest.mark.parametrize("block", [None, 7])  # 7 bytes: one point per phase block
@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_character_sum_array_matches_scalar_calls(p, n, block, monkeypatch):
    from ffproj import subspaces
    from ffproj.core import decode

    if block is not None:
        monkeypatch.setattr(subspaces, "_KERNEL_BYTES", block)
    space = AmbientSpace(p, n)
    rows = np.array([decode(space, idx) for idx in range(space.point_count)])
    for k in range(n + 1):
        for V in enumerate_grassmannian(space, k):
            values = character_sum(V, rows)
            assert values.shape == (space.point_count,)
            for row, value in zip(rows, values):
                assert abs(value - character_sum(V, tuple(row))) <= 1e-12 * p**n


def test_character_sum_array_validation():
    V = Subspace.from_rows(AmbientSpace(3, 2), [(1, 0)])
    assert character_sum(V, np.zeros((0, 2), dtype=np.int64)).shape == (0,)
    with pytest.raises(ValueError):
        character_sum(V, [(0, 0, 0)])
    with pytest.raises(ValueError):
        character_sum(V, [(0, 3)])
    with pytest.raises(ValueError):
        character_sum(V, [(-1, 0)])


def test_character_sum_over_brute_dual():
    # the summation set itself agrees with the brute-force dual
    space = AmbientSpace(3, 2)
    for V in enumerate_grassmannian(space, 1):
        dual = brute_perp(frozenset(V.point_set().vectors()), 3, 2)
        assert frozenset(perp(V).point_set().vectors()) == dual


def test_paraboloid_examples():
    E = paraboloid(AmbientSpace(3, 2))
    assert sorted(E.vectors()) == [(0, 0), (1, 1), (2, 1)]
    assert paraboloid(AmbientSpace(5, 2)).cardinality == 5
    assert paraboloid(AmbientSpace(5, 3)).cardinality == 25
    with pytest.raises(ValueError):
        paraboloid(AmbientSpace(5, 1))


def test_sphere_examples():
    E = sphere(AmbientSpace(5, 2), 1)
    assert sorted(E.vectors()) == [(0, 1), (0, 4), (1, 0), (4, 0)]
    lo, hi = sphere_size_window(AmbientSpace(5, 2))
    assert lo <= E.cardinality + 2 * 5  # window is loose, reported only
    with pytest.raises(ValueError):
        sphere(AmbientSpace(5, 2), 5)


@pytest.mark.parametrize("p,max_width", [(2, 18), (3, 7), (5, 5), (101, 3)])
def test_norms_match_the_digit_loop(p, max_width):
    for width in range(max_width + 1):
        norms = fourier._norms(p, width)
        assert norms.dtype == np.min_scalar_type(2 * (p - 1))
        assert np.array_equal(norms, digit_loop_norms(p, width)), width


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (5, 3), (101, 2)])
def test_builtin_sets_match_the_digit_loop_and_brute_force(p, n):
    space = AmbientSpace(p, n)
    vectors = all_vectors(p, n)

    def norm(v):
        return sum(c * c for c in v) % p

    E = paraboloid(space)  # width n - 1: the norm of the first n - 1 coordinates
    base = np.arange(p ** (n - 1))
    expected = np.zeros(space.point_count, dtype=bool)
    expected[base + digit_loop_norms(p, n - 1) * p ** (n - 1)] = True
    assert np.array_equal(E.mask, expected)
    assert sorted(E.vectors()) == sorted(v for v in vectors if norm(v[:-1]) == v[-1])
    for r in sorted({0, 1, p - 1}):  # width n
        S = sphere(space, r)
        assert np.array_equal(S.mask, digit_loop_norms(p, n) == r)
        assert sorted(S.vectors()) == sorted(v for v in vectors if norm(v) == r)


@pytest.mark.parametrize("r", [0, 1])
def test_builtin_sets_at_width_18_match_the_digit_loop(r):
    norms = digit_loop_norms(2, 18)
    assert np.array_equal(sphere(AmbientSpace(2, 18), r).mask, norms == r)
    expected = np.zeros(2**19, dtype=bool)
    expected[np.arange(2**18) + norms * 2**18] = True
    assert np.array_equal(paraboloid(AmbientSpace(2, 19)).mask, expected)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [2, 3])
def test_paraboloid_is_salem(p, n):
    E = paraboloid(AmbientSpace(p, n))
    report = salem_deficiency(E)
    expected = p ** ((n - 1) / 2)
    assert abs(report.max_nonzero_modulus - expected) <= 1e-6 * expected
    assert abs(report.ratio_salem - 1.0) <= 1e-6


def test_line_is_maximally_non_salem():
    space = AmbientSpace(3, 2)
    line = Subspace.from_rows(space, [(1, 2)]).point_set()
    report = salem_deficiency(line)
    assert abs(report.max_nonzero_modulus - 3.0) < 1e-9
    assert abs(report.ratio_salem - math.sqrt(3)) < 1e-9


def test_decay_report_floor_invariant():
    rng = np.random.default_rng(27)
    space = AmbientSpace(5, 2)
    for _ in range(50):
        E = PointSet(space, rng.random(25) < rng.uniform(0.1, 0.9))
        if E.cardinality in (0, 25):
            continue
        report = salem_deficiency(E)
        assert (
            report.max_nonzero_modulus**2
            >= (25 * E.cardinality - E.cardinality**2) / 24 - 1e-9
        )


def test_decay_report_rejects_trivial_sets():
    space = AmbientSpace(3, 2)
    with pytest.raises(ValueError):
        salem_deficiency(PointSet.empty(space))
    with pytest.raises(ValueError):
        salem_deficiency(PointSet.full(space))


def test_salem_profile_validation():
    with pytest.raises(ValueError):
        SalemProfile(0.0, 0.5)
    with pytest.raises(ValueError):
        SalemProfile(1.0, 1.0)
    with pytest.raises(ValueError):
        SalemProfile(1.0, 0.4)


def test_projection_bounds_paraboloid_case_a():
    space = AmbientSpace(5, 2)
    E = paraboloid(space)
    report = projection_bound_report(E, SalemProfile(1.0, 0.5), 1)
    assert report.profile_ok
    assert report.case == "a"  # |E| = 5 <= 5 = C1 p^(m/(2-2a))
    assert report.cases["a"]["holds"]
    assert report.min_image >= 3  # ceil(p/2)
    assert not report.cases["c"]["applicable"]


def test_projection_bounds_full_space_case_c():
    space = AmbientSpace(5, 2)
    E = PointSet.full(space)
    report = projection_bound_report(E, SalemProfile(1.0, 0.5), 1)
    assert report.profile_ok  # spectrum vanishes off zero
    assert report.case == "b"
    assert report.cases["b"]["holds"]
    assert report.cases["c"]["applicable"] and report.cases["c"]["holds"]
    assert report.min_image == 5


def test_projection_bounds_profile_violation():
    space = AmbientSpace(3, 2)
    line = Subspace.from_rows(space, [(1, 0)]).point_set()
    report = projection_bound_report(line, SalemProfile(1.0, 0.5), 1)
    assert not report.profile_ok  # max = 3 > sqrt(3)
    assert report.cases["a"]["holds"] is None
    assert report.cases["b"]["holds"] is None


@pytest.mark.parametrize("p", [5, 7, 11])
def test_projection_bounds_paraboloid_sweep(p):
    for n in (2, 3):
        E = paraboloid(AmbientSpace(p, n))
        for m in range(1, n):
            report = projection_bound_report(E, SalemProfile(1.0, 0.5), m)
            assert report.profile_ok
            active = report.cases[report.case]
            assert active["holds"], (p, n, m, report)
            if report.cases["c"]["applicable"]:
                assert report.cases["c"]["holds"]


def test_spectrum_csv_roundtrip(tmp_path):
    space = AmbientSpace(3, 2)
    E = PointSet.from_vectors(space, [(0, 0), (1, 2), (2, 2)])
    S = dft(E)
    path = tmp_path / "spec.csv"
    save_spectrum_csv(S, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["xi1", "xi2", "real", "imag", "modulus"]
    assert len(rows) == 10
    for idx, row in enumerate(rows[1:]):
        xi = tuple(int(c) for c in row[:2])
        assert encode(space, xi) == idx
        assert complex(float(row[2]), float(row[3])) == pytest.approx(
            S.values[idx], abs=1e-15
        )


def _row_by_row_spectrum_csv(S, path):
    """The former writer: one decode and one numpy-scalar abs per row."""
    from ffproj.core import decode

    space = S.space
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"xi{i + 1}" for i in range(space.n)] + ["real", "imag", "modulus"]
        )
        for idx in range(space.point_count):
            v = S.values[idx]
            writer.writerow(
                list(decode(space, idx))
                + [repr(float(v.real)), repr(float(v.imag)), repr(float(abs(v)))]
            )


@pytest.mark.parametrize(
    "p,n,block", [(2, 6, 7), (5, 3, 1 << 16), (31, 2, 100), (101, 2, 1000), (3, 4, 27)]
)
def test_spectrum_csv_bytes_match_row_by_row_writer(tmp_path, monkeypatch, p, n, block):
    monkeypatch.setattr(fourier, "_CSV_BLOCK", block)
    space = AmbientSpace(p, n)
    rng = np.random.default_rng(p)
    random_set = PointSet(space, rng.random(space.point_count) < 0.3)
    spectra = [dft(E) for E in (paraboloid(space), sphere(space, 1), random_set)]
    for S in spectra + [_edge_spectrum(space, rng)]:
        save_spectrum_csv(S, tmp_path / "bulk.csv")
        _row_by_row_spectrum_csv(S, tmp_path / "rows.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _edge_spectrum(space, rng):
    """A spectrum with |E| = 3 at index 0 and two kinds of float column.

    Real parts cycle through 0.0, -0.0, 0.5 and 1e-300 across block
    boundaries, so a block of 10 rows or more formats each pattern once;
    imaginary parts never repeat, so every row of that column is a first
    occurrence.
    """
    size = space.point_count
    values = np.empty(size, dtype=np.complex128)
    values.real = np.array([0.0, -0.0, 0.5, 1e-300])[np.arange(size) % 4]
    values.imag = rng.standard_normal(size)
    values[0] = 3.0
    assert len(np.unique(values.imag.view(np.uint64))) == size
    assert [str(x) for x in values.real[1:4]] == ["-0.0", "0.5", "1e-300"]
    return fourier.Spectrum(space, values, 3)
