import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ffproj import suite
from ffproj.core import AmbientSpace
from ffproj.fourier import subspace_plancherel
from ffproj.subspaces import Subspace, SubspaceArray, gaussian_binomial
from ffproj.suite import run_identity_suite

from oracles import (
    brute_perp,
    loop_cell_checks,
    loop_set_checks,
    ordered_span_indices,
    span_points,
)


real_dual_bases = suite._dual_bases
real_coset_histograms = suite._coset_histograms
real_point_blocks = suite._point_blocks
real_line_powers = suite._line_powers


def _off_by_one(n, m, p):
    return gaussian_binomial(n, m, p) + ((n, m) == (2, 1))


def _shift_duals(arrays):
    # each dual basis with its last column shifted by 1: not canonical, not the dual
    def shift(duals):
        bases = duals.bases.copy()
        bases[..., -1] = (bases[..., -1] + 1) % duals.space.p
        return SubspaceArray._unchecked(duals.space, bases)  # the public constructor refuses them

    assert isinstance(arrays, list)  # the suite dualises a cell's Grassmannians in one call
    return [shift(duals) for duals in real_dual_bases(arrays)]


def _swap_labels(digits, tags, ntags, directions):
    for block in real_coset_histograms(digits, tags, ntags, directions):
        if block.shape[-1] > 1:
            block = block.copy()
            block[..., [0, 1]] = block[..., [1, 0]]
        yield block


def _dropped_bin(digits, tags, ntags, directions):
    # the last coset of every direction loses its points: totals, moments and images shrink
    for block in real_coset_histograms(digits, tags, ntags, directions):
        block = block.copy()
        block[..., -1] = 0
        yield block


def _collapsed_bins(digits, tags, ntags, directions):
    # every point counted in coset 0: images of 1, past both censuses and the key lemma
    for block in real_coset_histograms(digits, tags, ntags, directions):
        collapsed = np.zeros_like(block)
        collapsed[..., 0] = block.sum(axis=-1)
        yield collapsed


def _origin_twice(subspaces):
    # the origin is in every dual already: counting it again adds |E|^2 / p^(n-d)
    # (the containment counts skip the origin, so the members' copy goes unseen)
    for points in real_point_blocks(subspaces):
        yield np.concatenate([points, np.zeros((len(points), 1), dtype=np.int64)], axis=1)


def _scaled_spectrum(p, size, moments):
    # every line's Fourier mass off the origin doubled; the moments are untouched, so the
    # spectral sides of every set but the empty and the full one (whose mass is 0) are off
    return 2 * real_line_powers(p, size, moments)


FAULTS = {
    "none": {},
    "off_by_one_binomial": {"gaussian_binomial": _off_by_one},
    "shifted_duals": {"_dual_bases": _shift_duals},
    "swapped_kernel_labels": {"_coset_histograms": _swap_labels},
    "dropped_bin": {"_coset_histograms": _dropped_bin},
    "collapsed_bins": {"_coset_histograms": _collapsed_bins},
    "origin_twice": {"_point_blocks": _origin_twice},
    "scaled_spectrum": {"_line_powers": _scaled_spectrum},
}


def test_injected_binomial_fault_is_caught_with_witnesses(monkeypatch):
    # n = 2 compares C(2,1) with enumeration and Pascal's rule; n = 3 feeds
    # C(2,1) into the closed form of the energy identity
    monkeypatch.setattr(suite, "gaussian_binomial", _off_by_one)
    manifest = run_identity_suite(primes=(3,), dims=(2, 3))
    assert manifest["all_pass"] is False
    checks = {c["name"]: c for c in manifest["checks"]}
    for name in ("binomial_vs_enumeration", "pascal_identities", "energy_identity"):
        assert not checks[name]["pass"]
        assert checks[name]["failure_count"] >= 1
        for witness in checks[name]["failures"]:
            assert witness["p"] == 3 and {"n", "m"} <= witness.keys()
    assert checks["binomial_vs_enumeration"]["failures"][0] == {
        "p": 3, "n": 2, "m": 1, "observed": 4, "expected": 5,
    }


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_instance_counts_follow_gaussian_binomials(p, n):
    G = [gaussian_binomial(n, d, p) for d in range(n + 1)]
    sets = 6  # empty, full, origin and three percolation samples
    expected = {
        "binomial_vs_enumeration": n + 1,
        "pascal_identities": n - 1,
        "containment_counts": 2 * n,
        "perp_duality": n + 1,
        "character_sums": sum(G[:n]),
        "coset_decomposition": sets * sum(G),
        "cauchy_schwarz": sets * sum(G),
        "plancherel": sets,
        "subspace_plancherel": sets * sum(G),
        "energy_identity": sets * (n + 1),
        "energy_identity_spectral": sets * (n + 1),
        "projection_duality": sets * sum(G[1:n]),
    }
    manifest = run_identity_suite(primes=(p,), dims=(n,))
    assert manifest["all_pass"] is True
    counts = {c["name"]: c["instances"] for c in manifest["checks"]}
    assert {name: counts[name] for name in expected} == expected


def test_spectral_side_fault_reaches_both_spectral_checks(monkeypatch):
    monkeypatch.setattr(suite, "_point_blocks", _origin_twice)
    manifest = run_identity_suite(primes=(3,), dims=(2,))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert manifest["all_pass"] is False
    # plancherel is the dual sum of G(2,0), so the fault reaches it too
    for name in ("plancherel", "subspace_plancherel", "energy_identity_spectral"):
        assert not checks[name]["pass"]
        # the empty set's spectrum vanishes, so no fault in the duals reaches
        # its checks; every instance of the five other sets fails
        empty = checks[name]["instances"] // 6
        assert checks[name]["failure_count"] == checks[name]["instances"] - empty
        assert all(w["set"] != "empty" for w in checks[name]["failures"])
    witness = checks["energy_identity_spectral"]["failures"][0]
    # G(2,0) is one direction with the whole plane as its dual, so the full
    # set's spectral side is off by exactly |E|^2 / p^2 = 9, times the scale (p - 1) p^2
    assert witness["set"] == "full" and witness["m"] == 0 and witness["scale"] == 18
    assert witness["spectral"] == witness["scale"] * (witness["closed_form"] + 9)
    for name in ("energy_identity", "coset_decomposition"):
        assert checks[name]["pass"]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (7, 2)])
def test_subspace_plancherel_sides_are_those_of_the_library(p, n):
    # the suite decides (p - 1) p^(n-d) M_W = sum_{Per(W)} u in int64; the library's
    # sides, both exact, are the suite's
    space = AmbientSpace(p, n)
    sets = suite._test_sets(space, 3)
    columns = suite._sweep_sets(suite._cell(space), sets)
    moment, dual_sum = columns[2], columns[-1]
    directions = [W for d in range(n + 1) for W in SubspaceArray.grassmannian(space, d)]
    assert moment.shape == dual_sum.shape == (len(directions), len(sets))
    assert moment.dtype == dual_sum.dtype == np.int64
    for k, (_, E) in enumerate(sets):
        for j, W in enumerate(directions):
            scale = (p - 1) * p ** (n - W.dim)
            lhs, rhs, ok = subspace_plancherel(E, W)
            assert ok and moment[j, k] == lhs and dual_sum[j, k] == scale * lhs
            assert Fraction(int(dual_sum[j, k]), scale) == rhs
    manifest = run_identity_suite(primes=(p,), dims=(n,), seed=3)
    checks = {c["name"]: c for c in manifest["checks"]}
    assert checks["subspace_plancherel"]["instances"] == moment.size
    assert checks["subspace_plancherel"]["pass"]


def test_cell_enumerates_each_grassmannian_once(monkeypatch):
    from ffproj import subspaces

    streams = []
    real_patterns = subspaces._pattern_blocks

    def counted_patterns(space, m):
        streams.append(m)
        return real_patterns(space, m)

    monkeypatch.setattr(subspaces, "_pattern_blocks", counted_patterns)
    manifest = run_identity_suite(primes=(2,), dims=(4,))
    assert manifest["all_pass"] is True
    # the census sweeps reuse the cell's G(4, d), and no other path enumerates
    assert sorted(streams) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("p,dims", [(2, (2, 3, 4)), (3, (2, 3)), (11, (2,))])
def test_each_cell_reduces_its_duals_in_one_elimination(monkeypatch, p, dims):
    from ffproj import subspaces

    calls = {"rref_stack": 0, "label_maps": 0}

    def counted(name):
        real = getattr(subspaces, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(subspaces, name, counted(name))
    for n in dims:
        calls.update(rref_stack=0, label_maps=0)
        cell = suite._cell(AmbientSpace(p, n))
        assert calls == {"rref_stack": 1, "label_maps": 0}  # every dual of the cell at once
        checks = {name: suite._Check(name) for name in suite._CHECKS}
        suite._cell_checks(cell, checks)
        assert calls == {"rref_stack": 1, "label_maps": 0}  # the involution check is a product
    calls.update(rref_stack=0)
    assert run_identity_suite(primes=(p,), dims=dims)["all_pass"] is True
    assert calls["rref_stack"] == len(dims)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_a_dual_short_of_rows_is_not_involutive(p, n):
    # a canonical basis orthogonal to W of dimension below n - m spans only part of Per(W):
    # the product passes it, so the dimension test must refuse it, as the elimination does
    space, arrays, duals, *held = suite._cell(AmbientSpace(p, n))
    short = {m: SubspaceArray._unchecked(space, P.bases[:, :-1]) if P.dim else P
             for m, P in duals.items()}  # each basis without its last row, still canonical
    cell = (space, arrays, short, *held)
    array, loop = ({name: suite._Check(name) for name in suite._CHECKS} for _ in range(2))
    suite._cell_checks(cell, array)
    loop_cell_checks(cell, loop)
    failures = array["perp_duality"].failures
    assert failures == loop["perp_duality"].failures
    assert [(w["m"], w["involutive"]) for w in failures] == [(m, False) for m in range(n)]


def test_oversized_cells_are_refused_before_any_table(monkeypatch):
    from ffproj.core import BudgetError

    monkeypatch.delenv("FFPROJ_BUDGET", raising=False)
    built = []
    with monkeypatch.context() as mp:
        mp.setattr(suite, "_cell", built.append)
        # the grid's last cell is over budget: no cell runs
        with pytest.raises(BudgetError, match=r"G\(3,1\) x F_101\^3 has 10615191203 elements"):
            run_identity_suite(primes=(2, 101), dims=(3,))
    assert built == []
    # the benchmark's eight cells, F_3^4 and F_5^3 are under it
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2), (3, 4), (5, 3)]:
        suite._check_cell(AmbientSpace(p, n))
    for p, n in [(3, 4), (5, 3)]:
        assert run_identity_suite(primes=(p,), dims=(n,))["all_pass"] is True


@pytest.mark.parametrize("p", [2, 3])  # over F_2 the shift zeroes some rows: no basis at all
def test_wrong_dual_basis_fails_projection_duality(monkeypatch, p):
    monkeypatch.setattr(suite, "_dual_bases", _shift_duals)
    manifest = run_identity_suite(primes=(p,), dims=(3,))
    checks = {c["name"]: c for c in manifest["checks"]}
    duality = checks["projection_duality"]
    assert not duality["pass"] and duality["failure_count"] >= 1
    assert not checks["perp_duality"]["pass"]
    space = AmbientSpace(p, 3)
    names = {name for name, _ in suite._test_sets(space, 0)}
    for witness in duality["failures"]:
        assert witness.keys() == {"p", "n", "set", "subspace"} and witness["set"] in names
        W = Subspace.from_rows(space, witness["subspace"])
        assert W.basis == witness["subspace"] and 1 <= W.dim <= 2


def test_swapped_kernel_labels_fail_projection_duality_only(monkeypatch):
    monkeypatch.setattr(suite, "_coset_histograms", _swap_labels)
    manifest = run_identity_suite(primes=(3,), dims=(3,))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert not checks["projection_duality"]["pass"]
    # a permuted histogram keeps its total, image size and second moment
    failing = {name for name, c in checks.items() if not c["pass"]}
    assert failing == {"projection_duality"}


def test_suite_calls_no_per_direction_routes(monkeypatch):
    import sys

    from ffproj import fourier, projections, subspaces

    calls = dict.fromkeys(["perp", "character_sum", "coset_labels", "_coset_histograms"], 0)
    in_key_lemma = []
    key_lemma_kernel_calls = []
    originals = {
        "perp": subspaces.perp,
        "character_sum": fourier.character_sum,
        "coset_labels": subspaces.coset_labels,
        "_coset_histograms": projections._coset_histograms,
    }

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "_coset_histograms" and in_key_lemma:
                key_lemma_kernel_calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key == "ffproj" or key.startswith("ffproj.")]
    for name, real in originals.items():
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))

    real_key_lemma = suite._key_lemma_bounds
    key_lemma_calls = []

    def key_lemma(*args, **kwargs):
        key_lemma_calls.append(args)
        in_key_lemma.append(True)
        try:
            return real_key_lemma(*args, **kwargs)
        finally:
            in_key_lemma.pop()

    monkeypatch.setattr(suite, "_key_lemma_bounds", key_lemma)
    manifest = run_identity_suite(primes=(3,), dims=(3,))
    assert manifest["all_pass"] is True
    kernel = calls.pop("_coset_histograms")
    assert calls == dict.fromkeys(calls, 0)
    assert kernel == 4  # one tagged sweep of the six sets per G(3, d)
    # the key lemma bounds every (set, m, Theta) of the cell at once, from held moments
    assert len(key_lemma_calls) == 1 and key_lemma_kernel_calls == []


def test_verify_makes_no_transform(monkeypatch):
    import sys

    from ffproj import cli, fourier
    from ffproj.core import PointSet

    calls = []
    real = fourier.dft

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if (key == "ffproj" or key.startswith("ffproj.")) and getattr(module, "dft", None) is real:
            monkeypatch.setattr(module, "dft", counted)
    # nor any complex table: the character sums are decided in integers
    tables = []
    real_matrix = fourier._character_matrix
    monkeypatch.setattr(fourier, "_character_matrix", lambda p: tables.append(p) or real_matrix(p))
    assert not hasattr(suite, "dft") and not hasattr(suite, "plancherel_check")
    assert not hasattr(suite, "TOLERANCE")
    for p, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)]:
        assert cli.main(["verify", "--p", str(p), "--n", str(n)]) == 0
    assert calls == [] and tables == []
    fourier.dft(PointSet.full(AmbientSpace(3, 2)))
    assert len(calls) == 1 and tables == [3]  # the wrappers count


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3)])
def test_cell_routes_match_the_public_functions(monkeypatch, p, n):
    from ffproj import subspaces
    from ffproj.core import PointSet, digits_of
    from ffproj.fourier import TOLERANCE, character_sum
    from ffproj.projections import coset_counts

    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", 700)  # blocks of a few rows at most
    space = AmbientSpace(p, n)
    points = digits_of(space, np.arange(space.point_count))
    E = PointSet(space, np.random.default_rng(p * n).random(space.point_count) < 0.4)
    complement = PointSet(space, ~E.mask)
    indices = [E.indices(), complement.indices()]  # swept together, tagged 0 and 1
    digits = digits_of(space, np.concatenate(indices))
    tags = np.repeat([0, 1], [len(i) for i in indices])
    arrays, member_lists, dual_lists, public = {}, {}, {}, []
    for d in range(n + 1):
        G = SubspaceArray.grassmannian(space, d)
        listed = list(G)
        duals = suite._dual_bases(G)
        dual_list = list(duals)  # Subspace() checks each dual basis is in canonical RREF form
        assert [span_points(P.basis, p, n) for P in dual_list] == [
            brute_perp(W.basis, p, n) for W in listed  # orthogonal to W's basis rows
        ]
        members = np.concatenate(list(suite._point_blocks(G)))
        dual_points = np.concatenate(list(suite._point_blocks(duals)))
        assert members.tolist() == [ordered_span_indices(W.basis, p, n) for W in listed]
        assert dual_points.tolist() == [ordered_span_indices(P.basis, p, n) for P in dual_list]
        arrays[d], member_lists[d], dual_lists[d] = G, members, dual_points
        for V, inside in zip(listed, members.tolist() if d < n else []):
            expected = np.zeros(space.point_count)
            expected[inside] = p ** (n - d)
            ok = np.abs(character_sum(V, points) - expected).max() <= TOLERANCE * p**n
            public.append(bool(ok))
        totals, images, moments, dual_images, same = suite._direction_reductions(
            digits, tags, 2, G, *suite._dual_route(G, duals)
        )
        assert same.all()
        for k, F in enumerate([E, complement]):
            assert totals[:, k].tolist() == [F.cardinality] * len(G)
            histograms = [next(coset_counts(F, [W])) for W in listed]  # one direction per call
            sizes = [np.count_nonzero(h) for h in histograms]
            assert images[:, k].tolist() == dual_images[:, k].tolist() == sizes
            assert moments[:, k].tolist() == [int(h @ h) for h in histograms]
    # the suite's exact decision on every V of G(n, k), k < n, is the public sums' within
    # tolerance
    check = {"character_sums": suite._Check("character_sums")}
    suite._character_checks((space, arrays, None, member_lists, dual_lists, None), check)
    assert check["character_sums"].instances == len(public)
    assert check["character_sums"].failures == [] and public == [True] * len(public)


@pytest.mark.parametrize("cap", [300, 2000, 1 << 20])
@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2)])
def test_tagged_reductions_are_the_single_set_ones(monkeypatch, p, n, cap):
    from ffproj import subspaces
    from ffproj.core import digits_of

    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    widths = []
    real = suite._coset_histograms

    def counted(digits, tags, ntags, directions):
        for block in real(digits, tags, ntags, directions):
            widths.append(len(block))
            yield block

    monkeypatch.setattr(suite, "_coset_histograms", counted)
    space = AmbientSpace(p, n)
    sets = suite._test_sets(space, 5)
    assert sets[0][0] == "empty" and sets[0][1].cardinality == 0  # a tag with no points
    indices = [E.indices() for _, E in sets]
    digits = digits_of(space, np.concatenate(indices))
    tags = np.repeat(np.arange(len(sets)), [len(i) for i in indices])
    for d in range(n + 1):
        G = SubspaceArray.grassmannian(space, d)
        route = suite._dual_route(G, suite._dual_bases(G))
        widths.clear()
        tagged = suite._direction_reductions(digits, tags, len(sets), G, *route)
        if cap < 1 << 20 and 0 < d < n:
            assert len(widths) > 1  # the cap splits the directions across chunks
        for k, idx in enumerate(indices):
            alone = suite._direction_reductions(
                digits_of(space, idx), np.zeros(len(idx), dtype=np.int64), 1, G, *route
            )
            for column, single in zip(tagged, alone):
                assert column.shape == (len(G), len(sets))
                assert np.array_equal(column[:, k], single[:, 0])


def test_shifted_dual_route_tag_offset_fails_projection_duality(monkeypatch):
    # the suite's dual route bins each point under the next set's tag; the kernel's
    # product route binds the helper in projections, so it is untouched
    real = suite._code_histograms

    def shifted(space, rows, tags, ntags, maps):
        return real(space, rows, (tags + 1) % ntags, ntags, maps)

    monkeypatch.setattr(suite, "_code_histograms", shifted)
    manifest = run_identity_suite(primes=(3,), dims=(3,))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert not checks["projection_duality"]["pass"]
    assert checks["projection_duality"]["failures"][0]["set"] == "empty"
    # the kernel's side is untouched
    for name in ("cauchy_schwarz", "subspace_plancherel", "energy_identity", "census_bounds"):
        assert checks[name]["pass"]
    monkeypatch.undo()
    assert run_identity_suite(primes=(3,), dims=(3,))["all_pass"] is True


def test_manifests_match_the_golden():
    # the 8 cells of the benchmark's verify workload at seeds 0-2; a passing manifest
    # holds only counts and flags, so its bytes do not depend on the float platform
    golden = json.loads((Path(__file__).parent / "golden" / "suite_manifests.json").read_text())
    assert len(golden) == 24
    for expected in golden:
        manifest = run_identity_suite(expected["primes"], expected["dims"], expected["seed"])
        assert json.dumps(manifest) == json.dumps(expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_array_route_reports_what_the_loop_reports(monkeypatch, fault, seed):
    for name, patch in FAULTS[fault].items():
        monkeypatch.setattr(suite, name, patch)
    ran = []
    real_run = suite._run_checks

    def run(*args):
        ran.append(real_run(*args))
        return ran[-1]

    monkeypatch.setattr(suite, "_run_checks", run)
    grids = [((2, 3, 5, 7), (2, 3)), ((2, 3), (4,))]
    array = [run_identity_suite(primes, dims, seed) for primes, dims in grids]
    with monkeypatch.context() as mp:
        mp.setattr(suite, "_cell_checks", loop_cell_checks)
        mp.setattr(suite, "_set_checks", loop_set_checks)
        loop = [run_identity_suite(primes, dims, seed) for primes, dims in grids]
    assert json.dumps(array) == json.dumps(loop)
    counts = []
    for array_checks, loop_checks in zip(ran[: len(grids)], ran[len(grids) :]):
        for name in suite._CHECKS:
            a, b = array_checks[name], loop_checks[name]
            assert a.instances == b.instances > 0
            # every failure, in order, with its witness's fields, types and float bits
            assert a.failures == b.failures and json.dumps(a.failures) == json.dumps(b.failures)
            counts.append(len(a.failures))
    assert (max(counts) == 0) == (fault == "none")
    if fault not in ("none", "shifted_duals", "swapped_kernel_labels"):
        assert max(counts) > 10  # the manifest's list is cut at 10: the order decides it


def test_passing_cells_build_no_witness_and_record_each_check_once(monkeypatch):
    records, witnesses = [], []
    real = suite._Check.record_all

    def spy(self, ok, witness):
        records.append(self.name)

        def counted(*index):
            witnesses.append((self.name, index))
            return witness(*index)

        real(self, ok, counted)

    monkeypatch.setattr(suite._Check, "record_all", spy)
    cells = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2)]
    for p, n in cells:  # the benchmark's verify cells
        assert run_identity_suite(primes=(p,), dims=(n,), seed=0)["all_pass"] is True
    assert witnesses == []
    assert {name: records.count(name) for name in suite._CHECKS} == dict.fromkeys(
        suite._CHECKS, len(cells)
    )
    # a failing check builds one witness per failure, and no more
    monkeypatch.setattr(suite, "_line_powers", _scaled_spectrum)
    manifest = run_identity_suite(primes=(3,), dims=(2,))
    failures = sum(c["failure_count"] for c in manifest["checks"])
    assert failures > 0 and len(witnesses) == failures


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_python_int_decisions_are_the_int64_ones(monkeypatch, fault):
    for name, patch in FAULTS[fault].items():
        monkeypatch.setattr(suite, name, patch)
    grid = ((2, 3, 5), (2, 3), 1)
    int64 = suite._run_checks(*grid)
    monkeypatch.setattr(suite, "_INT64_BOUND", 0)  # no cell's counts fit: all in Python ints
    python = suite._run_checks(*grid)
    for name in suite._CHECKS:
        assert int64[name].instances == python[name].instances
        assert json.dumps(int64[name].failures) == json.dumps(python[name].failures)
