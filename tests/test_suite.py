import numpy as np
import pytest

from ffproj import suite
from ffproj.core import AmbientSpace
from ffproj.fourier import TOLERANCE, subspace_plancherel
from ffproj.subspaces import Subspace, gaussian_binomial
from ffproj.suite import run_identity_suite


def test_injected_binomial_fault_is_caught_with_witnesses():
    def off_by_one(n, m, p):
        return gaussian_binomial(n, m, p) + ((n, m) == (2, 1))

    # n = 2 compares C(2,1) with enumeration and Pascal's rule; n = 3 feeds
    # C(2,1) into the closed form of the energy identity
    manifest = run_identity_suite(primes=(3,), dims=(2, 3), binomial=off_by_one)
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
    real = suite._dual_point_blocks

    def with_origin_twice(directions):
        # the origin is in every dual already: counting it again adds |E|^2 / p^(n-d)
        for points in real(directions):
            yield np.concatenate([points, np.zeros((len(points), 1), dtype=np.int64)], axis=1)

    monkeypatch.setattr(suite, "_dual_point_blocks", with_origin_twice)
    manifest = run_identity_suite(primes=(3,), dims=(2,))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert manifest["all_pass"] is False
    for name in ("subspace_plancherel", "energy_identity_spectral"):
        assert not checks[name]["pass"]
        # the empty set's spectrum vanishes, so no fault in the duals reaches
        # its checks; every instance of the five other sets fails
        empty = checks[name]["instances"] // 6
        assert checks[name]["failure_count"] == checks[name]["instances"] - empty
        assert all(w["set"] != "empty" for w in checks[name]["failures"])
    witness = checks["energy_identity_spectral"]["failures"][0]
    # G(2,0) is one direction with the whole plane as its dual, so the full
    # set's spectral side is off by exactly |E|^2 / p^2 = 9
    assert witness["set"] == "full" and witness["m"] == 0
    assert witness["diff"] == pytest.approx(9.0)
    for name in ("energy_identity", "coset_decomposition", "plancherel"):
        assert checks[name]["pass"]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (7, 2)])
def test_subspace_plancherel_sides_are_those_of_the_library(monkeypatch, p, n):
    witnesses = []
    record = suite._Check.record

    def spy(self, ok, **witness):
        if self.name == "subspace_plancherel":
            witnesses.append(witness)
        record(self, ok, **witness)

    monkeypatch.setattr(suite._Check, "record", spy)
    run_identity_suite(primes=(p,), dims=(n,), seed=3)
    space = AmbientSpace(p, n)
    sets = dict(suite._test_sets(space, 3))
    assert len(witnesses) == len(sets) * sum(gaussian_binomial(n, d, p) for d in range(n + 1))
    for w in witnesses:
        W = Subspace.from_rows(space, w["subspace"])
        lhs, rhs, _ = subspace_plancherel(sets[w["set"]], W)
        assert (w["lhs"], w["rhs"]) == (lhs, rhs)  # the float to the bit, not merely close


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
