import pytest

from ffproj import suite
from ffproj.fourier import TOLERANCE
from ffproj.subspaces import gaussian_binomial
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
    real = suite.subspace_plancherel

    def shifted(E, W, spectrum=None):
        lhs, rhs, _ = real(E, W, spectrum=spectrum)
        rhs += 1.0
        return lhs, rhs, abs(lhs - rhs) <= TOLERANCE * max(1.0, lhs)

    monkeypatch.setattr(suite, "subspace_plancherel", shifted)
    manifest = run_identity_suite(primes=(3,), dims=(2,))
    checks = {c["name"]: c for c in manifest["checks"]}
    assert manifest["all_pass"] is False
    for name in ("subspace_plancherel", "energy_identity_spectral"):
        assert not checks[name]["pass"]
        assert checks[name]["failure_count"] == checks[name]["instances"]
    witness = checks["energy_identity_spectral"]["failures"][0]
    # G(2,0) is one direction, so its spectral side is off by exactly 1
    assert witness["m"] == 0 and witness["diff"] == pytest.approx(1.0)
    for name in ("energy_identity", "coset_decomposition", "plancherel"):
        assert checks[name]["pass"]


def test_cell_enumerates_each_grassmannian_once(monkeypatch):
    from ffproj import subspaces

    calls = []
    real = subspaces._grassmannian_stream

    def counted(space, m):
        calls.append(m)
        return real(space, m)

    monkeypatch.setattr(subspaces, "_grassmannian_stream", counted)
    manifest = run_identity_suite(primes=(2,), dims=(4,))
    assert manifest["all_pass"] is True
    assert sorted(calls) == [0, 1, 2, 3, 4]  # the census sweeps reuse the cell's G(4, d)
