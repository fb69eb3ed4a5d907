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
