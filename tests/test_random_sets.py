import math

import numpy as np
import pytest

from ffproj import random_sets, subspaces
from ffproj.core import AmbientSpace, PointSet
from ffproj.projections import projection_sizes
from ffproj.random_sets import (
    PercolationModel,
    chebyshev_size_check,
    chernoff_bound,
    mu_lower_bound,
    percolation_sample,
    smallest_prime_with_chain,
    verify_large_regime,
    verify_small_regime,
)
from ffproj.subspaces import SubspaceArray

from oracles import one_draw_mask


def test_sample_determinism_bit_exact():
    model = PercolationModel.from_exponent(AmbientSpace(5, 2), 1.0, seed=42)
    a = percolation_sample(model, trial=3)
    b = percolation_sample(model, trial=3)
    assert a == b
    assert np.array_equal(a.mask, b.mask)
    c = percolation_sample(model, trial=4)
    assert not np.array_equal(a.mask, c.mask)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_campaign_sampler_draws_the_bits_of_a_fresh_philox_per_trial(seed):
    fresh = one_draw_mask

    # draws of 13^3 and of 3^2 points each leave a part-used buffer that the next must not read
    large = PercolationModel(AmbientSpace(13, 3), 0.3, seed)
    small = PercolationModel(AmbientSpace(3, 2), 0.5, seed)
    sample = random_sets._sampler()
    for t in range(51):
        for model in (large, small) if t % 2 else (small, large):
            assert np.array_equal(sample(model, t), fresh(model, t))
        assert np.array_equal(percolation_sample(large, t).mask, fresh(large, t))
    mean = chebyshev_size_check(large, 51).mean_size
    assert mean == np.mean([np.count_nonzero(fresh(large, t)) for t in range(51)])


@pytest.mark.parametrize("cap", [1, 8, 40, 8 * 13**3 - 8, 8 * 13**3, 1 << 20])
def test_block_drawn_masks_equal_one_draw_masks(monkeypatch, cap):
    # blocks of one uniform, of one and of five, one block short of a 13^3 trial (its
    # last block holds one uniform), one block a trial, and the default cap
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    models = (PercolationModel(AmbientSpace(13, 3), 0.3, 7),
              PercolationModel(AmbientSpace(3, 2), 0.5, 2**64 - 1),
              PercolationModel(AmbientSpace(31, 2), 0.05, 0))
    sample = random_sets._sampler()
    for t in range(4):
        for model in models:
            assert np.array_equal(sample(model, t), one_draw_mask(model, t))
    assert percolation_sample(models[0], 5) == PointSet(models[0].space, one_draw_mask(models[0], 5))


def test_sample_depends_on_seed():
    space = AmbientSpace(5, 2)
    a = percolation_sample(PercolationModel(space, 0.5, seed=1), trial=0)
    b = percolation_sample(PercolationModel(space, 0.5, seed=2), trial=0)
    assert not np.array_equal(a.mask, b.mask)


def test_sample_extreme_densities():
    space = AmbientSpace(3, 2)
    assert percolation_sample(PercolationModel(space, 1.0, seed=0)).cardinality == 9
    assert percolation_sample(PercolationModel(space, 0.0, seed=0)).cardinality == 0


def test_model_validation():
    space = AmbientSpace(3, 2)
    with pytest.raises(ValueError):
        PercolationModel(space, 1.5, seed=0)
    with pytest.raises(ValueError):
        PercolationModel(space, 0.5, seed=-1)
    with pytest.raises(ValueError):
        PercolationModel(space, 0.5, seed=0, s=1.0)  # 3^(1-2) != 0.5
    PercolationModel(space, 3.0 ** (1 - 2), seed=0, s=1.0)


def test_sample_mean_within_four_sigma():
    space = AmbientSpace(7, 2)
    model = PercolationModel.from_exponent(space, 1.0, seed=9)
    trials = 10_000
    sizes = np.array(
        [percolation_sample(model, t).cardinality for t in range(trials)]
    )
    mean = space.point_count * model.delta
    var = space.point_count * model.delta * (1 - model.delta)
    sigma_of_mean = math.sqrt(var / trials)
    assert abs(sizes.mean() - mean) <= 4 * sigma_of_mean


def test_chernoff_bound_values():
    assert chernoff_bound(100, 0.5) == pytest.approx(math.exp(-50 / 16))
    assert chernoff_bound(10, 0.0) == 1.0
    assert chernoff_bound(16, 1.0) == pytest.approx(math.exp(-1))
    with pytest.raises(ValueError):
        chernoff_bound(0, 0.5)


def test_mu_lower_bound_example():
    chain = mu_lower_bound(5, 2, 1, 1.0)
    assert chain.delta_prime == pytest.approx(1 - (1 - 1 / 5) ** 5)
    assert chain.mu == pytest.approx(5 * chain.delta_prime)
    assert chain.mu >= 5 / 6
    assert chain.holds


def test_mu_at_s_equals_m_limit():
    # delta' -> 1 - (1 - p^(m-n))^(p^(n-m)) >= 1 - 1/e
    for p in (3, 5, 11, 31):
        chain = mu_lower_bound(p, 2, 1, 1.0)
        assert chain.mu / p >= 1 - math.exp(-1) - 1e-12


def test_mu_fractional_exponent():
    chain = mu_lower_bound(3, 2, 1, 0.5)
    assert 0 < chain.delta_prime < 1
    assert chain.mu == pytest.approx(3 * chain.delta_prime)


def test_mu_rejects_large_exponent():
    with pytest.raises(ValueError):
        mu_lower_bound(5, 2, 1, 1.5)  # s > m is the other regime


def test_smallest_prime_with_chain():
    first, chains = smallest_prime_with_chain(2, 1, 1.0, [2, 3, 5, 7])
    assert first == 2  # chain holds for every prime when s <= m
    assert all(c.holds for c in chains)


def test_small_regime_report_shape():
    report = verify_small_regime(7, 2, 1, 1.0, trials=40, seed=42)
    assert report.trials == 40
    assert len(report.sizes) == 40
    assert 0.0 <= report.success_rate <= 1.0
    assert report.mu == pytest.approx(mu_lower_bound(7, 2, 1, 1.0).mu)
    d = report.to_json_dict()
    assert d["theorem"] == "small"
    assert set(d) >= {
        "p", "n", "m", "s", "delta", "seed", "trials",
        "size_window_pass", "min_projection_stats", "success_rate",
    }


def test_small_regime_success_definition():
    report = verify_small_regime(7, 2, 1, 1.0, trials=40, seed=42)
    expected = np.mean(
        [
            (7**1.0 / 2 <= sz <= 2 * 7**1.0) and 24 * mn >= sz
            for sz, mn in zip(report.sizes, report.min_images)
        ]
    )
    assert report.success_rate == pytest.approx(float(expected))


def test_small_regime_reproducible():
    a = verify_small_regime(7, 2, 1, 1.0, trials=20, seed=7)
    b = verify_small_regime(7, 2, 1, 1.0, trials=20, seed=7)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.sizes == b.sizes and a.min_images == b.min_images


def test_small_regime_rejects_wrong_exponent():
    with pytest.raises(ValueError):
        verify_small_regime(7, 2, 1, 1.5, trials=5)


def test_large_regime_full_density():
    report = verify_large_regime(5, 2, 1, 2.0, trials=10, seed=0)  # delta = 1
    assert report.success_rate == 1.0
    assert report.plane_miss_rate == 0.0


def test_large_regime_report():
    report = verify_large_regime(7, 2, 1, 1.7, trials=40, seed=42)
    assert report.plane_miss_bound == pytest.approx(math.exp(-(7.0 ** 0.7)))
    assert all(
        full == (mn == 7) for full, mn in zip(report.full_flags, report.min_images)
    )
    d = report.to_json_dict()
    assert d["theorem"] == "large"
    assert "plane_miss_rate" in d


def test_large_regime_plane_count():
    from ffproj.subspaces import affine_count, gaussian_binomial

    report = verify_large_regime(5, 3, 1, 2.0, trials=5, seed=1)
    # directions * cosets = |A(3,2)| planes checked per trial
    assert affine_count(AmbientSpace(5, 3), 2) == 5 * gaussian_binomial(3, 2, 5) == 155
    assert report.trials == 5


def test_large_regime_rejects_wrong_exponent():
    with pytest.raises(ValueError):
        verify_large_regime(7, 2, 1, 0.5, trials=5)


def test_chebyshev_size_check():
    space = AmbientSpace(7, 2)
    model = PercolationModel.from_exponent(space, 1.0, seed=3)
    result = chebyshev_size_check(model, trials=2000)
    assert result.bound == pytest.approx(
        4 * (1 - model.delta) / (space.point_count * model.delta)
    )
    assert result.ok
    assert result.empirical_rate <= result.bound + result.slack


@pytest.mark.parametrize("check", [
    lambda: verify_small_regime(3, 2, 1, 1.0, trials=-1),
    lambda: verify_large_regime(3, 2, 1, 2.0, trials=-1),
    lambda: chebyshev_size_check(PercolationModel(AmbientSpace(3, 2), 0.5, seed=0), -1),
], ids=["small", "large", "chebyshev"])
def test_negative_trial_counts_are_refused(check):
    with pytest.raises(ValueError, match="need trials >= 0, got -1"):
        check()


def test_chebyshev_without_trials_reads_zero():
    result = chebyshev_size_check(PercolationModel(AmbientSpace(3, 2), 0.5, seed=0), 0)
    assert result.empirical_rate == 0.0 and result.mean_size == 0.0 and result.ok


def test_chebyshev_degenerate_density():
    space = AmbientSpace(3, 2)
    model = PercolationModel(space, 1.0, seed=0)
    result = chebyshev_size_check(model, trials=50)
    assert result.empirical_rate == 0.0 and result.ok


def test_sampled_sets_respect_projection_invariants():
    # piggyback: the projection module's cap holds on every sampled set
    model = PercolationModel.from_exponent(AmbientSpace(5, 2), 1.2, seed=8)
    for t in range(20):
        E = percolation_sample(model, t)
        _, sizes = projection_sizes(E, 1)
        for sz in sizes.tolist():
            if E.cardinality:
                assert 1 <= sz <= min(E.cardinality, 5)
            else:
                assert sz == 0


def test_small_regime_exists_direction_bound():
    # frequency of { some direction has image <= mu/2 } stays under the
    # union bound 2 p^(m(n-m)) exp(-p^s/96) plus statistical slack
    p, n, m, s = 13, 2, 1, 1.0
    report = verify_small_regime(p, n, m, s, trials=200, seed=11)
    freq = float(np.mean([2 * mn <= report.mu for mn in report.min_images]))
    bound = 2 * p ** (m * (n - m)) * math.exp(-(p**s) / 96)
    slack = 3 * math.sqrt(min(1.0, bound) * 1.0 / 200) if bound < 1 else 0.0
    assert freq <= bound + slack


def _per_trial_sweep(model, m, trials, directions):
    """Reference for the batched sweep: one projection_sizes call per trial."""
    p_m = model.space.p**m
    sizes, mins, fulls, empty = [], [], [], 0
    for t in range(trials):
        E = percolation_sample(model, t)
        _, image_sizes = projection_sizes(E, m, directions=directions)
        sizes.append(E.cardinality)
        mins.append(int(image_sizes.min()))
        fulls.append(bool((image_sizes == p_m).all()))
        empty += int((p_m - image_sizes).sum())
    return sizes, mins, fulls, empty


@pytest.mark.parametrize("p,n,m,delta,trials", [
    (5, 3, 1, 5.0 ** (1 - 3), 30),  # small regime, s = 1 <= m
    (5, 3, 1, 5.0 ** (2.5 - 3), 30),  # large regime, s = 2.5 > m
    (3, 4, 2, 3.0 ** (3 - 4), 12),  # large regime over G(4, 2)
    (7, 2, 1, 0.01, 40),  # half a point per sample on average: some samples are empty
    (5, 3, 1, 0.2, 0),  # no trials
])
@pytest.mark.parametrize("cap", [0, 1000, 1 << 20])
def test_batched_sweep_matches_per_trial_loop(monkeypatch, p, n, m, delta, trials, cap):
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    space = AmbientSpace(p, n)
    model = PercolationModel(space, delta, seed=p * n + m)
    directions = SubspaceArray.grassmannian(space, n - m)
    groups = list(random_sets._trial_groups(model, m, trials))
    assert sum(len(g) for g in groups) == trials
    if cap == 0:
        assert len(groups) == trials  # a trial that does not fit is a group of its own
    elif trials:
        assert (len(groups) > 1) == (cap == 1000)
    got = random_sets._sweep(model, m, trials, directions)
    assert got == _per_trial_sweep(model, m, trials, directions)
    if delta == 0.01:
        assert 0 in got[0]

