import math
import re

import numpy as np
import pytest

from ffproj import random_sets, subspaces
from ffproj.core import AmbientSpace, PointSet
from ffproj.projections import coset_counts, projection_sizes
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


def _campaign_masks(model, first, stop):
    """The masks of trials first, ..., stop - 1 from one campaign of the sampler, as rows."""
    size = model.space.point_count
    masks = np.zeros((stop - first, size), dtype=bool)
    done = 0
    for trial, point, counts in random_sets._samples(model, first, stop):
        keys = trial * size + point
        assert np.all(np.diff(keys) > 0)  # by trial, then by point
        assert np.array_equal(counts, np.bincount(trial, minlength=len(counts)))
        assert len(counts) >= 1 and trial.max(initial=0) < len(counts)
        masks[done + trial, point] = True
        done += len(counts)
    assert done == stop - first
    return masks


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_campaign_sampler_draws_the_bits_of_a_fresh_philox_per_trial(seed):
    fresh = one_draw_mask

    # one-trial campaigns of 13^3 and of 3^2 points in turn share the thread's Philox, and
    # each leaves a part-used buffer that the next must not read; then all 51 in one
    large = PercolationModel(AmbientSpace(13, 3), 0.3, seed)
    small = PercolationModel(AmbientSpace(3, 2), 0.5, seed)
    for t in range(51):
        for model in (large, small) if t % 2 else (small, large):
            assert np.array_equal(_campaign_masks(model, t, t + 1)[0], fresh(model, t))
        assert np.array_equal(percolation_sample(large, t).mask, fresh(large, t))
    for model in (large, small):
        masks = _campaign_masks(model, 0, 51)
        for t in range(51):
            assert np.array_equal(masks[t], fresh(model, t))
    mean = chebyshev_size_check(large, 51).mean_size
    assert mean == np.mean([np.count_nonzero(fresh(large, t)) for t in range(51)])


@pytest.mark.parametrize("cap", [1, 8, 40, 8 * 13**3 - 8, 8 * 13**3, 1 << 20])
def test_block_drawn_masks_equal_one_draw_masks(monkeypatch, cap):
    # masks of one point and raw-word blocks of one word; masks of 8 and of 40 points
    # (several 3^2 trials a mask) and blocks of one and of five words; blocks one word
    # short of a 13^3 trial (its last block holds one word) and of a trial, 7 and 8 of
    # its trials a mask; and the default cap
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    models = (PercolationModel(AmbientSpace(13, 3), 0.3, 7),
              PercolationModel(AmbientSpace(3, 2), 0.5, 2**64 - 1),
              PercolationModel(AmbientSpace(31, 2), 0.05, 0))
    for model in models:
        masks = _campaign_masks(model, 0, 4)
        for t in range(4):
            assert np.array_equal(masks[t], one_draw_mask(model, t))
            assert np.array_equal(_campaign_masks(model, t, t + 1)[0], one_draw_mask(model, t))
    assert percolation_sample(models[0], 5) == PointSet(models[0].space, one_draw_mask(models[0], 5))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("cap", [8, 9, 40, 1 << 20])
@pytest.mark.parametrize("delta", [
    0.0, 2.0**-53, 3 * 2.0**-53, 0.5, 1 - 2.0**-53, 1.0,
    0.625,  # delta 2^53 an integer
    0.3,  # delta 2^53 not an integer: the ceiling
])
def test_integer_threshold_keeps_the_points_of_the_float_test(monkeypatch, seed, cap, delta):
    # a mask of 8 points (a 3^2 trial goes in blocks), of 9 (one trial) and of 40 (four)
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    model = PercolationModel(AmbientSpace(3, 2), delta, seed)
    masks = _campaign_masks(model, 0, 6)
    for t in range(6):
        assert np.array_equal(masks[t], one_draw_mask(model, t))
    if delta in (0.0, 1.0):
        assert (masks == bool(delta)).all()


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
    assert PercolationModel.from_exponent(space, 1.0, seed=0).delta == 3.0 ** (1 - 2)


@pytest.mark.parametrize("seed", [1.5, -1, 2**64, float("nan")])
def test_seeds_outside_the_uint64_integers_are_refused(seed):
    # a uint64 key would truncate 1.5 to the seed 1 and draw its sets
    message = f"seed must be an integer in [0, 2^64), got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PercolationModel(AmbientSpace(5, 2), 0.5, seed)


def test_an_integral_float_seed_is_the_int_seed():
    model = PercolationModel(AmbientSpace(5, 2), 0.5, 1.0)
    assert type(model.seed) is int and model == PercolationModel(AmbientSpace(5, 2), 0.5, 1)


@pytest.mark.parametrize("trial", [1.5, -1, 2**64])
def test_trials_outside_the_uint64_integers_are_refused(trial):
    model = PercolationModel(AmbientSpace(5, 2), 0.5, 1)
    message = f"trial must be an integer in [0, 2^64), got {trial!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        percolation_sample(model, trial)
    last = percolation_sample(model, 2**64 - 1)  # the last trial a uint64 key holds
    assert last == percolation_sample(model, np.uint64(2**64 - 1))


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
    """Reference for the batched sweep: each trial's histograms over the directions, one sweep each."""
    p_m = model.space.p**m
    sizes, mins, fulls, empty = [], [], [], 0
    for t in range(trials):
        E = percolation_sample(model, t)
        image_sizes = np.array([np.count_nonzero(h) for h in coset_counts(E, directions)])
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
    groups, real_sizes = [], random_sets._image_sizes

    def image_sizes(digits, tags, ntags, directions):
        groups.append(ntags)
        return real_sizes(digits, tags, ntags, directions)

    monkeypatch.setattr(random_sets, "_image_sizes", image_sizes)
    got = random_sets._sweep(model, m, trials, directions)
    assert sum(groups) == trials
    if cap == 0:
        assert len(groups) == trials  # a trial that does not fit is a group of its own
    elif trials:
        assert (len(groups) > 1) == (cap == 1000)
    assert got == _per_trial_sweep(model, m, trials, directions)
    if delta == 0.01:
        assert 0 in got[0]


def test_dense_campaign_groups_keep_every_kernel_array_under_the_cap(monkeypatch):
    # 200 trials of about 31^1.3 = 87 points: in one group, a pencil's bins alone would
    # take 8 * 200 * 31^2 bytes.  Every kernel array is a bincount's keys or bins, or no
    # larger than its bins.  The sampler's bool mask and raw-word blocks stay under it too
    arrays, groups, masks, words = [], [], [], []
    real_bincount, real_sizes, real_flatnonzero = np.bincount, random_sets._image_sizes, np.flatnonzero

    def bincount(keys, *args, **kwargs):
        counts = real_bincount(keys, *args, **kwargs)
        arrays.extend((keys.nbytes, counts.nbytes))
        return counts

    def image_sizes(digits, tags, ntags, directions):
        groups.append(ntags)
        return real_sizes(digits, tags, ntags, directions)

    def flatnonzero(a):
        masks.append(a.nbytes if a.base is None else a.base.nbytes)
        return real_flatnonzero(a)

    class Philox(np.random.Philox):
        def random_raw(self, size=None, output=True):
            words.append(8 * size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np, "bincount", bincount)
    monkeypatch.setattr(np, "flatnonzero", flatnonzero)
    monkeypatch.setattr(np.random, "Philox", Philox)
    monkeypatch.delattr(random_sets._THREAD, "philox", raising=False)  # built again, as a spy
    monkeypatch.setattr(random_sets, "_image_sizes", image_sizes)
    report = verify_large_regime(31, 2, 1, 1.3, 200)
    monkeypatch.undo()
    assert max(arrays) <= subspaces._KERNEL_BYTES
    assert len(words) == 200 and max(words) <= subspaces._KERNEL_BYTES
    assert masks and max(masks) <= subspaces._KERNEL_BYTES
    assert len(groups) > 1 and sum(groups) == 200
    model = PercolationModel.from_exponent(AmbientSpace(31, 2), 1.3, seed=0)
    sizes, mins, fulls, empty = _per_trial_sweep(
        model, 1, 200, SubspaceArray.grassmannian(model.space, 1)
    )
    assert (report.sizes, report.min_images, report.full_flags) == (sizes, mins, fulls)
    assert report.plane_miss_rate == empty / (200 * 32 * 31)


@pytest.mark.parametrize("s,cap,cut", [(1.0, 1 << 20, False), (1.0, 1 << 16, False), (2.0, 90_000, True)])
def test_campaign_reads_the_route_per_group_and_the_mask_per_fill(monkeypatch, s, cap, cut):
    # 40 trials of F_13^3 (2197 points each): the default cap and 90,000 bytes hold them in
    # one mask, 2^16 bytes 29 a mask.  At s = 2 a group of 40 would take a word-route
    # chunk of 8 (40 * 169 + 40 * 13^2) bytes, over 90,000, so the run is cut by bisection.
    # A per-trial sampler would read _route and flatnonzero 40 times
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", cap)
    model = PercolationModel.from_exponent(AmbientSpace(13, 3), s, seed=5)
    directions = SubspaceArray.grassmannian(model.space, 2)
    routes, groups, fills = [], [], []
    real_route, real_sizes, real_flatnonzero = random_sets._route, random_sets._image_sizes, np.flatnonzero

    def route(*args, **kwargs):
        routes.append(args)
        return real_route(*args, **kwargs)

    def image_sizes(digits, tags, ntags, directions):
        groups.append(ntags)
        return real_sizes(digits, tags, ntags, directions)

    def flatnonzero(a):
        fills.append(a.size)
        return real_flatnonzero(a)

    monkeypatch.setattr(random_sets, "_route", route)
    monkeypatch.setattr(random_sets, "_image_sizes", image_sizes)
    got = random_sets._sweep(model, 1, 40, directions)
    assert sum(groups) == 40
    assert len(routes) <= len(groups) * (math.ceil(math.log2(40)) + 1)
    monkeypatch.setattr(np, "flatnonzero", flatnonzero)
    runs = list(random_sets._samples(model, 0, 40))
    monkeypatch.undo()
    per_mask = max(1, cap // 13**3)
    assert len(fills) == len(runs) == math.ceil(40 / per_mask)
    assert fills[0] == min(40, per_mask) * 13**3
    assert (len(groups) > len(runs)) == cut
    assert got == _per_trial_sweep(model, 1, 40, directions)


def test_campaigns_in_threads_and_interleaved_draw_their_own_trials(monkeypatch):
    # each thread builds its own Philox, and every run of a campaign sets its state first,
    # so campaigns run at once in threads, or interleaved in one, draw the masks of one draw
    import sys
    import threading

    models = [PercolationModel(AmbientSpace(13, 3), 0.05 * (k + 1), seed=k) for k in range(6)]
    expected = [[one_draw_mask(model, t) for t in range(5)] for model in models]
    results = [None] * len(models)

    def work(k):
        results[k] = _campaign_masks(models[k], 0, 5)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)
    # a mask of one trial: two campaigns advanced in turn in one thread, run by run
    monkeypatch.setattr(subspaces, "_KERNEL_BYTES", 13**3)
    runs = zip(*(random_sets._samples(model, 0, 5) for model in models[:2]))
    for t, pair in enumerate(runs):
        for k, (_, points, counts) in enumerate(pair):
            assert len(counts) == 1 and np.array_equal(points, np.flatnonzero(expected[k][t]))


def test_sparse_campaign_of_a_large_space_sweeps_in_one_group(monkeypatch):
    # a 101^3 trial (1,030,301 points) fills a mask of its own, so each run of the sampler
    # holds one trial; 40 trials of about 101 points still go in one group, left open from
    # run to run, as they did when groups were cut trial by trial
    model = PercolationModel.from_exponent(AmbientSpace(101, 3), 1.0, seed=3)
    directions = SubspaceArray.grassmannian(model.space, 2)
    groups, real_sizes = [], random_sets._image_sizes

    def image_sizes(digits, tags, ntags, directions):
        groups.append(ntags)
        return real_sizes(digits, tags, ntags, directions)

    monkeypatch.setattr(random_sets, "_image_sizes", image_sizes)
    sizes, mins, fulls, empty = random_sets._sweep(model, 1, 40, directions)
    monkeypatch.undo()
    assert groups == [40]
    last = PointSet(model.space, one_draw_mask(model, 39))
    image = np.array([np.count_nonzero(h) for h in coset_counts(last, directions)])
    assert (sizes[-1], mins[-1], fulls[-1]) == (last.cardinality, image.min(), False)
    assert sizes[0] == np.count_nonzero(one_draw_mask(model, 0))
