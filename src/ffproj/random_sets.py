"""Percolation on F_p^n: seeded random subsets and projection statistics.

The model Omega(F_p^n, delta) keeps each point independently with
probability delta.  Sampling is counter-based: trial t of a model with seed
s reads one raw word per point from a Philox stream keyed by (s, t) (:func:`_samples`),
so any trial can be regenerated bit-for-bit without replaying earlier trials.

With delta = p^(s-n) the sample has ~p^s points, and the image of a sample
along W in G(n, n-m) is binomially distributed over the p^m cosets with
per-coset hit probability delta' = 1 - (1-delta)^(p^(n-m)).  The regime
sweeps record, per trial, the size window p^s/2 <= |E| <= 2 p^s and either
min_W |image| >= |E|/24 (s <= m) or "every projection full" (s > m).
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import AmbientSpace, PointSet, digits_of
from . import subspaces
from .projections import _image_sizes, _route
from .subspaces import SubspaceArray, _block_rows

_THREAD = threading.local()  # each thread's Philox, built by :func:`_samples`
__all__ = [
    "PercolationModel",
    "percolation_sample",
    "chernoff_bound",
    "MuChain",
    "mu_lower_bound",
    "smallest_prime_with_chain",
    "PercolationReport",
    "verify_small_regime",
    "verify_large_regime",
    "SizeConcentration",
    "chebyshev_size_check",
]


@dataclass(frozen=True)
class PercolationModel:
    """Independent site percolation with density delta and a 64-bit seed."""

    space: AmbientSpace
    delta: float
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")

    @classmethod
    def from_exponent(
        cls, space: AmbientSpace, s: float, seed: int
    ) -> "PercolationModel":
        """The model of exponent s: delta = p^(s-n), so a sample has about p^s points."""
        return cls(space, float(space.p) ** (s - space.n), seed)


def percolation_sample(model: PercolationModel, trial: int = 0) -> PointSet:
    """Sample one random subset; reproducible per (seed, trial index)."""
    mask = np.zeros(model.space.point_count, dtype=bool)
    mask[next(_samples(model, trial, trial + 1))[1]] = True
    return PointSet(model.space, mask)


def _samples(
    model: PercolationModel, first: int, stop: int
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """(trial within the run, point) pairs and point counts of trials first, ..., stop - 1, by run.

    A run is the whole trials one reused bool mask of at most the kernel cap holds (a larger
    trial fills it block by block); one ``flatnonzero`` and ``divmod`` a fill give its pairs,
    by trial, then point.  Trial t keeps x when the x-th raw word w of a fresh
    Philox(key=(seed, t)) has (w >> 11) < ceil(delta 2^53), the test (w >> 11) 2^-53 < delta
    of ``Generator.random``, made as w < ceil(delta 2^53) 2^11.  Words come in blocks of at
    most the cap.
    """
    size = model.space.point_count
    limit = math.ceil(math.ldexp(model.delta, 53)) << 11
    limit = np.uint64(limit) if limit < 2**64 else limit  # 2^64 at delta = 1: every word
    words = _block_rows(8)
    run = max(1, _block_rows(1) // size)  # whole trials a mask holds
    mask = np.empty(min(_block_rows(1), run * size, (stop - first) * size), dtype=bool)
    key, zeros = np.array([model.seed, 0], dtype=np.uint64), np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    if not hasattr(_THREAD, "philox"):  # one a thread: a Philox costs more than a small trial
        _THREAD.philox = np.random.Philox(0)
    bits = _THREAD.philox  # each trial sets its whole state
    for start in range(first, stop, run):
        total = min(run, stop - start) * size
        found = []
        for lo in range(0, total, len(mask)):  # one fill, or the blocks of a larger trial
            at, hi = lo, min(total, lo + len(mask))
            while at < hi:
                t, offset = divmod(at, size)
                if not offset:  # a fresh Philox(key=(seed, t))
                    key[1] = start + t
                    bits.state = state
                end = min(hi, at + words, at - offset + size)
                np.less(bits.random_raw(end - at), limit, out=mask[at - lo : end - lo])
                at = end
            found.append(np.flatnonzero(mask[: hi - lo]) + lo)
        trial, point = np.divmod(found[0] if len(found) == 1 else np.concatenate(found), size)
        found.clear()  # the run's hits go before it is swept
        yield trial, point, np.bincount(trial, minlength=total // size)


def chernoff_bound(N: int, delta_prime: float) -> float:
    """exp(-N delta'/16): tail bound for a binomial falling below half its mean."""
    if N < 1:
        raise ValueError("need N >= 1")
    if not 0.0 <= delta_prime <= 1.0:
        raise ValueError("delta' must lie in [0, 1]")
    return math.exp(-N * delta_prime / 16.0)


@dataclass
class MuChain:
    """The chain of estimates putting the per-direction image mean above p^s/6."""

    p: int
    n: int
    m: int
    s: float
    delta: float
    delta_prime: float
    mu: float
    exp_step: float  # p^m (1 - exp(-p^(s-m)))
    poly_step: float  # p^m (p^(s-m) - 5 p^(2(s-m))/6)
    floor: float  # p^s / 6
    holds: bool


def mu_lower_bound(p: int, n: int, m: int, s: float) -> MuChain:
    """Evaluate mu = p^m delta' and the chain mu >= ... >= p^s/6 numerically.

    Requires 0 < s <= m, where p^(s-m) <= 1 makes every link in the chain
    valid for all primes.
    """
    if not 0 < s <= m:
        raise ValueError(f"need 0 < s <= m, got s={s}, m={m}")
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    delta = float(p) ** (s - n)
    delta_prime = 1.0 - (1.0 - delta) ** (p ** (n - m))
    mu = p**m * delta_prime
    x = float(p) ** (s - m)
    exp_step = p**m * (1.0 - math.exp(-x))
    poly_step = p**m * (x - 5.0 * x**2 / 6.0)
    floor = float(p) ** s / 6.0
    # links compared with relative slack; at s = m the last two tie exactly
    eps = 1e-12
    holds = (
        mu >= floor
        and mu >= exp_step * (1.0 - eps)
        and exp_step >= poly_step * (1.0 - eps)
        and poly_step >= floor * (1.0 - eps)
    )
    return MuChain(p, n, m, s, delta, delta_prime, mu, exp_step, poly_step, floor, holds)


def smallest_prime_with_chain(
    n: int, m: int, s: float, primes: Sequence[int]
) -> tuple[int | None, list[MuChain]]:
    """First prime in the grid where the whole chain holds, plus all evaluations."""
    chains = [mu_lower_bound(p, n, m, s) for p in primes]
    first = next((c.p for c in chains if c.holds), None)
    return first, chains


@dataclass
class PercolationReport:
    """Per-trial projection statistics for one percolation configuration."""

    regime: str
    p: int
    n: int
    m: int
    s: float
    delta: float
    seed: int
    trials: int
    sizes: list[int]
    min_images: list[int]
    full_flags: list[bool]
    size_window_pass: float
    success_rate: float
    mu: float | None = None
    mu_half_rate: float | None = None
    plane_miss_rate: float | None = None
    plane_miss_bound: float | None = None

    def min_projection_stats(self) -> dict:
        if not self.min_images:
            return {"min": None, "mean": None}
        return {
            "min": int(min(self.min_images)),
            "mean": float(np.mean(self.min_images)),
        }

    def to_json_dict(self) -> dict:
        out = {
            "theorem": self.regime,
            "p": self.p,
            "n": self.n,
            "m": self.m,
            "s": self.s,
            "delta": self.delta,
            "seed": self.seed,
            "trials": self.trials,
            "size_window_pass": self.size_window_pass,
            "min_projection_stats": self.min_projection_stats(),
            "success_rate": self.success_rate,
        }
        if self.mu is not None:
            out["mu"] = self.mu
            out["mu_half_rate"] = self.mu_half_rate
        if self.plane_miss_rate is not None:
            out["plane_miss_rate"] = self.plane_miss_rate
            out["plane_miss_bound"] = self.plane_miss_bound
        return out


def _group_stop(ends: list[int], start: int, count: int, directions: SubspaceArray) -> int:
    """The end of the group of trials from ``start``, ``ends[t]`` the points of trials before t.

    A group fits when its least chunk on its :func:`projections._route` stays under the cap:
    trials start, ..., count - 1 when they fit, else a fitting group whose next longer one does
    not fit, or one trial, by bisection.  So ``_route`` is read ceil(log2(count)) + 1 times at most.
    """

    def fits(stop: int) -> bool:
        chunk = _route(ends[stop] - ends[start], stop - start, directions, sizes=True)[1]
        return chunk <= subspaces._KERNEL_BYTES

    if fits(count):
        return count
    return start + 1 + bisect.bisect_left(range(start + 2, count), True, key=lambda t: not fits(t))


def _sweep(
    model: PercolationModel, m: int, trials: int, directions: SubspaceArray
) -> tuple[list[int], list[int], list[bool], int]:
    """Per-trial (|E|, min image, all-full flag) plus total empty-coset count.

    The trials of a group are labelled together: each point is tagged with
    its trial, and one kernel call over the directions gives the image size
    of every (direction, trial) pair.  Groups are cut from the campaign's
    cumulative point counts: a group still open at the end of a run of
    :func:`_samples` waits for the trials of the next.
    """
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    space = model.space
    p_m = space.p**m
    sizes, mins, fulls, empty = [], [], [], 0
    ends, start = [0], 0  # ends[t]: the points of trials before t; trials from start wait
    trial = point = np.zeros(0, dtype=np.int64)  # the waiting (trial, point) pairs
    for run, hits, counts in _samples(model, 0, trials):
        run += len(sizes)
        if start < len(sizes):
            run, hits = np.concatenate([trial, run]), np.concatenate([point, hits])
        trial, point, base = run, hits, ends[start]  # base: the points before trial[0]
        sizes += counts.tolist()
        ends += (ends[-1] + np.cumsum(counts)).tolist()
        while start < len(sizes):
            stop = _group_stop(ends, start, len(sizes), directions)
            if stop == len(sizes) < trials:
                break  # the group may take trials of the next run
            lo, hi = ends[start] - base, ends[stop] - base
            tags = np.subtract(trial[lo:hi], start, out=trial[lo:hi])  # the group's trials from 0
            image = _image_sizes(digits_of(space, point[lo:hi]), tags, stop - start, directions)
            mins += image.min(axis=0).tolist()
            fulls += (image == p_m).all(axis=0).tolist()
            empty += int((p_m - image).sum())
            start = stop
        trial, point = trial[ends[start] - base :], point[ends[start] - base :]
    return sizes, mins, fulls, empty


def _rate(flags: list[bool]) -> float:
    return float(np.mean(flags)) if flags else 0.0


def _campaign(
    regime: str, p: int, n: int, m: int, s: float, trials: int, seed: int
) -> tuple[PercolationReport, list[bool], float]:
    """Sweep ``trials`` sets of exponent s over G(n, n-m) into the fields every regime reports.

    Returns the report, whose ``success_rate`` the regime sets, each trial's
    size-window flag, and the share of (trial, direction, coset) triples left empty.
    """
    model = PercolationModel.from_exponent(AmbientSpace(p, n), s, seed)
    directions = SubspaceArray.grassmannian(model.space, n - m)
    sizes, mins, fulls, empty = _sweep(model, m, trials, directions)
    window = [p**s / 2.0 <= sz <= 2.0 * p**s for sz in sizes]
    planes = trials * len(directions) * p**m
    report = PercolationReport(
        regime=regime,
        p=p,
        n=n,
        m=m,
        s=s,
        delta=model.delta,
        seed=seed,
        trials=trials,
        sizes=sizes,
        min_images=mins,
        full_flags=fulls,
        size_window_pass=_rate(window),
        success_rate=0.0,
    )
    return report, window, empty / planes if planes else 0.0


def verify_small_regime(
    p: int, n: int, m: int, s: float, trials: int, seed: int = 0
) -> PercolationReport:
    """Sample sets of exponent s <= m; success = size window and min image >= |E|/24."""
    if not 0 < s <= m:
        raise ValueError(f"small regime needs 0 < s <= m, got s={s}, m={m}")
    report, window, _ = _campaign("small", p, n, m, s, trials, seed)
    mins, sizes = report.min_images, report.sizes
    report.success_rate = _rate([w and 24 * mn >= sz for w, mn, sz in zip(window, mins, sizes)])
    report.mu = mu_lower_bound(p, n, m, s).mu
    report.mu_half_rate = _rate([2 * mn >= report.mu for mn in mins])
    return report


def verify_large_regime(
    p: int, n: int, m: int, s: float, trials: int, seed: int = 0
) -> PercolationReport:
    """Sample sets of exponent s > m; success = every projection image is full."""
    if not m < s <= n:
        raise ValueError(f"large regime needs m < s <= n, got s={s}, m={m}")
    report, _, miss_rate = _campaign("large", p, n, m, s, trials, seed)
    report.plane_miss_rate = miss_rate
    report.success_rate = _rate(report.full_flags)
    report.plane_miss_bound = math.exp(-float(p) ** (s - m))
    return report


@dataclass
class SizeConcentration:
    """Empirical fluctuation rate of |E| against the Chebyshev tail bound."""

    trials: int
    expected_size: float
    mean_size: float
    empirical_rate: float
    bound: float
    slack: float
    ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def chebyshev_size_check(model: PercolationModel, trials: int) -> SizeConcentration:
    """Fraction of trials with ||E| - p^n delta| > p^n delta / 2.

    Must not exceed 4 p^n delta (1-delta) / (p^n delta)^2 plus three standard
    deviations of the frequency estimator.
    """
    if not 0.0 < model.delta <= 1.0:
        raise ValueError("need delta in (0, 1]")
    if trials < 0:
        raise ValueError(f"need trials >= 0, got {trials}")
    mean = model.space.point_count * model.delta
    sizes = np.concatenate([counts for _, _, counts in _samples(model, 0, trials)] or [[]])
    rate = float((np.abs(sizes - mean) > mean / 2.0).mean()) if trials else 0.0
    bound = 4.0 * (1.0 - model.delta) / mean  # 0 at delta = 1
    b = min(bound, 1.0)
    slack = 3.0 * math.sqrt(b * (1.0 - b) / trials) if trials else 0.0
    return SizeConcentration(
        trials=trials,
        expected_size=mean,
        mean_size=float(sizes.mean()) if trials else 0.0,
        empirical_rate=rate,
        bound=bound,
        slack=slack,
        ok=rate <= bound + slack,
    )
