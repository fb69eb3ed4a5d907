"""The four benchmark workloads: seeded inputs, CLI op lists, units of work, checks.

A workload is a fixed list of ``ffproj.cli.main([...])`` calls (one pass).
Every op carries the amount of work its semantics require, computed from the
inputs alone (never from the implementation), and the exact flags its report
must carry.  The benchmark runs whole passes in a closed loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORK_DIR = ".perfbench_work"
INPUT_DIR = os.path.join(WORK_DIR, "inputs")
OUT_DIR = os.path.join(WORK_DIR, "out")


def gaussian_binomial(n: int, m: int, p: int) -> int:
    """Number of m-dimensional subspaces of F_p^n (independent of ffproj)."""
    num = den = 1
    for i in range(m):
        num *= p**n - p**i
        den *= p**m - p**i
    return num // den


@dataclass(frozen=True)
class SeededSet:
    """A random subset of F_p^n keeping each point with probability p^(s-n)."""

    name: str
    p: int
    n: int
    s: float
    stream: int  # separates the sets drawn from one workload seed

    def path(self, root: str = INPUT_DIR) -> str:
        return os.path.join(root, f"{self.name}.pts")

    def write(self, seed: int, root: str = INPUT_DIR) -> int:
        """Write the ``ffpointset v1`` file for this seed; returns |E|."""
        p, n = self.p, self.n
        rng = np.random.default_rng([seed, self.stream])
        idx = np.flatnonzero(rng.random(p**n) < float(p) ** (self.s - n))
        digits = (idx[:, None] // p ** np.arange(n)) % p  # little-endian codec
        lines = [f"ffpointset 1 p={p} n={n}"]
        lines += [",".join(map(str, row)) for row in digits.tolist()]
        with open(self.path(root), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return int(idx.size)


@dataclass(frozen=True)
class Op:
    """One CLI call, the work its semantics require, and its problem size."""

    name: str
    argv: tuple[str, ...]
    work: int | None  # None: read from the report (verify instances)
    sizes: dict = field(default_factory=dict)  # provenance: p, n, m, |E|, directions, p^n
    side_file: str | None = None  # --sizes-csv / --dump path, digested with the report

    def out_path(self) -> str:
        return os.path.join(OUT_DIR, f"{self.name}.json")


@dataclass(frozen=True)
class Workload:
    unit: str  # the unit of work that work_per_s counts
    sets: tuple[SeededSet, ...]  # seeded input files written during set-up
    make_ops: Callable[[int], tuple[Op, ...]]


# Every call is kept under about 0.6 s, so that a 30 s run samples each op
# 20 to 50 times and its best latency is steady on a shared host (see RATIONALE.md).
A_SET = SeededSet("f23n3", 23, 3, 2.5, 1)
B_SET = SeededSet("f3n5", 3, 5, 4.0, 2)
PERCOLATE_TRIALS = 40  # trials per percolate call
VERIFY_CELLS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (11, 2))  # (p, n)


def _sizes(p, n, m=None, directions=None, E=None):
    return {"p": p, "n": n, "m": m, "E": E, "directions": directions, "p^n": p**n}


def _sweep(seed: int) -> tuple[Op, ...]:
    a, b = A_SET.path(), B_SET.path()
    g23 = gaussian_binomial(3, 1, 23)  # |G(3,2)| = |G(3,1)| = 553
    g3 = gaussian_binomial(5, 2, 3)  # |G(5,3)| = |G(5,2)| = 1210
    sizes_csv = os.path.join(OUT_DIR, "sweep_census_scales.csv")
    return (
        Op("census_small_f23n3",
           ("census", "--pointset", a, "--m", "1", "--kind", "small", "--N", "2"),
           g23, _sizes(23, 3, 1, g23)),
        Op("census_large_f23n3",
           ("census", "--pointset", a, "--m", "1", "--kind", "large", "--delta", "1/2"),
           g23, _sizes(23, 3, 1, g23)),
        Op("census_scales_f23n3",
           ("census", "--pointset", a, "--m", "1", "--kind", "scales", "--s", "5/2",
            "--t", "1", "--sizes-csv", sizes_csv),
           g23, _sizes(23, 3, 1, g23), sizes_csv),
        Op("energy_f23n3", ("energy", "--pointset", a, "--m", "1"),
           2 * g23, _sizes(23, 3, 1, g23)),
        Op("census_small_f3n5",
           ("census", "--pointset", b, "--m", "2", "--kind", "small", "--N", "2"),
           g3, _sizes(3, 5, 2, g3)),
        Op("energy_f3n5", ("energy", "--pointset", b, "--m", "2"),
           2 * g3, _sizes(3, 5, 2, g3)),
    )


def _percolate(seed: int) -> tuple[Op, ...]:
    ops = []
    for p, n, regime, s in ((31, 2, "small", "1"), (31, 2, "large", "1.7"),
                            (13, 3, "small", "1"), (13, 3, "large", "1.5")):
        g = gaussian_binomial(n, 1, p)
        ops.append(Op(
            f"percolate_{regime}_f{p}n{n}",
            ("percolate", "--regime", regime, "--p", str(p), "--n", str(n), "--m", "1",
             "--s", s, "--trials", str(PERCOLATE_TRIALS), "--seed", str(seed)),
            PERCOLATE_TRIALS, _sizes(p, n, 1, g, round(p ** float(s)))))
    return tuple(ops)


def _spectral(seed: int) -> tuple[Op, ...]:
    dump = os.path.join(OUT_DIR, "spectral_dump.csv")
    ops = []
    for builtin, p, n, extra in (
        ("paraboloid", 2, 18, ()),
        ("sphere", 2, 18, ("--r", "1")),
        ("sphere", 101, 3, ("--r", "1")),
        ("paraboloid", 31, 4, ()),
        ("paraboloid", 13, 5, ()),
    ):
        ops.append(Op(f"{builtin}_f{p}n{n}",
                      ("spectrum", "--builtin", builtin, "--p", str(p), "--n", str(n)) + extra,
                      p**n, _sizes(p, n)))
    g = gaussian_binomial(3, 1, 31)
    ops.append(Op("paraboloid_f31n3_dump",
                  ("spectrum", "--builtin", "paraboloid", "--p", "31", "--n", "3",
                   "--C", "1", "--alpha", "0.5", "--m", "1", "--dump", dump),
                  31**3, _sizes(31, 3, 1, g, 31**2), dump))
    return tuple(ops)


def _verify(seed: int) -> tuple[Op, ...]:
    # one call per (p, n) cell: the suite runs each cell on its own, with the same seed
    return tuple(
        Op(f"verify_f{p}n{n}", ("verify", "--p", str(p), "--n", str(n), "--seed", str(seed)),
           None, _sizes(p, n))
        for p, n in VERIFY_CELLS
    )


WORKLOADS = {
    "sweep": Workload("directions", (A_SET, B_SET), _sweep),
    "percolate": Workload("trials", (), _percolate),
    "spectral": Workload("points", (), _spectral),
    "verify": Workload("instances", (), _verify),
}


def write_inputs(workload: str, seed: int, root: str = INPUT_DIR) -> dict[str, int]:
    """Write the seeded input files of a workload; returns |E| per set."""
    os.makedirs(root, exist_ok=True)
    return {s.name: s.write(seed, root) for s in WORKLOADS[workload].sets}


def flag_failures(report) -> list[str]:
    """Exact flags a report must carry; returns the names of the false ones.

    census: no asserted bound (hypothesis and range condition hold) with
    satisfied false.  energy: ``equal`` and ``spectral_ok``.  verify:
    ``all_pass``.  spectrum: no asserted projection case with ``holds`` false.
    Percolation reports carry rates, not exact flags.
    """
    bad = []
    if isinstance(report, list):  # census
        for r in report:
            if r.get("hypothesis_ok") and r.get("range_condition_ok") and r.get("satisfied") is not True:
                bad.append(f"census {r.get('kind')} satisfied")
        return bad
    for key in ("equal", "spectral_ok", "all_pass"):
        if key in report and report[key] is not True:
            bad.append(key)
    for name, case in (report.get("projection_cases") or {}).get("cases", {}).items():
        if case.get("holds") is False:
            bad.append(f"projection case {name} holds")
    return bad


def identity_instances(report) -> int:
    return sum(int(c["instances"]) for c in report["checks"])
