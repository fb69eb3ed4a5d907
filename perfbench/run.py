#!/usr/bin/env python3
"""Benchmark ffproj end to end: four workloads of in-process CLI calls, checked and timed.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, every metric

Each workload is a fixed list of ``ffproj.cli.main([...])`` calls (a pass),
issued by one client in a closed loop in a single process: the next call
starts when the previous one has returned and its report has been checked.
Whole passes run until the next one would overrun ``--seconds``.  Timings
are each op's best latency over the passes (see ``op_best``).

Every report is checked: exit code 0, its exact flags true (see
``workloads.flag_failures``), the same digest on every pass, and, for the
seeds recorded in ``reference_digests.json``, the digest the seed commit
produced.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Lines before it are a readable table and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("sweep", "percolate", "spectral", "verify")
MIN_SETUPS = 5
SETUPS_PER_RUN = 10  # at most one set-up process per tenth of --seconds
# config keys that echo file paths; they name where the files are, not the experiment
PATH_KEYS = ("pointset", "out", "dump", "sizes_csv", "config")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _limit_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


_limit_blas_threads()

import numpy as np  # noqa: E402

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402


def _blas_info() -> dict:
    """OpenBLAS thread count and kernel family, read from the loaded library."""
    import ctypes
    import glob

    info = {"threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "core": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return info
    lib = ctypes.CDLL(libs[0])
    for suffix in ("64_", ""):
        threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
        if threads is not None and core is not None:
            threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
            info = {"threads": threads(), "core": core().decode()}
            break
    return info


def float_platform() -> str:
    """Fingerprint of the float path that report digests depend on.

    Reports carry doubles from complex exp, BLAS products and moduli; their
    last bits depend on numpy and on the BLAS kernels the CPU selects, not on
    ffproj.  Reference digests are compared only where this matches.
    """
    h = sha256(f"numpy {np.__version__} blas {_blas_info()['core']}".encode())
    rng = np.random.default_rng(20170213)
    for p in (2, 13, 31, 101):
        j = np.arange(p)
        F = np.exp(-2j * np.pi * np.outer(j, j) / p)
        for cols in (p, 1024):
            Y = np.tensordot(F, (rng.random((p, cols)) < 0.5).astype(np.complex128), axes=(1, 0))
            h.update(Y.tobytes())
            h.update(np.abs(Y).tobytes())
    return h.hexdigest()


def report_digest(op: wl.Op) -> tuple[str, dict]:
    """Digest of an op's report envelope and side file; returns it with the envelope.

    ``wall_clock_s`` and the config keys that echo file paths are left out.
    """
    with open(op.out_path(), "r", encoding="utf-8") as fh:
        envelope = json.load(fh)
    kept = dict(envelope)
    kept.pop("wall_clock_s", None)
    kept["config"] = {k: v for k, v in envelope.get("config", {}).items() if k not in PATH_KEYS}
    h = sha256(json.dumps(kept, sort_keys=True).encode())
    if op.side_file:
        with open(op.side_file, "rb") as fh:
            h.update(sha256(fh.read()).digest())
    return h.hexdigest(), envelope


def load_reference(workload: str, seed: int, platform: str) -> tuple[dict | None, str]:
    """Reference digests recorded at the seed commit, or None with the reason."""
    path = BENCH_DIR / "reference_digests.json"
    with open(path, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    by_seed = table["digests"].get(workload, {})
    ref = by_seed.get(str(seed), by_seed.get("any"))
    if ref is None:
        return None, f"no reference digests for seed {seed}"
    if table["float_platform"] != platform:
        return None, "float platform differs from the recording one"
    return ref, "checked against reference digests"


class Client:
    """Closed-loop client: issues each op, times it, and checks its report."""

    def __init__(self, cli, ops, reference: dict | None):
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.first_digest: dict[str, str] = {}
        self.set_sizes: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, op: wl.Op) -> tuple[float, int, int, bool]:
        """One CLI call; returns (latency, work done, report bytes, ok)."""
        for path in (op.out_path(), op.side_file):
            if path and os.path.exists(path):
                os.remove(path)
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(op.argv) + ["--out", op.out_path()])
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the benchmark reports a crashing op and goes on
                rc, error = None, traceback.format_exc()
            latency = time.perf_counter() - start
        self.attempted += 1
        if error is not None:
            problems, work, size = ["raised:\n" + error], 0, 0
        elif rc != 0:
            problems, work, size = [f"exit code {rc}"], 0, 0
        else:
            problems, work, size = self._check(op)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: {'; '.join(problems)}")
            print(f"FAIL {op.name}: {'; '.join(problems)}\n{sink.getvalue()[-2000:]}", file=sys.stderr)
        return latency, work, size, not problems

    def _check(self, op: wl.Op) -> tuple[list[str], int, int]:
        """Problems with a report that exited 0, the work it did and its size in bytes."""
        try:
            digest, envelope = report_digest(op)
            report = envelope["report"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"no readable report: {exc!r}"], 0, 0
        problems = [f"false flag: {f}" for f in wl.flag_failures(report)]
        if digest != self.first_digest.setdefault(op.name, digest):
            problems.append("report differs from the first pass")
        if self.reference is not None and digest != self.reference.get(op.name):
            problems.append("report differs from the reference digest")
        self.set_sizes.setdefault(op.name, _set_size(report))
        work = op.work if op.work is not None else wl.identity_instances(report)
        return problems, work, os.path.getsize(op.out_path())


def _set_size(report):
    if isinstance(report, list):
        return report[0].get("set_size")
    if "decay" in report:
        return report["decay"]["set_size"]
    return report.get("set_size")


class Pass:
    """One run of every op of the workload, in order."""

    def __init__(self, client: Client):
        self.latency: dict[str, float] = {}
        self.work = 0
        self.report_bytes = 0
        for op in client.ops:
            latency, work, size, ok = client.run_op(op)
            self.latency[op.name] = latency
            self.work += work if ok else 0
            self.report_bytes += size


def run_window(client: Client, budget_s: float, before_pass=None, after_pass=None) -> list[Pass]:
    """Whole passes, at least one, until the next would end after ``budget_s``.

    The next pass is predicted to take as long as the longest so far,
    hooks included, so a run overruns only when a pass is slower than all
    earlier ones.
    """
    start = time.perf_counter()
    passes: list[Pass] = []
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= budget_s:
        began = time.perf_counter()
        if before_pass:
            before_pass()
        passes.append(Pass(client))
        if after_pass:
            after_pass()
        longest = max(longest, time.perf_counter() - began)
    return passes


def op_best(passes: list[Pass]) -> dict[str, float]:
    """Each op's lowest latency over the passes.

    Interference from other tenants of the machine only ever slows a call
    down, and on a shared host it comes and goes within seconds, so the
    lowest of several latencies is far steadier than their median (see
    RATIONALE.md).
    """
    return {name: min(p.latency[name] for p in passes) for name in passes[0].latency}


def op_medians(passes: list[Pass]) -> dict[str, float]:
    return {name: statistics.median(p.latency[name] for p in passes) for name in passes[0].latency}


def work_per_s(passes: list[Pass]) -> float:
    """Work of one pass over the time of a pass made of each op's best latency."""
    return statistics.median(p.work for p in passes) / sum(op_best(passes).values())


def time_setup(workload: str, seed: int, target: str) -> float:
    """Wall time of a fresh process that imports ffproj and writes the inputs."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", target],
        stdout=subprocess.DEVNULL,
    )
    # a blocking wait() returns at exit; wait(timeout) would poll in 50 ms steps
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"set-up process exited with code {rc}")
    return elapsed


def end_to_end_metrics(passes: list[Pass], setups: list[float]) -> dict:
    best = op_best(passes)
    geomean = math.exp(statistics.fmean(math.log(v) for v in best.values()))
    return {
        "work_per_s": {"value": work_per_s(passes), "unit": "work/s"},
        "op_geomean_s": {"value": geomean, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


# per-layer metrics: (metric, unit); every workload reports every one of them
LAYER_METRICS = [
    ("subspaces.coset_labels.calls", "count"), ("subspaces.coset_labels.points", "count"),
    ("subspaces.coset_labels.self_s", "s"),
    ("projections.projection_sizes.calls", "count"),
    ("projections.projection_sizes.directions", "count"),
    ("projections.projection_sizes.self_s", "s"),
    ("subspaces.enumerate.calls", "count"), ("subspaces.enumerate.yielded", "count"),
    ("subspaces.enumerate.self_s", "s"), ("subspaces.enumerate.distinct_ratio", "ratio"),
    ("subspaces.subspace.built", "count"), ("subspaces.subspace.self_s", "s"),
    ("subspaces.rref.calls", "count"), ("subspaces.rref.self_s", "s"),
    ("subspaces.perp.calls", "count"), ("subspaces.perp.self_s", "s"),
    ("subspaces.perp.distinct_ratio", "ratio"),
    ("subspaces.point_indices.calls", "count"), ("subspaces.point_indices.points", "count"),
    ("subspaces.point_indices.self_s", "s"),
    ("fourier.character_sum.calls", "count"), ("fourier.character_sum.self_s", "s"),
    ("suite.instances", "count"), ("suite.self_s", "s"),
    ("fourier.dft.calls", "count"), ("fourier.dft.points", "count"), ("fourier.dft.self_s", "s"),
    ("fourier.dft.cmacs_computed", "count"), ("fourier.dft.bytes_computed", "bytes"),
    ("fourier.builtin.points", "count"), ("fourier.builtin.self_s", "s"),
    ("core.digits.calls", "count"), ("core.digits.rows", "count"), ("core.digits.self_s", "s"),
    ("fourier.spectrum_csv.rows", "count"), ("fourier.spectrum_csv.self_s", "s"),
    ("core.codec_scalar.calls", "count"),
    ("fourier.decay.self_s", "s"), ("projections.census.self_s", "s"),
    ("energy.combinatorial.self_s", "s"), ("energy.spectral.self_s", "s"),
    ("energy.key_lemma.self_s", "s"),
    ("core.load_point_set.calls", "count"), ("core.load_point_set.points", "count"),
    ("core.load_point_set.self_s", "s"),
    ("core.point_set.built", "count"), ("core.point_set.self_s", "s"),
    ("random_sets.sample.calls", "count"), ("random_sets.sample.points_drawn", "count"),
    ("random_sets.sample.self_s", "s"), ("random_sets.campaign.self_s", "s"),
    ("core.self_s", "s"), ("subspaces.self_s", "s"), ("projections.self_s", "s"),
    ("energy.self_s", "s"), ("fourier.self_s", "s"), ("random_sets.self_s", "s"),
    ("cli.self_s", "s"), ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer_specs() -> list[tuple[str, str]]:
    ops = [f"cli.op.{w}.{op.name}.p50_s" for w in WORKLOAD_NAMES for op in wl.WORKLOADS[w].make_ops(0)]
    return LAYER_METRICS + [(name, "s") for name in ops]


def per_layer_metrics(workload, plain: list[Pass], traced: list[Pass], layer_passes: list[dict]) -> dict:
    out = {}
    medians = op_medians(plain)
    for name, unit in per_layer_specs():
        if name.startswith("cli.op."):
            _, _, w, op_name, _ = name.split(".")
            value = medians.get(op_name, 0.0) if w == workload else 0.0
        elif name == "cli.report_bytes":
            value = traced[0].report_bytes
        elif name == "trace.overhead_ratio":
            value = work_per_s(traced) / work_per_s(plain)
        else:
            # "built" counts the calls of a constructor layer
            key = name.removesuffix(".built") + ".calls" if name.endswith(".built") else name
            value = statistics.median(p.get(key, 0) for p in layer_passes)
        out[name] = {"value": value, "unit": unit}
    return out


def provenance(workload: str, seed: int, client: Client, note: str, platform: str) -> dict:
    blas = _blas_info()
    ops = []
    for op in client.ops:
        sizes = dict(op.sizes)
        if sizes.get("E") is None:
            sizes["E"] = client.set_sizes.get(op.name)
        ops.append({"op": op.name, "argv": list(op.argv), **sizes})
    return {
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "nproc": _nproc(), "blas_threads": blas["threads"], "blas_core": blas["core"],
        "float_platform": platform, "reference": note, "ops": ops,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from ffproj import cli

    wl.write_inputs(workload, seed)
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    # computed on every seed, so the probe's memory is the same in every run
    platform = float_platform()
    reference, note = load_reference(workload, seed, platform)
    client = Client(cli, wl.WORKLOADS[workload].make_ops(seed), reference)
    if not trace:
        # a set-up process after a pass once a tenth of the run has gone by
        # since the last, so their median spans the run however short the passes
        setups: list[float] = []
        setup_dir = os.path.join(wl.WORK_DIR, "setup")
        last_setup = -math.inf

        def maybe_setup() -> None:
            nonlocal last_setup
            if time.perf_counter() - last_setup >= seconds / SETUPS_PER_RUN:
                last_setup = time.perf_counter()
                setups.append(time_setup(workload, seed, setup_dir))

        passes = run_window(client, seconds, after_pass=maybe_setup)
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload, seed, setup_dir))
        metrics = end_to_end_metrics(passes, setups)
        detail = {"passes": len(passes), "pass_work": [p.work for p in passes], "setup_s": setups,
                  "op_latency_s": {op.name: [p.latency[op.name] for p in passes] for op in client.ops}}
    else:
        from tracing import Tracer

        start = time.perf_counter()
        plain = run_window(client, seconds / 2)
        tracer = Tracer()
        tracer.install()
        layer_passes: list[dict] = []
        traced = run_window(client, seconds - (time.perf_counter() - start),
                            before_pass=tracer.begin_pass,
                            after_pass=lambda: layer_passes.append(tracer.end_pass()))
        os.makedirs(os.path.join(wl.WORK_DIR, "trace"), exist_ok=True)
        tracer.save(os.path.join(wl.WORK_DIR, "trace", f"{workload}-seed{seed}.npz"))
        metrics = per_layer_metrics(workload, plain, traced, layer_passes)
        detail = {"passes": len(plain), "traced_passes": len(traced), "absent": tracer.absent}
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
        "detail": detail,
        "provenance": provenance(workload, seed, client, note, platform),
        "problems": client.problems,
    }


def print_table(workload: str, result: dict) -> None:
    unit = wl.WORKLOADS[workload].unit
    attempted, failed = result["attempted"], result["failed"]
    print(f"# {workload}: {attempted} ops attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g} failed/attempted")
    for name, m in result["metrics"].items():
        shown = f"{unit}/s" if m["unit"] == "work/s" else m["unit"]
        print(f"{workload:10s} {name:45s} {m['value']:>16.6g} {shown}")
    for name in result["detail"].get("absent", []):
        print(f"# absent from this ffproj: {name}")
    print("# provenance " + json.dumps(result["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is not inherited)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import ffproj, write the seeded inputs into DIR and exit")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    os.chdir(ROOT)
    if not (ROOT / "src" / "ffproj" / "__init__.py").is_file():
        print(f"error: no ffproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    import ffproj.cli  # noqa: F401  set-up ends when the first op can run

    if args.setup_only:
        wl.write_inputs(args.workload, args.seed, root=args.setup_only)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(wl.WORK_DIR, "results"), exist_ok=True)
    path = os.path.join(wl.WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_table(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
