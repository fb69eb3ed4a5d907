"""Experiment runner CLI: enumerate, project, census, energy, spectrum, percolate, verify.

Every command resolves its configuration from flags, then an optional JSON
config file (flags win), then built-in defaults; the resolved config and its
hash are embedded in every report so runs are reproducible byte-for-byte
apart from the wall-clock field.

Exit codes: 0 success or statistical report, 1 assertion failure (an exact
identity or proven bound failed, or an internal self-check did; witness
printed), 2 usage, input, or budget error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .core import AmbientSpace, BudgetError, IdentityError, load_point_set, point_set_space
from .energy import verify_energy_identity, verify_energy_identity_fourier
from .fourier import (
    TOLERANCE,
    SalemProfile,
    check_spectrum_budget,
    dft,
    paraboloid,
    projection_bound_report,
    salem_deficiency,
    save_spectrum_csv,
    sphere,
    sphere_size_window,
)
from .projections import (
    census_at_scales,
    census_fractional_image,
    census_small_image,
    coset_profile,
    project,
    project_onto,
)
from .random_sets import verify_large_regime, verify_small_regime
from .subspaces import (
    BUDGET_ENV,
    Subspace,
    SubspaceArray,
    affine_count,
    enumerate_affine,
    enumerate_grassmannian,
    enumeration_budget,
    gaussian_binomial,
    load_subspace,
    serialize_subspace,
)
from .suite import DEFAULT_DIMS, DEFAULT_PRIMES, run_identity_suite

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2

# --threads is still parsed and recorded because it is part of the hashed
# census and percolate configs; every sweep runs in one thread.
_THREADS_HELP = "recorded in the config only; sweeps run in one thread"


# the flags whose default is not None; a flag's config key is its dest
_DEFAULTS = {"affine": False, "onto": False, "profile": False,
             "trials": 200, "seed": 0, "threads": 1}


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge flag values over config-file values over defaults; a null value is not set."""
    file_cfg = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(args.flag_types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, kind in args.flag_types.items():
        value = getattr(args, key)
        if value is None and file_cfg.get(key) is not None:
            value = _typed(key, file_cfg[key], kind)
        cfg[key] = _DEFAULTS.get(key) if value is None else value
    return cfg


def _typed(key: str, value, kind):
    """A config-file value as its flag parses it: a string is parsed, an int cast for a float flag.

    An on/off flag (``kind`` bool) takes a bool only.
    """
    if kind is None or type(value) is kind:
        return value
    if (isinstance(value, str) and kind is not bool) or (type(value) is int and kind is float):
        try:
            return kind(value)
        except (ValueError, OverflowError):  # a JSON int beyond float range
            pass
    raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k for k in missing)}")


def _fraction(cfg: dict, key: str) -> Fraction:
    """The option ``key`` as an exact rational; a bad value is a usage error naming it."""
    try:
        return Fraction(cfg[key])
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"--{key} must be a rational number, got {cfg[key]!r}") from None


def _int_list(cfg: dict, key: str) -> list[int]:
    """The option ``key`` as a list of ints, from a comma-separated string or a JSON list.

    A list is recorded in ``cfg`` as the comma-separated string, so both
    forms hash alike; anything else is a usage error naming the key.
    """
    value = cfg[key]
    if isinstance(value, list) and all(type(v) is int for v in value):
        cfg[key] = ",".join(map(str, value))
        return value
    if isinstance(value, str):
        try:
            return [int(x) for x in value.split(",")]
        except ValueError:
            pass
    raise ValueError(f"{key} must be comma-separated integers or a list of ints, got {value!r}")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# output destinations are echoed in the config but do not define the experiment
_IO_KEYS = frozenset({"out", "dump", "sizes_csv"})


def _envelope(command: str, cfg: dict, report, started: float) -> dict:
    config = _jsonable(cfg)
    hashed = {k: v for k, v in config.items() if k not in _IO_KEYS}
    blob = json.dumps(hashed, sort_keys=True).encode("utf-8")
    return {
        "command": command,
        "version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "wall_clock_s": time.time() - started,
        "report": report,
    }


def _emit(envelope: dict, out_path: str | None, to_stdout: bool = True) -> None:
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if to_stdout and not out_path:
        sys.stdout.write(text)


def _subspace_from_cfg(space: AmbientSpace, cfg: dict) -> Subspace:
    if cfg.get("subspace"):
        return load_subspace(cfg["subspace"], space=space)
    if cfg.get("basis"):
        rows = [
            [int(c) for c in row.split(",")]
            for row in cfg["basis"].split(";")
            if row.strip()
        ]
        return Subspace.from_rows(space, rows)
    raise ValueError("provide --subspace FILE or --basis rows")


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "p", "n", "m")
    if cfg["budget"] is None:  # read $FFPROJ_BUDGET only when --budget is absent
        cfg["budget"] = enumeration_budget()
    started = time.time()
    space = AmbientSpace(cfg["p"], cfg["n"])
    if cfg["affine"]:
        count = affine_count(space, cfg["m"])
        stream = enumerate_affine(space, cfg["m"], budget=cfg["budget"])
    else:
        count = gaussian_binomial(cfg["n"], cfg["m"], cfg["p"])
        stream = enumerate_grassmannian(space, cfg["m"], budget=cfg["budget"])
    if cfg["dump"]:
        with open(cfg["dump"], "w", encoding="ascii") as fh:
            if cfg["affine"]:
                for plane in stream:
                    rep = ",".join(str(c) for c in plane.rep)
                    fh.write(f"plane rep={rep}\n")
                    fh.write(serialize_subspace(plane.direction))
                    fh.write("\n")
            else:
                for W in stream:
                    fh.write(serialize_subspace(W))
                    fh.write("\n")
    print(count)
    _emit(_envelope("enumerate", cfg, {"count": count}, started), cfg["out"], to_stdout=False)
    return EXIT_OK


def cmd_project(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "pointset")
    started = time.time()
    E = load_point_set(cfg["pointset"])
    W = _subspace_from_cfg(E.space, cfg)
    image = project_onto(E, W) if cfg["onto"] else project(E, W)
    report = {
        "set_size": E.cardinality,
        "direction_dim": image.direction.dim,
        "size": image.size,
        "labels": list(image.labels),
        "degenerate": image.degenerate,
    }
    if cfg["profile"]:
        prof = coset_profile(E, image.direction)
        report["profile_counts"] = [int(c) for c in prof.counts]
        report["second_moment"] = prof.second_moment()
    _emit(_envelope("project", cfg, report, started), cfg["out"])
    return EXIT_OK


def _census_reports(E, cfg) -> list:
    kind = cfg["kind"]
    if kind == "small":
        _require(cfg, "N")
        return [census_small_image(E, cfg["m"], cfg["N"])]
    if kind == "large":
        _require(cfg, "delta")
        return [census_fractional_image(E, cfg["m"], _fraction(cfg, "delta"))]
    if kind == "scales":
        _require(cfg, "s", "t")
        reports = census_at_scales(E, cfg["m"], _fraction(cfg, "s"), _fraction(cfg, "t"))
        return [reports["scale_t"], reports["scale_m"], reports["full_image"]]
    raise ValueError(f"unknown census kind {kind!r}")


def _save_sizes_csv(path, directions: SubspaceArray, sizes: np.ndarray) -> None:
    """One line per direction: its index, its basis (rows joined by ";") and its image size.

    The bytes are those of ``csv.writer``: a basis row has n >= 2 entries, so
    every basis field holds a comma and is quoted, and lines end in "\\r\\n".
    The lines are formatted from a table of residue strings and written at once.
    """
    G, k, n = directions.bases.shape
    residues = np.array([str(j) for j in range(directions.space.p)], dtype=object)
    line = '{},"' + ";".join([",".join(["{}"] * n)] * k) + '",{}\r\n'
    fields = np.empty((G, k * n + 2), dtype=object)
    fields[:, 0] = np.arange(G)
    fields[:, 1:-1] = residues[directions.bases.reshape(G, k * n)]
    fields[:, -1] = sizes
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("direction_index,basis,image_size\r\n")
        fh.write("".join(itertools.starmap(line.format, fields.tolist())))


def cmd_census(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "pointset", "m", "kind")
    started = time.time()
    E = load_point_set(cfg["pointset"])
    reports = _census_reports(E, cfg)
    if cfg["sizes_csv"]:
        _save_sizes_csv(cfg["sizes_csv"], reports[0].directions, reports[0].sizes)
    payload = [r.to_json_dict() for r in reports]
    _emit(_envelope("census", cfg, payload, started), cfg["out"])
    failed = [
        r for r in reports
        if r.hypothesis_ok and r.range_condition_ok and r.satisfied is False
    ]
    for r in failed:
        print(
            f"BOUND FAILED: kind={r.kind} observed={r.observed} "
            f"bound={float(r.bound)} (p={r.p}, n={r.n}, m={r.m})",
            file=sys.stderr,
        )
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_energy(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "pointset", "m")
    started = time.time()
    check_spectrum_budget(point_set_space(cfg["pointset"]))  # before the sweep and the parse
    E = load_point_set(cfg["pointset"])
    directions = SubspaceArray.grassmannian(E.space, cfg["m"])  # both sides sweep it
    lhs, rhs, equal = verify_energy_identity(E, cfg["m"], directions=directions)
    spectral, rhs2, diff = verify_energy_identity_fourier(E, cfg["m"], directions=directions)
    spectral_ok = diff <= TOLERANCE * max(1.0, rhs2)
    report = {
        "set_size": E.cardinality,
        "m": cfg["m"],
        "energy": lhs,
        "closed_form": rhs,
        "equal": equal,
        "spectral": spectral,
        "spectral_diff": diff,
        "spectral_ok": spectral_ok,
    }
    _emit(_envelope("energy", cfg, report, started), cfg["out"])
    if not (equal and spectral_ok):
        print(
            f"IDENTITY FAILED: energy={lhs} closed_form={rhs} spectral={spectral}",
            file=sys.stderr,
        )
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _resolve_config(args)
    salem = any(cfg[key] is not None for key in ("C", "alpha", "m"))
    if salem:  # the projection-case check needs all three
        _require(cfg, "C", "alpha", "m")
    started = time.time()
    if cfg["builtin"]:
        _require(cfg, "p", "n")
        space = AmbientSpace(cfg["p"], cfg["n"])
        check_spectrum_budget(space)  # before the set is built
        if cfg["builtin"] == "paraboloid":
            E = paraboloid(space)
        elif cfg["builtin"] == "sphere":
            _require(cfg, "r")
            E = sphere(space, cfg["r"])
        else:
            raise ValueError(f"unknown builtin {cfg['builtin']!r}")
    else:
        _require(cfg, "pointset")
        check_spectrum_budget(point_set_space(cfg["pointset"]))  # before the body is parsed
        E = load_point_set(cfg["pointset"])
    spectrum = dft(E)
    decay = salem_deficiency(E, spectrum=spectrum)
    report = {"decay": decay.to_json_dict()}
    if cfg["builtin"] == "sphere":
        lo, hi = sphere_size_window(E.space)
        report["sphere_size_window"] = {"low": lo, "high": hi, "observed": E.cardinality}
    if salem:
        prof = SalemProfile(cfg["C"], cfg["alpha"])
        report["projection_cases"] = projection_bound_report(
            E, prof, cfg["m"], spectrum=spectrum
        ).to_json_dict()
    if cfg["dump"]:
        save_spectrum_csv(spectrum, cfg["dump"])
    _emit(_envelope("spectrum", cfg, report, started), cfg["out"])
    return EXIT_OK


def cmd_percolate(args) -> int:
    cfg = _resolve_config(args)
    _require(cfg, "regime", "p", "n", "m", "s")
    started = time.time()
    runner = {"small": verify_small_regime, "large": verify_large_regime}.get(cfg["regime"])
    if runner is None:
        raise ValueError(f"unknown regime {cfg['regime']!r}")
    report = runner(
        cfg["p"], cfg["n"], cfg["m"], float(_fraction(cfg, "s")),
        trials=cfg["trials"], seed=cfg["seed"],
    )
    if cfg["dump"]:
        with open(cfg["dump"], "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "size", "min_image", "all_full"])
            for t, (sz, mn, fl) in enumerate(
                zip(report.sizes, report.min_images, report.full_flags)
            ):
                writer.writerow([t, sz, mn, int(fl)])
    _emit(_envelope("percolate", cfg, report.to_json_dict(), started), cfg["out"])
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    started = time.time()
    primes, dims = (  # a single value, else a list, else the default grid
        [cfg[key]] if cfg[key] is not None
        else _int_list(cfg, key + "_list") if cfg[key + "_list"]
        else list(default)
        for key, default in (("p", DEFAULT_PRIMES), ("n", DEFAULT_DIMS))
    )
    manifest = run_identity_suite(primes=primes, dims=dims, seed=cfg["seed"])
    for check in manifest["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"CHECK {check['name']}: {status} ({check['instances']} instances)")
    _emit(_envelope("verify", cfg, manifest, started), cfg["out"], to_stdout=False)
    if not manifest["all_pass"]:
        for check in manifest["checks"]:
            for witness in check["failures"]:
                print(f"WITNESS {check['name']}: {witness}", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--out", help="write the JSON report to this path")


@functools.cache  # built at the first call; later in-process calls reuse it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffproj",
        description="Experiments with coset projections, spectra, and percolation in F_p^n.",
    )
    parser.add_argument("--version", action="version", version=f"ffproj {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("enumerate", help="count/list subspaces or affine planes")
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--affine", action="store_true", default=None)
    sp.add_argument("--dump", help="write the enumerated objects to this file")
    sp.add_argument("--budget", type=int, help=f"enumeration budget (env {BUDGET_ENV})")
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = subs.add_parser("project", help="project a point set along a direction")
    sp.add_argument("--pointset", help="ffpointset v1 file")
    sp.add_argument("--subspace", help="subspace file for the direction")
    sp.add_argument("--basis", help="inline basis rows, e.g. '1,0;0,1'")
    sp.add_argument("--onto", action="store_true", default=None,
                    help="treat the subspace as the target V (cosets of Per(V))")
    sp.add_argument("--profile", action="store_true", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_project)

    sp = subs.add_parser("census", help="exceptional-direction censuses")
    sp.add_argument("--pointset")
    sp.add_argument("--m", type=int)
    sp.add_argument("--kind", choices=["small", "large", "scales"])
    sp.add_argument("--N", type=int, help="image threshold for kind=small")
    sp.add_argument("--delta", help="fraction in (0,1) for kind=large, e.g. 1/2")
    sp.add_argument("--s", help="declared size exponent for kind=scales")
    sp.add_argument("--t", help="scale exponent for kind=scales")
    sp.add_argument("--sizes-csv", dest="sizes_csv", help="dump per-direction sizes")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    _add_common(sp)
    sp.set_defaults(func=cmd_census)

    sp = subs.add_parser("energy", help="energy identity over all m-planes")
    sp.add_argument("--pointset")
    sp.add_argument("--m", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_energy)

    sp = subs.add_parser("spectrum", help="Fourier decay report")
    sp.add_argument("--pointset")
    sp.add_argument("--builtin", choices=["paraboloid", "sphere"])
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int, help="sphere radius parameter")
    sp.add_argument("--C", type=float, help="decay profile constant")
    sp.add_argument("--alpha", type=float, help="decay profile exponent")
    sp.add_argument("--m", type=int, help="codimension for the projection-case check")
    sp.add_argument("--dump", help="write the full spectrum as CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("percolate", help="random-set projection campaigns")
    sp.add_argument("--regime", choices=["small", "large"])
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--s", help="size exponent (delta = p^(s-n))")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--dump", help="write per-trial results as CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_percolate)

    sp = subs.add_parser("verify", help="run the exact-identity suite over a grid")
    sp.add_argument("--p", type=int, help="single prime instead of the default grid")
    sp.add_argument("--n", type=int, help="single dimension instead of the default grid")
    sp.add_argument("--p-list", dest="p_list", help="comma-separated primes")
    sp.add_argument("--n-list", dest="n_list", help="comma-separated dimensions")
    sp.add_argument("--seed", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    for sp in subs.choices.values():  # the config keys, and the types that parse their values
        flags = [a for a in sp._actions if a.dest not in ("help", "config")]
        sp.set_defaults(flag_types={a.dest: bool if a.const is True else a.type for a in flags})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IdentityError as exc:
        print(f"IDENTITY FAILED: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
