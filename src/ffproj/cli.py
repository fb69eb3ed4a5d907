"""Experiment runner CLI: enumerate, project, census, energy, spectrum, percolate, verify.

Each command takes its configuration, resolved from flags, then an optional
JSON config file (flags win), then built-in defaults, and returns its report
and exit code.  :func:`main` resolves the config, times the command and
writes the one envelope, which embeds the config and its hash so runs are
reproducible byte-for-byte apart from the wall-clock field.

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
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .core import AmbientSpace, BudgetError, IdentityError, load_point_set, point_set_space
from .energy import verify_energy_identity, verify_energy_identity_fourier
from .fourier import (
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
from .projections import census_at_scales, census_fractional_image, census_small_image, coset_counts
from .random_sets import verify_large_regime, verify_small_regime
from .subspaces import (
    BUDGET_ENV,
    Subspace,
    SubspaceArray,
    _check_budget,
    _check_enumeration,
    _pattern_blocks,
    _plane_reps,
    affine_count,
    enumeration_budget,
    gaussian_binomial,
    load_subspace,
    perp,
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
        if type(value) is float and not math.isfinite(value):  # "1e400" parses to inf
            raise ValueError(f"--{key} must be a finite number, got {value}")
        cfg[key] = _DEFAULTS.get(key) if value is None else value
    return cfg


def _typed(key: str, value, kind):
    """A config-file value as its flag parses it: a string is parsed, an int cast for a float flag.

    An on/off flag (``kind`` bool) takes a bool only.  A flag with no type
    (delta, s, t, p_list, n_list) keeps its value as given; the parse where
    it is used checks it.
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


def _fraction(cfg: dict, key: str, dim: int | None = None) -> Fraction:
    """The option ``key`` as an exact rational; a bad value is a usage error naming it.

    An exponent of p passes ``dim``, the ambient dimension n: a value outside
    [-n, n] is refused here, before any power of it is computed or any float
    taken (``--s 1e30`` would ask for p^(10^30)).
    """
    try:
        value = Fraction(cfg[key])
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"--{key} must be a rational number, got {cfg[key]!r}") from None
    if dim is not None and abs(value) > dim:
        raise ValueError(f"--{key} must lie in [-n, n] for n = {dim}, got {cfg[key]!r}")
    return value


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


def _emit(envelope: dict, out_path: str | None, to_stdout: bool) -> None:
    text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif to_stdout:
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


def cmd_enumerate(cfg: dict) -> tuple[dict | list, int]:
    _require(cfg, "p", "n", "m")
    if cfg["budget"] is None:  # read $FFPROJ_BUDGET only when --budget is absent
        cfg["budget"] = enumeration_budget()
    p, n, m = cfg["p"], cfg["n"], cfg["m"]
    space = AmbientSpace(p, n)
    if cfg["affine"]:
        count, family = affine_count(space, m), "A"
    else:
        count, family = gaussian_binomial(n, m, p), "G"
    _check_budget(f"{family}({n},{m}) over F_{p}", count, cfg["budget"])
    if cfg["dump"]:
        with open(cfg["dump"], "w", encoding="ascii") as fh:
            _dump_family(fh, space, m, cfg["affine"])
    print(count)
    return {"count": count}, EXIT_OK


def _dump_family(fh, space: AmbientSpace, m: int, affine: bool) -> None:
    """Every subspace of G(n, m), or with ``affine`` every plane of A(n, m), in enumeration order.

    A plane is its "plane rep=" line, then its direction.  Each direction is
    serialised once, for its p^(n-m) planes in label order.
    """
    heads, labels = [""], np.arange(space.p ** (space.n - m) if affine else 0)
    for bases in _pattern_blocks(space, m):
        if affine:  # a block holds one pivot pattern, and a representative depends only on it
            first = SubspaceArray._unchecked(space, bases[:1].repeat(len(labels), axis=0))
            reps = _plane_reps(first, labels).tolist()
            heads = ["plane rep=" + ",".join(map(str, rep)) + "\n" for rep in reps]
        for W in SubspaceArray._unchecked(space, bases):
            text = serialize_subspace(W) + "\n"
            fh.write("".join(head + text for head in heads))


def cmd_project(cfg: dict) -> tuple[dict | list, int]:
    _require(cfg, "pointset")
    E = load_point_set(cfg["pointset"])
    W = _subspace_from_cfg(E.space, cfg)
    if cfg["onto"]:  # onto V: the cosets of Per(V)
        W = perp(W)
    h = next(coset_counts(E, [W]))
    labels = np.flatnonzero(h)
    report = {
        "set_size": E.cardinality,
        "direction_dim": W.dim,
        "size": len(labels),
        "labels": labels.tolist(),
        "degenerate": W.dim in (0, E.space.n),
    }
    if cfg["profile"]:
        report["profile_counts"] = h.tolist()
        report["second_moment"] = int(h @ h)
    return report, EXIT_OK


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
        s, t = (_fraction(cfg, key, E.space.n) for key in ("s", "t"))
        reports = census_at_scales(E, cfg["m"], s, t)
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


def cmd_census(cfg: dict) -> tuple[dict | list, int]:
    _require(cfg, "pointset", "m", "kind")
    E = load_point_set(cfg["pointset"])
    reports = _census_reports(E, cfg)
    if cfg["sizes_csv"]:
        _save_sizes_csv(cfg["sizes_csv"], reports[0].directions, reports[0].sizes)
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
    return [r.to_json_dict() for r in reports], EXIT_ASSERTION if failed else EXIT_OK


def cmd_energy(cfg: dict) -> tuple[dict | list, int]:
    _require(cfg, "pointset", "m")
    space = point_set_space(cfg["pointset"])
    for d in (cfg["m"], space.n - 1):  # the two sides' sweeps, before the body is parsed
        _check_enumeration(space, d)
    E = load_point_set(cfg["pointset"])
    lhs, rhs, equal = verify_energy_identity(E, cfg["m"])
    spectral, _, spectral_ok = verify_energy_identity_fourier(E, cfg["m"])
    report = {
        "set_size": E.cardinality,
        "m": cfg["m"],
        "energy": lhs,
        "closed_form": rhs,
        "equal": equal,
        "spectral": float(spectral),
        "spectral_diff": float(abs(spectral - rhs)),
        "spectral_ok": spectral_ok,
    }
    if not (equal and spectral_ok):
        print(
            f"IDENTITY FAILED: energy={lhs} closed_form={rhs} spectral={spectral}",
            file=sys.stderr,
        )
        return report, EXIT_ASSERTION
    return report, EXIT_OK


def cmd_spectrum(cfg: dict) -> tuple[dict | list, int]:
    salem = any(cfg[key] is not None for key in ("C", "alpha", "m"))
    if salem:  # the projection-case check needs all three
        _require(cfg, "C", "alpha", "m")
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
    return report, EXIT_OK


def cmd_percolate(cfg: dict) -> tuple[dict | list, int]:
    _require(cfg, "regime", "p", "n", "m", "s")
    runner = {"small": verify_small_regime, "large": verify_large_regime}.get(cfg["regime"])
    if runner is None:
        raise ValueError(f"unknown regime {cfg['regime']!r}")
    report = runner(
        cfg["p"], cfg["n"], cfg["m"], float(_fraction(cfg, "s", cfg["n"])),
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
    return report.to_json_dict(), EXIT_OK


def cmd_verify(cfg: dict) -> tuple[dict | list, int]:
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
        for witness in check["failures"]:
            print(f"WITNESS {check['name']}: {witness}", file=sys.stderr)
    return manifest, EXIT_OK if manifest["all_pass"] else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=str, help="JSON config file; explicit flags win")
    sub.add_argument("--out", type=str, help="write the JSON report to this path")


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
    sp.add_argument("--dump", type=str, help="write the enumerated objects to this file")
    sp.add_argument("--budget", type=int, help=f"enumeration budget (env {BUDGET_ENV})")
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = subs.add_parser("project", help="project a point set along a direction")
    sp.add_argument("--pointset", type=str, help="ffpointset v1 file")
    sp.add_argument("--subspace", type=str, help="subspace file for the direction")
    sp.add_argument("--basis", type=str, help="inline basis rows, e.g. '1,0;0,1'")
    sp.add_argument("--onto", action="store_true", default=None,
                    help="treat the subspace as the target V (cosets of Per(V))")
    sp.add_argument("--profile", action="store_true", default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_project)

    sp = subs.add_parser("census", help="exceptional-direction censuses")
    sp.add_argument("--pointset", type=str)
    sp.add_argument("--m", type=int)
    sp.add_argument("--kind", type=str, choices=["small", "large", "scales"])
    sp.add_argument("--N", type=int, help="image threshold for kind=small")
    sp.add_argument("--delta", help="fraction in (0,1) for kind=large, e.g. 1/2")
    sp.add_argument("--s", help="declared size exponent for kind=scales")
    sp.add_argument("--t", help="scale exponent for kind=scales")
    sp.add_argument("--sizes-csv", dest="sizes_csv", type=str, help="dump per-direction sizes")
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    _add_common(sp)
    sp.set_defaults(func=cmd_census)

    sp = subs.add_parser("energy", help="energy identity over all m-planes")
    sp.add_argument("--pointset", type=str)
    sp.add_argument("--m", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_energy)

    sp = subs.add_parser("spectrum", help="Fourier decay report")
    sp.add_argument("--pointset", type=str)
    sp.add_argument("--builtin", type=str, choices=["paraboloid", "sphere"])
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int, help="sphere radius parameter")
    sp.add_argument("--C", type=float, help="decay profile constant")
    sp.add_argument("--alpha", type=float, help="decay profile exponent")
    sp.add_argument("--m", type=int, help="codimension for the projection-case check")
    sp.add_argument("--dump", type=str, help="write the full spectrum as CSV")
    _add_common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = subs.add_parser("percolate", help="random-set projection campaigns")
    sp.add_argument("--regime", type=str, choices=["small", "large"])
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--s", help="size exponent (delta = p^(s-n))")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threads", type=int, help=_THREADS_HELP)
    sp.add_argument("--dump", type=str, help="write per-trial results as CSV")
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
        cfg = _resolve_config(args)
        started = time.time()
        report, code = args.func(cfg)
        own_lines = args.command in ("enumerate", "verify")  # their stdout: the count, CHECK lines
        _emit(_envelope(args.command, cfg, report, started), cfg["out"], not own_lines)
        return code
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
