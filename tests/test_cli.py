import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ffproj import cli, projections, subspaces
from ffproj.core import AmbientSpace, load_point_set, save_point_set
from ffproj.subspaces import Subspace, SubspaceArray

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "enumerate": ["enumerate", "--p", "3", "--n", "2", "--m", "1"],
    "project": ["project", "--pointset", "line.pts", "--basis", "1,0", "--profile"],
    "census": ["census", "--pointset", "line.pts", "--m", "1", "--kind", "small", "--N", "1"],
    "energy": ["energy", "--pointset", "line.pts", "--m", "1"],
    "spectrum": ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2"],
    "percolate": [
        "percolate", "--regime", "small", "--p", "5", "--n", "2", "--m", "1",
        "--s", "1", "--trials", "5", "--seed", "42",
    ],
    "verify": ["verify", "--p", "3", "--n", "2"],
}


def run_cli(args, cwd, env_extra=None):
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ffproj", *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


@pytest.fixture
def workdir(tmp_path):
    space = AmbientSpace(3, 2)
    line = Subspace.from_rows(space, [(1, 0)]).point_set()
    save_point_set(line, tmp_path / "line.pts")
    return tmp_path


def strip_volatile(report: dict) -> dict:
    report = dict(report)
    report.pop("wall_clock_s", None)
    return report


def test_enumerate_prints_bare_count(workdir):
    result = run_cli(["enumerate", "--p", "3", "--n", "2", "--m", "1"], workdir)
    assert result.returncode == 0
    assert result.stdout.strip() == "4"
    result = run_cli(["enumerate", "--p", "2", "--n", "4", "--m", "2"], workdir)
    assert result.stdout.strip() == "35"
    result = run_cli(["enumerate", "--p", "3", "--n", "2", "--m", "2"], workdir)
    assert result.stdout.strip() == "1"


def test_enumerate_affine_and_dump(workdir):
    result = run_cli(
        ["enumerate", "--p", "3", "--n", "2", "--m", "1", "--affine",
         "--dump", "planes.txt"],
        workdir,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "12"
    text = (workdir / "planes.txt").read_text()
    assert text.count("plane rep=") == 12


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_reports(name, workdir):
    args = GOLDEN_COMMANDS[name] + ["--out", "report.json"]
    result = run_cli(args, workdir)
    assert result.returncode == 0, result.stderr
    produced = strip_volatile(json.loads((workdir / "report.json").read_text()))
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert produced == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_rerun_is_byte_identical(name, workdir):
    args = GOLDEN_COMMANDS[name] + ["--out", "r.json"]
    first = run_cli(args, workdir)
    a = strip_volatile(json.loads((workdir / "r.json").read_text()))
    second = run_cli(args, workdir)
    b = strip_volatile(json.loads((workdir / "r.json").read_text()))
    assert first.returncode == 0 and second.returncode == 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_census_line_example_exit_zero(workdir):
    result = run_cli(
        ["census", "--pointset", "line.pts", "--m", "1", "--kind", "small", "--N", "1"],
        workdir,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"][0]
    assert report["observed"] == 1 and report["bound_num"] == 4
    assert report["satisfied"] is True


def test_census_hypothesis_violation_still_exit_zero(workdir):
    result = run_cli(
        ["census", "--pointset", "line.pts", "--m", "1", "--kind", "small", "--N", "2"],
        workdir,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"][0]
    assert report["hypothesis_ok"] is False


def test_census_scales_and_sizes_csv(workdir):
    result = run_cli(
        ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
         "--s", "1", "--t", "1", "--sizes-csv", "sizes.csv"],
        workdir,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)["report"]
    assert [r["kind"] for r in payload] == ["scale_t", "scale_m", "full_image"]
    lines = (workdir / "sizes.csv").read_text().strip().splitlines()
    assert lines[0] == "direction_index,basis,image_size"
    assert len(lines) == 5  # four directions


def test_sizes_csv_is_the_census_sweep(workdir, monkeypatch):
    expected_dirs, expected_sizes = projections.projection_sizes(
        load_point_set(workdir / "line.pts"), 1
    )
    calls = []
    real = subspaces._pattern_blocks

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(subspaces, "_pattern_blocks", counting)
    monkeypatch.chdir(workdir)
    code = cli.main(["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
                     "--s", "1", "--t", "1", "--sizes-csv", "sizes.csv", "--out", "r.json"])
    assert code == 0
    assert len(calls) == 1
    with open(workdir / "sizes.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [
        [str(i), ";".join(",".join(map(str, r)) for r in W.basis), str(sz)]
        for i, (W, sz) in enumerate(zip(expected_dirs, expected_sizes))
    ]


def _row_by_row_sizes_csv(path, directions, sizes):
    """The sizes CSV as ``cli.cmd_census`` first wrote it: one ``writerow`` per direction."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["direction_index", "basis", "image_size"])
        bases = directions.bases.tolist()
        for i, (rows, sz) in enumerate(zip(bases, sizes.tolist())):
            basis = ";".join(",".join(map(str, row)) for row in rows)
            writer.writerow([i, basis, sz])


@pytest.mark.parametrize(  # F_101^4 and F_101^5 are over the point budget: no census
    "p,n", [(p, n) for p in (2, 23, 101) for n in range(2, 6) if p**n <= 1 << 26]
)
def test_sizes_csv_bytes_match_row_by_row_writer(tmp_path, p, n):
    rng = np.random.default_rng(p * n)
    space = AmbientSpace(p, n)
    for k in range(1, n):
        # eight bases of each pivot pattern: free entries all 0, all p - 1, and random
        bases = []
        for pattern in subspaces._pattern_plans(n, k):
            B = np.zeros((8, k, n), dtype=np.int64)
            B[:, np.arange(k), list(pattern.pivots)] = 1
            B[:, pattern.rows, pattern.cols] = rng.integers(0, p, (8, len(pattern.rows)))
            B[0, pattern.rows, pattern.cols], B[1, pattern.rows, pattern.cols] = 0, p - 1
            bases.append(B)
        directions = subspaces.SubspaceArray(space, np.concatenate(bases))
        sizes = rng.integers(0, p ** (n - k) + 1, len(directions))
        cli._save_sizes_csv(tmp_path / "new.csv", directions, sizes)
        _row_by_row_sizes_csv(tmp_path / "old.csv", directions, sizes)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    empty = subspaces.SubspaceArray(space, np.zeros((0, 1, n), dtype=np.int64))
    cli._save_sizes_csv(tmp_path / "new.csv", empty, np.zeros(0, dtype=np.int64))
    _row_by_row_sizes_csv(tmp_path / "old.csv", empty, np.zeros(0, dtype=np.int64))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_census_failure_exits_one(workdir, monkeypatch, capsys):
    from fractions import Fraction

    from ffproj.projections import CensusReport, ExactBound

    def fake_census(E, m, N, keep_sizes=False):
        return CensusReport(
            kind="small_image", p=3, n=2, m=m, threshold=Fraction(N),
            observed=99, bound=ExactBound(Fraction(1), 3, Fraction(0)),
            satisfied=False, hypothesis_ok=True, range_condition_ok=True,
        )

    monkeypatch.setattr(cli, "census_small_image", fake_census)
    monkeypatch.chdir(workdir)
    code = cli.main(["census", "--pointset", "line.pts", "--m", "1",
                     "--kind", "small", "--N", "1"])
    assert code == 1
    assert "BOUND FAILED" in capsys.readouterr().err


def test_internal_identity_failure_exits_one(workdir, monkeypatch, capsys):
    from ffproj.core import IdentityError

    def broken_dft(E):
        raise IdentityError("Plancherel violated: 1.0 vs 2.0")

    monkeypatch.setattr(cli, "dft", broken_dft)
    monkeypatch.chdir(workdir)
    code = cli.main(["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "IDENTITY FAILED: Plancherel violated" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_malformed_pointset_exits_two(workdir):
    (workdir / "bad.pts").write_text("not a pointset\n")
    result = run_cli(
        ["census", "--pointset", "bad.pts", "--m", "1", "--kind", "small", "--N", "1"],
        workdir,
    )
    assert result.returncode == 2
    assert "error" in result.stderr.lower()


def test_missing_required_option_exits_two(workdir):
    result = run_cli(["census", "--pointset", "line.pts", "--kind", "small"], workdir)
    assert result.returncode == 2


def test_budget_exceeded_exits_two(workdir):
    result = run_cli(
        ["enumerate", "--p", "3", "--n", "2", "--m", "1", "--budget", "3"], workdir
    )
    assert result.returncode == 2
    assert "budget" in result.stderr.lower()


def test_budget_env_variable(workdir):
    result = run_cli(
        ["enumerate", "--p", "3", "--n", "2", "--m", "1"],
        workdir, env_extra={"FFPROJ_BUDGET": "3"},
    )
    assert result.returncode == 2
    result = run_cli(
        ["enumerate", "--p", "3", "--n", "2", "--m", "1", "--budget", "10"],
        workdir, env_extra={"FFPROJ_BUDGET": "3"},
    )
    assert result.returncode == 0  # explicit flag wins over the environment


@pytest.mark.parametrize("args", [
    ["census", "--pointset", "f53.pts", "--m", "1", "--kind", "small", "--N", "1"],
    ["energy", "--pointset", "f53.pts", "--m", "1"],
    ["percolate", "--regime", "small", "--p", "5", "--n", "3", "--m", "1",
     "--s", "1", "--trials", "2"],
    ["verify", "--p", "5", "--n", "3"],
    ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "3",
     "--C", "1", "--alpha", "0.5", "--m", "1"],
], ids=lambda args: args[0])
def test_budget_env_binds_every_sweep(workdir, monkeypatch, capsys, args):
    # G(3,1) and G(3,2) over F_5 have 31 elements each
    save_point_set(Subspace.from_rows(AmbientSpace(5, 3), [(1, 0, 0)]).point_set(),
                   workdir / "f53.pts")
    monkeypatch.setenv("FFPROJ_BUDGET", "5")
    monkeypatch.chdir(workdir)
    assert cli.main([*args, "--out", "report.json"]) == 2
    captured = capsys.readouterr()
    assert "budget error: G(3," in captured.err and "over budget 5" in captured.err
    assert "CHECK" not in captured.out
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("value,args", [
    ("abc", ["verify", "--p", "2", "--n", "2"]),
    ("-1", ["enumerate", "--p", "2", "--n", "2", "--m", "0"]),
])
def test_malformed_budget_env_names_the_variable(workdir, value, args):
    result = run_cli(args, workdir, env_extra={"FFPROJ_BUDGET": value})
    assert result.returncode == 2
    assert result.stderr == (
        f"error: FFPROJ_BUDGET must be a nonnegative integer, got {value!r}\n"
    )


def test_enumerate_budget_flag_ignores_malformed_env(workdir):
    result = run_cli(
        ["enumerate", "--p", "3", "--n", "2", "--m", "1", "--budget", "10"],
        workdir, env_extra={"FFPROJ_BUDGET": "abc"},
    )
    assert result.returncode == 0
    assert result.stdout == "4\n"


@pytest.mark.parametrize("dump", [False, True], ids=["stream", "dump"])
def test_enumerate_budget_has_one_message(workdir, monkeypatch, capsys, dump):
    monkeypatch.chdir(workdir)
    extra = ["--dump", "subspaces.txt"] if dump else []
    assert cli.main(["enumerate", "--p", "3", "--n", "2", "--m", "1",
                     "--budget", "3", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err == "budget error: G(2,1) over F_3 has 4 elements, over budget 3\n"
    assert captured.out == ""
    assert not (workdir / "subspaces.txt").exists()


def test_enumerate_affine_budget_names_the_family(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert cli.main(["enumerate", "--p", "3", "--n", "2", "--m", "1", "--affine",
                     "--budget", "5"]) == 2
    assert capsys.readouterr().err == (
        "budget error: A(2,1) over F_3 has 12 elements, over budget 5\n"
    )


@pytest.mark.parametrize("args", [
    ["enumerate", "--p", "3", "--n", "2", "--m", "0", "--budget", "-1"],
    ["enumerate", "--p", "3", "--n", "2", "--m", "0", "--budget", "-1", "--affine"],
], ids=["grassmannian", "affine"])
def test_negative_budget_flag_is_refused_like_the_env(workdir, monkeypatch, capsys, args):
    monkeypatch.chdir(workdir)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: budget must be a nonnegative integer, got -1\n"
    assert captured.out == ""


_SALEM = {"C": "1", "alpha": "0.5", "m": "1"}


@pytest.mark.parametrize("missing", list(_SALEM))
def test_spectrum_refuses_a_partial_salem_profile(workdir, monkeypatch, capsys, missing):
    monkeypatch.chdir(workdir)
    given = [arg for key, value in _SALEM.items() if key != missing for arg in ("--" + key, value)]
    code = cli.main(["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2",
                     *given, "--out", "report.json"])
    assert code == 2
    assert capsys.readouterr().err == f"error: missing required option(s): --{missing}\n"
    assert not (workdir / "report.json").exists()


def test_spectrum_refuses_a_partial_salem_profile_from_a_config_file(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    (workdir / "spec.json").write_text(json.dumps({"C": 1, "m": 1}))
    code = cli.main(["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2",
                     "--config", "spec.json"])
    assert code == 2
    assert capsys.readouterr().err == "error: missing required option(s): --alpha\n"


@pytest.mark.parametrize("builtin", [["paraboloid"], ["sphere", "--r", "1"]],
                         ids=lambda b: b[0])
def test_spectrum_over_cap_is_refused_before_the_set_is_built(
    workdir, monkeypatch, capsys, builtin
):
    def never(*args):
        raise AssertionError("the set was built")

    monkeypatch.setattr(cli, "paraboloid", never)
    monkeypatch.setattr(cli, "sphere", never)
    monkeypatch.chdir(workdir)
    # 2^23 points fit the point budget but not the 2^22 full-spectrum budget
    code = cli.main(["spectrum", "--builtin", builtin[0], "--p", "2", "--n", "23",
                     *builtin[1:]])
    assert code == 2
    assert "full-spectrum budget" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["spectrum"], ["energy", "--m", "1"]], ids=lambda c: c[0])
def test_over_cap_point_file_is_refused_before_its_body_is_parsed(
    workdir, monkeypatch, capsys, command
):
    # 2^25 points fit the point budget, so only the header says the spectrum is over its cap
    (workdir / "big.pts").write_text("ffpointset 1 p=2 n=25\n" + ",".join(["0"] * 25) + "\n")
    monkeypatch.chdir(workdir)
    cli.build_parser()  # cached, so the parser is not counted below
    tracemalloc.start()
    try:
        code = cli.main([command[0], "--pointset", "big.pts", *command[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "budget error: p^n = 33554432 exceeds the full-spectrum budget 4194304; "
        "use pointwise_coefficient for single xi\n"
    )
    assert peak < 1 << 20


def test_oversized_verify_cell_is_refused_before_its_tables(workdir, monkeypatch, capsys):
    # 101 is prime, each G(3, d) is under the budget and p^n under the spectrum cap, but the
    # cell's character sums would take |G(3,1)| x 101^3 entries
    monkeypatch.delenv("FFPROJ_BUDGET", raising=False)
    monkeypatch.chdir(workdir)
    cli.build_parser()  # cached, so the parser is not counted below
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--p", "101", "--n", "3", "--out", "report.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        "budget error: the character-sum table of G(3,1) x F_101^3 has 10615191203 elements, "
        "over budget 10000000\n"
    )
    assert peak < 1 << 20
    assert not (workdir / "report.json").exists()


def test_energy_builds_its_grassmannian_once(workdir, monkeypatch, capsys):
    from ffproj.energy import verify_energy_identity, verify_energy_identity_fourier

    streams = []
    real_patterns = subspaces._pattern_blocks

    def counted_patterns(space, m):
        streams.append(m)
        return real_patterns(space, m)

    monkeypatch.setattr(subspaces, "_pattern_blocks", counted_patterns)
    monkeypatch.chdir(workdir)
    assert cli.main(["energy", "--pointset", "line.pts", "--m", "1"]) == 0
    assert streams == [1]  # one G(2,1), swept by both sides of the identity
    report = json.loads(capsys.readouterr().out)["report"]
    E = load_point_set(workdir / "line.pts")
    # a call without directions= builds its own, with the same result
    assert verify_energy_identity(E, 1) == (report["energy"], report["closed_form"], True)
    assert verify_energy_identity_fourier(E, 1)[0] == report["spectral"]
    for wrong in (SubspaceArray.grassmannian(E.space, 0),
                  SubspaceArray.grassmannian(E.space, 1)[:2],
                  SubspaceArray.grassmannian(AmbientSpace(5, 2), 1)):
        for check in (verify_energy_identity, verify_energy_identity_fourier):
            with pytest.raises(ValueError, match=r"directions must be all of G\(2,1\) over F_3"):
                check(E, 1, directions=wrong)


def test_config_file_merge(workdir):
    (workdir / "cfg.json").write_text(json.dumps({"m": 1, "kind": "small", "N": 1}))
    result = run_cli(
        ["census", "--pointset", "line.pts", "--config", "cfg.json"], workdir
    )
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["config"]["N"] == 1

    # explicit flag wins over the config file
    result = run_cli(
        ["census", "--pointset", "line.pts", "--config", "cfg.json", "--N", "0"],
        workdir,
    )
    envelope = json.loads(result.stdout)
    assert envelope["config"]["N"] == 0


def test_config_file_rejects_unknown_keys(workdir):
    (workdir / "cfg.json").write_text(json.dumps({"bogus": 1}))
    result = run_cli(
        ["census", "--pointset", "line.pts", "--m", "1", "--kind", "small",
         "--N", "1", "--config", "cfg.json"],
        workdir,
    )
    assert result.returncode == 2


@pytest.mark.parametrize("args,config,key,value", [
    (["percolate", "--regime", "small", "--p", "3", "--n", "2", "--m", "1", "--s", "1"],
     {"trials": "5"}, "trials", 5),
    (["verify", "--p", "2", "--n", "2"], {"seed": "1"}, "seed", 1),
    (["census", "--pointset", "line.pts"], {"m": "1", "kind": "small", "N": 1}, "m", 1),
], ids=["percolate", "verify", "census"])
def test_config_file_values_take_the_flag_types(
    workdir, monkeypatch, capsys, args, config, key, value
):
    monkeypatch.chdir(workdir)

    def run(file_value, out):
        (workdir / "cfg.json").write_text(json.dumps({**config, key: file_value}))
        return cli.main([*args, "--config", "cfg.json", "--out", out])

    assert run(str(value), "typed.json") == 0
    assert run(value, "plain.json") == 0
    typed = json.loads((workdir / "typed.json").read_text())
    plain = json.loads((workdir / "plain.json").read_text())
    assert typed["config"][key] == value and type(typed["config"][key]) is int
    assert typed["config_hash"] == plain["config_hash"]  # the number's run, hashed the same
    for bad in ("x", 1.5, True):
        capsys.readouterr()
        assert run(bad, "bad.json") == 2
        assert capsys.readouterr().err == f"error: config key {key!r} must be int, got {bad!r}\n"


def _envelope(workdir, args, config=None):
    """Run ``args`` in-process, with ``config`` as its config file if given: exit code, envelope."""
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        args = [*args, "--config", "cfg.json"]
    code = cli.main([*args, "--out", "report.json"])
    return code, json.loads((workdir / "report.json").read_text()) if code == 0 else None


@pytest.mark.parametrize("args,key", [
    (["percolate", "--regime", "small", "--p", "3", "--n", "2", "--m", "1", "--s", "1"], "trials"),
    (["verify", "--p", "2", "--n", "2"], "seed"),
], ids=["percolate", "verify"])
def test_config_file_null_is_not_set(workdir, monkeypatch, args, key):
    monkeypatch.chdir(workdir)
    code, null = _envelope(workdir, args, {key: None})
    assert code == 0
    _, unset = _envelope(workdir, args)
    assert null["config"][key] == {"trials": 200, "seed": 0}[key]
    assert strip_volatile(null) == strip_volatile(unset)  # the same config, hash and report


@pytest.mark.parametrize("args,key", [
    (["enumerate", "--p", "3", "--n", "2", "--m", "1"], "affine"),
    (["project", "--pointset", "line.pts", "--basis", "1,0"], "onto"),
    (["project", "--pointset", "line.pts", "--basis", "1,0"], "profile"),
], ids=["affine", "onto", "profile"])
def test_config_file_on_off_keys_take_bools_only(workdir, monkeypatch, capsys, args, key):
    monkeypatch.chdir(workdir)
    _, flagged = _envelope(workdir, [*args, f"--{key}"])
    _, unflagged = _envelope(workdir, args)
    for value, expected in ((True, flagged), (False, unflagged), (None, unflagged)):
        code, envelope = _envelope(workdir, args, {key: value})
        assert code == 0 and envelope["config"][key] is bool(value)
        assert strip_volatile(envelope) == strip_volatile(expected)
    for bad in ("false", "true", 0, 1, [], {}):
        capsys.readouterr()
        assert _envelope(workdir, args, {key: bad})[0] == 2
        streams = capsys.readouterr()
        assert streams.out == ""  # refused before anything runs
        assert streams.err == f"error: config key {key!r} must be bool, got {bad!r}\n"


def test_config_file_int_for_a_float_flag_is_recorded_as_a_float(workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    args = ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2", "--alpha", "0.5",
            "--m", "1"]
    _, flagged = _envelope(workdir, [*args, "--C", "1"])
    code, from_file = _envelope(workdir, args, {"C": 1})
    assert code == 0 and type(from_file["config"]["C"]) is float
    assert from_file["config_hash"] == flagged["config_hash"]
    assert strip_volatile(from_file) == strip_volatile(flagged)
    assert _envelope(workdir, args, {"C": 10**400})[0] == 2  # no float that large


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_config_keys_are_the_flag_dests(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    code, envelope = _envelope(workdir, GOLDEN_COMMANDS[name])
    assert code == 0
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a for a in commands.choices[name]._actions if a.option_strings]
    assert set(envelope["config"]) == {a.dest for a in flags} - {"help", "config"}


@pytest.mark.parametrize("top", ["[]", "5", '"census"'])
def test_config_file_must_hold_an_object(workdir, monkeypatch, capsys, top):
    (workdir / "cfg.json").write_text(top)
    monkeypatch.chdir(workdir)
    assert cli.main(["census", "--pointset", "line.pts", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.startswith("error: config file must hold a JSON object")


@pytest.mark.parametrize("key,args", [
    ("delta", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "large",
               "--delta", "1/0"]),
    ("s", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
           "--s", "1/0", "--t", "1"]),
    ("t", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
           "--s", "1", "--t", "1/0"]),
    ("s", ["percolate", "--regime", "small", "--p", "3", "--n", "2", "--m", "1",
           "--s", "1/0"]),
    ("delta", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "large",
               "--config", "cfg.json"]),
], ids=["delta", "s", "t", "percolate-s", "config-delta"])
def test_zero_denominator_is_a_usage_error(workdir, monkeypatch, capsys, key, args):
    (workdir / "cfg.json").write_text(json.dumps({"delta": "1/0"}))
    monkeypatch.chdir(workdir)
    assert cli.main([*args, "--out", "report.json"]) == 2
    assert capsys.readouterr().err == f"error: --{key} must be a rational number, got '1/0'\n"
    assert not (workdir / "report.json").exists()


def test_percolate_trial_count_must_be_nonnegative(workdir, monkeypatch, capsys):
    args = ["percolate", "--regime", "small", "--p", "3", "--n", "2", "--m", "1", "--s", "1"]
    monkeypatch.chdir(workdir)
    assert cli.main([*args, "--trials", "-1"]) == 2
    assert capsys.readouterr().err == "error: need trials >= 0, got -1\n"
    assert cli.main([*args, "--trials", "0"]) == 0

    def no_constants(name):
        raise AssertionError(f"{name} in the report")

    report = json.loads(capsys.readouterr().out, parse_constant=no_constants)["report"]
    assert report["trials"] == 0 and report["success_rate"] == 0.0


def test_verify_single_instance(workdir):
    result = run_cli(["verify", "--p", "3", "--n", "2"], workdir)
    assert result.returncode == 0
    assert "CHECK binomial_vs_enumeration: PASS" in result.stdout


def test_verify_grid_lists_from_a_config_file(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)

    def run(p_list):
        (workdir / "cfg.json").write_text(json.dumps({"p_list": p_list, "n": 2}))
        return cli.main(["verify", "--config", "cfg.json", "--out", "report.json"])

    def report():
        return strip_volatile(json.loads((workdir / "report.json").read_text()))

    assert run([2, 3]) == 0
    as_list = report()
    assert run("2,3") == 0
    as_string = report()
    assert as_list["report"]["primes"] == [2, 3] and as_list["report"]["dims"] == [2]
    assert as_list == as_string  # the same grid, config and hash
    for bad in ([2, "3"], [2, True], [2.0], 5, "2,x", {"2": 3}):
        capsys.readouterr()
        assert run(bad) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: p_list must be") and repr(bad) in err


def test_percolate_deterministic_with_dump(workdir):
    args = ["percolate", "--regime", "large", "--p", "5", "--n", "2", "--m", "1",
            "--s", "2", "--trials", "5", "--seed", "1", "--dump", "trials.csv"]
    result = run_cli(args, workdir)
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    assert report["success_rate"] == 1.0  # s = n means delta = 1
    rows = (workdir / "trials.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,size,min_image,all_full"
    assert len(rows) == 6


def test_spectrum_dump_and_projection_cases(workdir):
    result = run_cli(
        ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2",
         "--C", "1", "--alpha", "0.5", "--m", "1", "--dump", "spec.csv"],
        workdir,
    )
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    decay = envelope["report"]["decay"]
    assert decay["max_nonzero_modulus"] == pytest.approx(5**0.5)
    cases = envelope["report"]["projection_cases"]
    assert cases["case"] == "a" and cases["cases"]["a"]["holds"]
    assert (workdir / "spec.csv").exists()


def test_spectrum_sphere_reports_window(workdir):
    result = run_cli(
        ["spectrum", "--builtin", "sphere", "--p", "5", "--n", "2", "--r", "1"],
        workdir,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)["report"]
    assert report["sphere_size_window"]["observed"] == 4


def test_project_onto_duality(workdir):
    straight = run_cli(
        ["project", "--pointset", "line.pts", "--basis", "0,1"], workdir
    )
    onto = run_cli(
        ["project", "--pointset", "line.pts", "--basis", "1,0", "--onto"], workdir
    )
    a = json.loads(straight.stdout)["report"]
    b = json.loads(onto.stdout)["report"]
    assert a["size"] == b["size"] == 3  # Per(span{(1,0)}) = span{(0,1)}


def test_in_process_calls_reuse_one_parser(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    (workdir / "cfg.json").write_text(json.dumps({"trials": "3", "seed": "7", "s": "1"}))
    calls = [[*GOLDEN_COMMANDS[name], "--out", f"{name}.json"] for name in sorted(GOLDEN_COMMANDS)]
    calls.insert(3, ["verify", "--p", "x"])  # refused by argparse
    calls.insert(5, ["enumerate", "--p", "3", "--n", "2", "--m", "0", "--budget", "-1"])
    calls.append(["percolate", "--regime", "small", "--p", "3", "--n", "2", "--m", "1",
                  "--config", "cfg.json", "--out", "typed.json"])  # string-typed values

    def run_all(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            if out and os.path.exists(out):
                os.remove(out)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            streams = capsys.readouterr()
            report = strip_volatile(json.loads(Path(out).read_text())) if code == 0 else None
            results.append((code, streams.out, streams.err, report))
        return results

    fresh = run_all(fresh=True)
    cli.build_parser.cache_clear()
    reused = run_all(fresh=False)
    assert cli.build_parser.cache_info().misses == 1  # built once for the whole sequence
    assert reused == fresh
    assert [code for code, *_ in fresh] == [0, 0, 0, 2, 0, 2, 0, 0, 0, 0]
    assert fresh[-1][3]["config"]["trials"] == 3 and fresh[-1][3]["config"]["seed"] == 7
