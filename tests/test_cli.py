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

from ffproj import cli, energy, projections, subspaces, suite
from ffproj.core import AmbientSpace, PointSet, load_point_set, save_point_set
from ffproj.subspaces import Subspace, gaussian_binomial

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


@pytest.mark.parametrize("p,n,m", [(3, 2, 1), (2, 3, 2)])
def test_enumerate_affine_dump_bytes_are_pinned(workdir, monkeypatch, capsys, p, n, m):
    monkeypatch.chdir(workdir)
    args = ["--p", str(p), "--n", str(n), "--m", str(m), "--affine", "--dump", "planes.txt"]
    assert cli.main(["enumerate", *args]) == 0
    assert capsys.readouterr().out == f"{subspaces.affine_count(AmbientSpace(p, n), m)}\n"
    expected = (GOLDEN / f"affine_f{p}n{n}m{m}.txt").read_bytes()
    assert (workdir / "planes.txt").read_bytes() == expected


# a set of 7 points in F_3^3, projected along an inner direction (onto a plane), the
# zero direction and the full one; tests/golden/project_cases.json holds the reports
PROJECT_CASES = {
    "onto": ["--basis", "1,0,2;0,1,1", "--onto", "--profile"],
    "zero": ["--basis", "0,0,0", "--profile"],
    "full": ["--basis", "1,0,0;0,1,0;0,0,1", "--profile"],
    "onto_full": ["--basis", "1,0,0;0,1,0;0,0,1", "--onto"],
}


@pytest.mark.parametrize("name", sorted(PROJECT_CASES))
def test_project_reports_are_pinned(workdir, monkeypatch, name):
    monkeypatch.chdir(workdir)
    points = [(0, 0, 0), (1, 0, 0), (2, 1, 0), (0, 2, 1), (1, 1, 1), (2, 2, 2), (0, 1, 2)]
    save_point_set(PointSet.from_vectors(AmbientSpace(3, 3), points), workdir / "set.pts")
    argv = ["project", "--pointset", "set.pts", *PROJECT_CASES[name], "--out", "report.json"]
    assert cli.main(argv) == 0
    produced = strip_volatile(json.loads((workdir / "report.json").read_text()))
    assert produced == json.loads((GOLDEN / "project_cases.json").read_text())[name]


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


def _fail_census(monkeypatch):
    """Every small-image census reports 99 exceptional directions against a bound of 1."""
    from fractions import Fraction

    from ffproj.projections import CensusReport, ExactBound

    def fake_census(E, m, N, keep_sizes=False):
        return CensusReport(
            kind="small_image", p=3, n=2, m=m, threshold=Fraction(N),
            observed=99, bound=ExactBound(Fraction(1), 3, Fraction(0)),
            satisfied=False, hypothesis_ok=True, range_condition_ok=True,
        )

    monkeypatch.setattr(cli, "census_small_image", fake_census)


def _fail_energy(monkeypatch):
    """The energy identity's closed form reads one more than the truth."""
    closed_form = energy.energy_identity_closed_form
    monkeypatch.setattr(energy, "energy_identity_closed_form", lambda *a: closed_form(*a) + 1)


def _fail_verify(monkeypatch):
    """The suite counts one subspace too many in every Grassmannian."""
    monkeypatch.setattr(suite, "gaussian_binomial", lambda n, m, p: gaussian_binomial(n, m, p) + 1)


def test_census_failure_exits_one(workdir, monkeypatch, capsys):
    _fail_census(monkeypatch)
    monkeypatch.chdir(workdir)
    code = cli.main(["census", "--pointset", "line.pts", "--m", "1",
                     "--kind", "small", "--N", "1"])
    assert code == 1
    assert "BOUND FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("name,fail,failing", [
    ("census", _fail_census, lambda r: r[0]["observed"] == 99 and r[0]["satisfied"] is False),
    ("energy", _fail_energy,
     lambda r: r["closed_form"] == r["energy"] + 1 and not (r["equal"] or r["spectral_ok"])),
    ("verify", _fail_verify,
     lambda r: not r["all_pass"] and any(c["failure_count"] for c in r["checks"])),
], ids=["census", "energy", "verify"])
def test_a_failing_run_still_writes_its_envelope(workdir, monkeypatch, capsys, name, fail, failing):
    monkeypatch.chdir(workdir)
    args = GOLDEN_COMMANDS[name]
    code, passing = _envelope(workdir, args)
    assert code == 0 and not failing(passing["report"])
    fail(monkeypatch)
    assert cli.main([*args, "--out", "failed.json"]) == 1
    envelope = json.loads((workdir / "failed.json").read_text())
    assert envelope["command"] == name and failing(envelope["report"])
    assert envelope["config_hash"] == passing["config_hash"]  # the same experiment, failed
    capsys.readouterr()
    assert cli.main(args) == 1
    out = capsys.readouterr().out
    if name == "verify":  # its stdout is the CHECK lines; the envelope goes to --out only
        assert out.startswith("CHECK ") and "FAIL" in out
    else:
        printed = json.loads(out)
        assert printed["config"] == {**envelope["config"], "out": None}
        assert strip_volatile(printed) == strip_volatile({**envelope, "config": printed["config"]})


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


@pytest.mark.parametrize("command,message", [
    pytest.param(["spectrum"], "p^n = 33554432 exceeds the full-spectrum budget 4194304; "
                 "use pointwise_coefficient for single xi", id="spectrum"),
    pytest.param(["energy", "--m", "1"],
                 "G(25,1) over F_2 has 33554431 elements, over budget 10000000", id="energy"),
])
def test_over_cap_point_file_is_refused_before_its_body_is_parsed(
    workdir, monkeypatch, capsys, command, message
):
    # 2^25 points fit the point budget, so only the header says the spectrum is over its cap
    # and G(25, 1) over the enumeration budget
    (workdir / "big.pts").write_text("ffpointset 1 p=2 n=25\n" + ",".join(["0"] * 25) + "\n")
    monkeypatch.delenv("FFPROJ_BUDGET", raising=False)
    monkeypatch.chdir(workdir)
    cli.build_parser()  # cached, so the parser is not counted below
    tracemalloc.start()
    try:
        code = cli.main([command[0], "--pointset", "big.pts", *command[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == f"budget error: {message}\n"
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
    # G(2, m) for the combinatorial side, then G(2, n-1) for the spectral one
    assert streams == [1, 1]
    report = json.loads(capsys.readouterr().out)["report"]
    E = load_point_set(workdir / "line.pts")
    assert verify_energy_identity(E, 1) == (report["energy"], report["closed_form"], True)
    assert verify_energy_identity_fourier(E, 1) == (report["spectral"], report["closed_form"], True)


def test_energy_makes_no_transform(workdir, monkeypatch, capsys):
    from ffproj import fourier

    calls = []
    real = fourier.dft

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if (key == "ffproj" or key.startswith("ffproj.")) and getattr(module, "dft", None) is real:
            monkeypatch.setattr(module, "dft", counted)
    assert not hasattr(energy, "dft")  # the energy module binds no transform to patch
    monkeypatch.chdir(workdir)
    for m in ("0", "1", "2"):
        assert cli.main(["energy", "--pointset", "line.pts", "--m", m]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["spectral_ok"] is True
    assert calls == []
    assert cli.main(["spectrum", "--pointset", "line.pts"]) == 0
    assert len(calls) == 1  # the wrapper counts


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


_SPECTRUM = ["spectrum", "--builtin", "paraboloid", "--p", "5", "--n", "2", "--alpha", "0.5",
             "--m", "1"]
_LARGE_CENSUS = ["census", "--pointset", "line.pts", "--m", "1", "--kind", "large"]


@pytest.mark.parametrize("args,config,message", [
    (["energy"], '{"pointset": ["a"], "m": 1}', "config key 'pointset' must be str, got ['a']"),
    (["energy"], '{"pointset": 5, "m": 1}', "config key 'pointset' must be str, got 5"),
    (_SPECTRUM, '{"C": 1e400}', "--C must be a finite number, got inf"),
    ([*_SPECTRUM, "--C", "1e400"], None, "--C must be a finite number, got inf"),
    ([*_SPECTRUM[:-4], "--C", "1", "--m", "1"], '{"alpha": NaN}',
     "--alpha must be a finite number, got nan"),
    (_LARGE_CENSUS, '{"delta": 1e400}', "--delta must be a finite number, got inf"),
], ids=["path-list", "path-number", "float-config", "float-flag", "nan-config", "rational-config"])
def test_config_shapes_are_refused_naming_the_key(
    workdir, monkeypatch, capsys, args, config, message
):
    monkeypatch.chdir(workdir)
    if config is not None:
        (workdir / "cfg.json").write_text(config)
        args = [*args, "--config", "cfg.json"]
    assert cli.main(args) == 2
    streams = capsys.readouterr()
    assert streams.out == "" and streams.err == f"error: {message}\n"


@pytest.mark.parametrize("args,config,config_hash", [  # the hashes these configs had before
    (_LARGE_CENSUS, {"delta": 0.5},
     "25791b94ccb23d640c83475fc663d782d2c4dc2f65f35b09f15f51281d926755"),
    (["census", "--pointset", "line.pts"], {"s": 1, "t": 0.5, "kind": "scales", "m": 1},
     "931e91cfdff6b07c52b0ea37a6a1f8c3d1056641c3b4b27912389421371406c3"),
    (["spectrum"], {"builtin": "paraboloid", "p": 5, "n": 2, "C": 1, "alpha": 0.5, "m": 1},
     "0ffe89dae50930549cd9d07c898d0b87f8d150b70d787b510c01db1e46c1de4d"),
], ids=["delta", "s-t", "spectrum"])
def test_config_file_numbers_keep_their_hash(workdir, monkeypatch, args, config, config_hash):
    monkeypatch.chdir(workdir)
    code, envelope = _envelope(workdir, args, config)
    assert code == 0 and envelope["config_hash"] == config_hash


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


@pytest.mark.parametrize("key,value,args,config", [
    ("s", "1e30", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
                   "--s", "1e30", "--t", "1"], None),
    ("t", "-1e30", ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
                    "--s", "1", "--t=-1e30"], None),
    ("s", 1e30, ["census", "--pointset", "line.pts", "--m", "1", "--kind", "scales",
                 "--t", "1"], {"s": 1e30}),
    ("s", "1e400", ["percolate", "--regime", "small", "--p", "5", "--n", "2", "--m", "1",
                    "--s", "1e400"], None),
    ("s", "3", ["percolate", "--regime", "large", "--p", "5", "--n", "2", "--m", "1",
                "--s", "3"], None),
], ids=["census-s", "census-t", "census-config-s", "percolate-s", "percolate-just-over"])
def test_huge_exponents_are_refused_promptly(workdir, key, value, args, config):
    # p^(10^30) would never finish, and float(10^400) overflows; both ran before the
    # exponent was bounded by the ambient dimension (2 here)
    if config is not None:
        (workdir / "cfg.json").write_text(json.dumps(config))
        args = [*args, "--config", "cfg.json"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "ffproj", *args, "--out", "report.json"],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: --{key} must lie in [-n, n] for n = 2, got {value!r}\n"
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
