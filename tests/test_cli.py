import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys

import pytest

from ecdescent import cli, curves, descent2, descent3, families, stats
from ecdescent.errors import DomainError

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "ecdescent", "data",
                    "sample_dataset.csv")


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def two_cpus(monkeypatch):
    """`--workers 2` forks one worker, also on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def capped_fork(monkeypatch, cap):
    """Count the calls of os.fork, and refuse any call past `cap` before it
    reaches the real fork, so a broken cap starts no process beyond it."""
    forks = []
    fork = os.fork

    def capped():
        if len(forks) >= cap:
            raise AssertionError(f"fork past the cap of {cap}")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", capped)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_csv_json(text):
    """Split 'CSV block then one JSON document' output."""
    lines = text.strip().splitlines()
    assert lines[-1].startswith("{")
    return lines[:-1], json.loads(lines[-1])


def test_enumerate_type1_height5():
    code, out = run_cli(["enumerate", "--family", "type1", "--height", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "params,A,B,omega_N"
    assert len(lines) - 1 == 250  # 0 < |a| <= 125, both signs
    assert lines[1:] == sorted(lines[1:])


def test_enumerate_e2_deterministic():
    code1, out1 = run_cli(["enumerate", "--family", "e2", "--height", "4"])
    code2, out2 = run_cli(["--workers", "3", "enumerate", "--family", "e2", "--height", "4"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_e5_matches_count_family():
    for ell, X in ((5, 50), (7, 200)):
        code, out = run_cli(["enumerate", "--family", f"e{ell}", "--height", str(X)])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == stats.count_family(ell, X)


def test_enumerate_rank_bounds_column():
    code, out = run_cli(["enumerate", "--family", "e2", "--height", "2", "--rank-bounds"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "params,A,B,omega_N,rank_upper"
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_enumerate_missing_height_is_usage_error():
    code, _ = run_cli(["enumerate", "--family", "e2"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--family", "e3"], "--height is required for family e3"),
    (["enumerate", "--family", "e5"], "--height is required for family e5"),
    (["enumerate", "--family", "e7"], "--height is required for family e7"),
    (["enumerate", "--family", "type1"], "--height is required for family type1"),
    # the window checks come before the --rank-bounds refusal
    (["enumerate", "--family", "e3", "--rank-bounds"], "--height is required for family e3"),
    (["enumerate", "--family", "twist-e0", "--rank-bounds"],
     "--range (or --height) is required for twist-e0"),
    (["watkins", "--family", "e2"], "--height is required for family e2"),
    (["watkins", "--family", "twist-e0"], "--range (or --height) is required for twist-e0"),
    (["stats", "normal-order", "--heights", "15"], "--poly is required"),
    (["stats", "roots-mod"], "--poly is required"),
    (["stats", "density-cor-main"], "--height is required for density-cor-main"),
], ids=["e3", "e5", "e7", "type1", "e3-rank-bounds", "twist-e0-rank-bounds", "watkins-e2",
        "watkins-twist-e0", "normal-order", "roots-mod", "density-cor-main"])
def test_missing_option_is_usage_error(capsys, argv, message):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_descent_json():
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank_upper"] == 0
    assert doc["phi_classes"] == [1, 2]
    assert doc["config"]["policy"] == "include-small"


def test_descent_singular_exit1(capsys):
    code, _ = run_cli(["descent", "--a", "0", "--b", "0"])
    assert code == 1


def test_descent_resultant_invariant_exit1(capsys, monkeypatch):
    # a split at depth k >= 2 needs p^k | Res(g, g'); a resultant of 1 makes
    # the first such split (class 2 mod 4 of the space (3, 12, 52)) break it
    monkeypatch.setattr(descent2, "quartic_resultant", lambda *coeffs: 1)
    code, out = run_cli(["descent", "--a", "-6", "--b", "-30"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: class 2 mod 2^2 of (3,12,52) splits past")


def test_descent_lost_trivial_class_exit1(capsys, monkeypatch):
    selmer, dual = descent2._selmer, families.E2Param(0, -1).dual

    def losing(side, *args):
        found = selmer(side, *args)
        return [d for d in found if d != 1] if side == dual else found

    monkeypatch.setattr(descent2, "_selmer", losing)
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: trivial class must survive")


def test_many_prime_descent_stdout():
    """b = -152125131763605 gives 15 local primes and 8,192 classes on the
    phi-hat side.  The sha256 is that of the output of the implementation
    that decided every class at every prime, not once per square class."""
    code, out = run_cli(["descent", "--a", "1", "--b", "-152125131763605"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "75e357ac809d99106559189e301e8fa01f3118ff1b3d3f4bd0b28d100ec2f5ec")


def test_descent_selmer_dimensions_below_two_exit1(capsys, monkeypatch):
    monkeypatch.setattr(descent2, "_selmer", lambda *args: [1])
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: Selmer dimensions 0 + 0 are below")


def test_descent3_class_group_inconsistency_exit1(capsys, monkeypatch):
    def broken(a):
        raise ArithmeticError("3-torsion count 2 is not a power of 3")

    monkeypatch.setattr(descent3, "rank_upper_type1", broken)
    code, _ = run_cli(["descent3", "--a", "1"])
    assert code == 1
    assert capsys.readouterr().err == "error: 3-torsion count 2 is not a power of 3\n"


def test_descent3_json():
    code, out = run_cli(["descent3", "--a", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 5
    assert doc["components"]["s_a"] == 2


def test_watkins_e2():
    code, out = run_cli(["watkins", "--family", "e2", "--height", "4", "--M", "0"])
    assert code == 0
    rows, doc = split_csv_json(out)
    assert rows[0].startswith("a,b,A,B,omega_N")
    assert doc["proven"] > 0
    assert doc["proven"] + doc["inconclusive"] == len(rows) - 1


def test_watkins_huge_m_proves_nothing():
    code, out = run_cli(["watkins", "--family", "e2", "--height", "3", "--M", "99"])
    assert code == 0
    _, doc = split_csv_json(out)
    assert doc["proven"] == 0


def test_watkins_negative_m_is_usage_error(capsys):
    code, out = run_cli(["watkins", "--family", "e2", "--height", "2", "--M", "-3"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: --M must be >= 0, got -3\n"
    code, out = run_cli(["verify", "--dataset", DATA, "--M", "-1"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    *[["enumerate", "--family", family, "--height", "-3"]
      for family in ("e2", "e3", "e5", "e7", "type1", "twist-e0")],
    ["enumerate", "--family", "twist-e0", "--range", "-3"],
    ["enumerate", "--family", "e5", "--rank-bounds", "--height", "-3"],
    ["watkins", "--family", "e2", "--height", "-3"],
    ["watkins", "--family", "twist-e0", "--range", "-3"],
    ["stats", "roots-mod", "--poly", "-1,-11,1", "--pmax", "-5"],
    ["stats", "avg-frobenius", "--pmax", "-3"],
], ids=["e2", "e3", "e5", "e7", "type1", "twist-e0", "twist-e0-range", "e5-rank-bounds",
        "watkins-e2", "watkins-twist-e0", "roots-mod", "avg-frobenius"])
def test_negative_window_is_usage_error(capsys, argv):
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {argv[-2]} must be >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("argv", [
    *[["enumerate", "--family", family, "--height", "2", "--range", "9"]
      for family in ("e2", "e3", "e5", "e7", "type1")],
    ["enumerate", "--family", "e2", "--range", "9"],
    ["watkins", "--family", "e2", "--height", "2", "--range", "9"],
], ids=["e2", "e3", "e5", "e7", "type1", "e2-range-only", "watkins-e2"])
def test_range_refused_where_height_is_the_window(capsys, argv):
    """Only twist-e0 reads --range; every other family would ignore it."""
    code, out = run_cli(argv)
    assert (code, out) == (2, "")
    family = argv[argv.index("--family") + 1]
    assert capsys.readouterr().err == (
        f"error: --range does not apply to family {family}; its window is --height\n")


@pytest.mark.parametrize("command", ["enumerate", "watkins"])
def test_twist_window_reads_range_then_height(command):
    """One window rule for both commands: --range, falling back to --height."""
    by_range = run_cli([command, "--family", "twist-e0", "--range", "40"])
    assert by_range[0] == 0
    assert run_cli([command, "--family", "twist-e0", "--height", "40"]) == by_range
    assert run_cli([command, "--family", "twist-e0", "--height", "7", "--range", "40"]) == by_range


def test_scan_failing_partway_keeps_the_rows_written(capsys, monkeypatch):
    """Stdout keeps the header and the rows written before the failure, and
    no JSON line; the failure exits 1 with `error:` on stderr."""
    code, full = run_cli(["watkins", "--family", "e2", "--height", "3"])
    assert code == 0
    calls = []
    rank_upper = descent2.rank_upper

    def failing_fifth(param):
        calls.append(param)
        if len(calls) == 5:
            raise ArithmeticError("fifth descent fails")
        return rank_upper(param)

    monkeypatch.setattr(descent2, "rank_upper", failing_fifth)
    code, out = run_cli(["watkins", "--family", "e2", "--height", "3"])
    assert code == 1
    assert out.splitlines() == full.splitlines()[:5]  # the header and 4 rows
    assert capsys.readouterr().err == "error: fifth descent fails\n"


def test_scan_writes_each_row_as_it_is_made(monkeypatch):
    """At --workers 1 a row reaches stdout before the next item's row is
    made: no scan holds its rows."""
    events = []
    conductor_support = curves.conductor_support

    def recording(model, policy):
        events.append("made")
        return conductor_support(model, policy)

    class Out:
        def write(self, text):
            events.append("written")

        def flush(self):
            pass

    monkeypatch.setattr(curves, "conductor_support", recording)
    for argv in (["enumerate", "--family", "e2", "--height", "2"],
                 ["watkins", "--family", "e2", "--height", "2"]):
        events.clear()
        assert cli.main(argv, out=Out()) == 0
        rows = events.count("made")
        assert rows > 10
        assert events[:2 * rows + 1] == ["written"] + ["made", "written"] * rows


def test_watkins_twist_rejects_nonzero_m(capsys):
    code, out = run_cli(["watkins", "--family", "twist-e0", "--range", "30", "--M", "5"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: --M does not apply to family twist-e0")


def test_watkins_twist():
    code, out = run_cli(["watkins", "--family", "twist-e0", "--range", "30", "--M", "0"])
    assert code == 0
    rows, doc = split_csv_json(out)
    data = {r.split(",")[0]: r.split(",")[3:] for r in rows[1:]}
    assert data["5"] == ["CondI", "ProvenCondI"]
    assert data["2"] == ["Unclassified", "Inconclusive"]
    # all square-free |D| <= 30, both signs
    from ecdescent.arith import is_squarefree

    expected = sum(1 for D in range(-30, 31) if D and is_squarefree(D))
    assert len(rows) - 1 == expected


def test_stats_volume():
    code, out = run_cli(["stats", "volume", "--precision", "20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"].startswith("4.0029503")


def test_stats_count_r2():
    code, out = run_cli(["stats", "count-r2", "--heights", "5,10,20"])
    assert code == 0
    rows, doc = split_csv_json(out)
    assert rows[0] == "X,count"
    assert len(rows) == 4
    assert doc["slope"] > 2.5


# The bytes of the parent implementation, which built the series in cmd_stats.
COUNT_STDOUT = {
    "count-r2": "X,count\n3,101\n5,489\n8,2033\n"
                '{"command": "stats.count-r2", "config": {"depth_cap_extra": 5, "nu2_manin": 0, '
                '"policy": "include-small", "seed": 0, "solubility_real_place": true, "workers": 1}, '
                '"counts": [[3, 101], [5, 489], [8, 2033]], "slope": 3.0612127697937}\n',
    "count-r3": "X,count\n3,15\n5,39\n8,103\n"
                '{"command": "stats.count-r3", "config": {"depth_cap_extra": 5, "nu2_manin": 0, '
                '"policy": "include-small", "seed": 0, "solubility_real_place": true, "workers": 1}, '
                '"counts": [[3, 15], [5, 39], [8, 103]], "slope": 1.9629817077430634}\n',
}


@pytest.mark.parametrize("experiment", sorted(COUNT_STDOUT))
def test_stats_count_stdout_pinned(experiment):
    assert run_cli(["stats", experiment, "--heights", "3,5,8"]) == (0, COUNT_STDOUT[experiment])


@pytest.mark.parametrize("exclude", ["abc", "2,,3"])
def test_stats_bad_exclude_is_usage_error(capsys, exclude):
    code, out = run_cli(["stats", "normal-order", "--poly", "1,0,1", "--heights", "10",
                         "--exclude", exclude])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        f"error: bad exclude {exclude!r}; expected comma-separated integers\n")


def test_stats_roots_mod():
    code, out = run_cli(["stats", "roots-mod", "--poly", "-1,-11,1", "--pmax", "1000",
                         "--square"])
    assert code == 0
    rows, doc = split_csv_json(out)
    assert doc["violations"] == 0
    assert doc["max_count"] <= 4
    assert all(int(r.split(",")[1]) <= 4 for r in rows[1:])


def test_stats_roots_mod_square_needs_nonzero_resultant(capsys):
    """Res(f, f') = 0 would skip every prime and report no violation."""
    for poly in ("1,2,1", "5"):
        code, out = run_cli(["stats", "roots-mod", "--poly", poly, "--pmax", "30", "--square"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.startswith("error: --square needs f squarefree")


def test_stats_avg_frobenius():
    code, out = run_cli(["stats", "avg-frobenius", "--family", "e5", "--pmax", "60"])
    assert code == 0
    _, doc = split_csv_json(out)
    assert doc["within_bound"] is True
    assert doc["bound"] == 23


def test_stats_density():
    code, out = run_cli(["stats", "density-cor-main", "--height", "6"])
    assert code == 0
    _, doc = split_csv_json(out)
    assert doc["fraction"] > 0.5


def test_stats_normal_order():
    code, out = run_cli(["stats", "normal-order", "--poly", "-1,-11,1",
                         "--heights", "15"])
    assert code == 0
    rows, doc = split_csv_json(out)
    assert rows[0] == "X,mean,variance,n"
    assert doc["samples"][0]["n"] > 100


def test_verify_ok():
    code, out = run_cli(["verify", "--dataset", DATA])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert [r["label"] for r in doc["records"]] == ["e0", "32a1", "37a1", "49a1"]


def test_verify_inconsistent_exit1(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("label,A,B,rank,modular_degree\nbogus,0,-1,5,1\n")
    code, out = run_cli(["verify", "--dataset", str(p)])
    assert code == 1
    doc = json.loads(out)
    assert doc["all_ok"] is False


def test_verify_empty_exit2(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    code, _ = run_cli(["verify", "--dataset", str(p)])
    assert code == 2


def test_verify_malformed_exit2(tmp_path):
    p = tmp_path / "mal.csv"
    p.write_text("label,A,B,rank,modular_degree\nx,1,2\n")
    code, _ = run_cli(["verify", "--dataset", str(p)])
    assert code == 2


def test_verify_non_utf8_exit2(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"label,A,B,rank,modular_degree\ne\xe9,0,-1,0,1\n")
    code, out = run_cli(["verify", "--dataset", str(p)])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: not UTF-8 text at byte 31\n"


@pytest.mark.parametrize("argv, error", [
    (["verify", "--dataset", "{missing}"], errno.ENOENT),
    (["--config", "{missing}", "descent", "--a", "0", "--b", "-1"], errno.ENOENT),
    (["verify", "--dataset", "{tmp}"], errno.EISDIR),
], ids=["missing-dataset", "missing-config", "directory-dataset"])
def test_unreadable_file_is_usage_error(tmp_path, capsys, argv, error):
    paths = {"missing": str(tmp_path / "missing.csv"), "tmp": str(tmp_path)}
    argv = [arg.format(**paths) for arg in argv]
    path = next(arg for arg in argv if arg in paths.values())
    code, out = run_cli(argv)
    assert code == 2
    assert out == ""
    message = str(OSError(error, os.strerror(error), path))
    assert capsys.readouterr().err == f"error: {message}\n"


def test_descent3_zero_is_singular_exit1(capsys):
    assert run_cli(["descent3", "--a", "0"]) == (1, "")
    assert capsys.readouterr().err == "error: a must be nonzero\n"


def test_unknown_flags_exit2():
    with pytest.raises(SystemExit) as err:
        cli.main(["enumerate", "--bogus"], out=io.StringIO())
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main(["stats", "no-such-experiment"], out=io.StringIO())
    assert err.value.code == 2


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("policy=exclude-23\nworkers=2\n# comment\nnu2_manin=1\n")
    code, out = run_cli(["--config", str(cfgfile), "--workers", "1",
                         "stats", "volume", "--precision", "12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["policy"] == "exclude-23"
    assert doc["config"]["nu2_manin"] == 1
    assert doc["config"]["workers"] == 1  # flag overrides file


def test_config_file_non_integer_exit2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("policy=exclude-23\nworkers=abc\n")
    code, out = run_cli(["--config", str(cfgfile), "stats", "volume", "--precision", "12"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err == f"error: {cfgfile}:2: workers must be an integer, got 'abc'\n"


def test_config_file_non_utf8_exit2(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"# r\xe9glages\nworkers=2\n")
    code, out = run_cli(["--config", str(cfgfile), "stats", "volume", "--precision", "12"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {cfgfile}: not UTF-8 text at byte 3\n"


def test_retired_options_are_gone_but_echoed(tmp_path, capsys):
    # the real place is always a Selmer condition; no option drops it
    for flags in (["--depth-cap-extra", "5"], ["--seed", "5"], ["--real-place"],
                  ["--no-real-place"]):
        out = io.StringIO()
        with pytest.raises(SystemExit) as err:
            cli.main(flags + ["descent", "--a", "0", "--b", "-1"], out=out)
        assert err.value.code == 2
        assert out.getvalue() == capsys.readouterr().out == ""
    cfgfile = tmp_path / "run.cfg"
    for key, value in (("seed", "1"), ("solubility_real_place", "true")):
        cfgfile.write_text(f"{key}={value}\n")
        code, out = run_cli(["--config", str(cfgfile), "descent", "--a", "0", "--b", "-1"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {cfgfile}:1: unknown key {key!r}\n"
    # the JSON echo keeps all three at their last values until the
    # benchmark's reference hashes are re-recorded
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert json.loads(out)["config"] == {
        "policy": "include-small", "nu2_manin": 0, "solubility_real_place": True,
        "workers": 1, "depth_cap_extra": 5, "seed": 0}


@pytest.mark.parametrize("argv, cfg_text, message", [
    (["--workers", "0"], None, "workers must be >= 1, got 0"),
    (["--nu2-manin", "-1"], None, "nu2_manin must be >= 0, got -1"),
    ([], "workers=0\n", "workers must be >= 1, got 0"),
], ids=["workers-flag", "nu2-manin-flag", "workers-file"])
def test_config_range_error_names_the_field(tmp_path, capsys, argv, cfg_text, message):
    if cfg_text is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(cfg_text)
        argv = ["--config", str(cfgfile)] + argv
    code, out = run_cli(argv + ["stats", "volume", "--precision", "12"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ecdescent.cli", "descent", "--a", "3", "--b", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank_upper"] == 0


def test_cli_import_leaves_out_concurrent_futures():
    # Neither the import nor a forked --workers 2 scan imports a pool module.
    # Stdout is a pipe, so "[]" waits in its buffer across the fork: printed
    # once, it also shows that the worker flushed nothing it inherited.
    code = """if True:
        import io, os, sys, ecdescent.cli as cli
        def pools():
            return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
        print(pools())
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(None) or fork()
        os.sched_getaffinity = lambda pid: {0, 1}
        code = cli.main(["--workers", "2", "watkins", "--family", "e2", "--height", "3"], io.StringIO())
        print(code, len(forks), pools())
        """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n0 1 []\n"


def test_cli_import_leaves_out_dataclasses_and_typing():
    # each CLI command is a fresh process and pays this import first; the
    # benchmark's probes index every ecdescent module right after it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import ecdescent.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m in ('dataclasses', 'typing', 'inspect') or m.startswith('ecdescent.'))))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules = {f"ecdescent.{name}" for name in (
        "arith", "polys", "curves", "families", "descent2", "descent3", "stats", "watkins",
        "cli", "config", "errors")}
    assert proc.stdout.split() == sorted(modules)


def test_closed_stdout_exits_1_without_traceback():
    # About 128 kB of output, more than a pipe holds, so the writer is still
    # writing when the reader closes the pipe.  At --workers 2 the forked
    # worker is killed and reaped, and the process ends quietly.
    for workers in ("1", "2"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ecdescent.cli", "--workers", workers, "enumerate",
             "--family", "twist-e0", "--range", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"params,A,B,omega_N\n"
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == ""  # no traceback, no "Exception ignored" at exit


# sha256 of the stdout of the implementation that sorted each scan's rows
# after making them all.  At |a| >= 10 the "a;b" tags of `enumerate` and the
# "a,b" tags of `watkins` order a differently ("10;" < "1;" but "1," < "10,").
E2_SCAN_STDOUT_SHA256 = {
    "enumerate --family e2 --height 11":
        "37dc34c676ad0f38e7de5d911f6496e2310e7534c42ad24030b5af53b9cf2220",
    "watkins --family e2 --height 10":
        "44d20ee62563181382dccea9eade2bc5ba50f842fe80bbf43e17ad06cd359f60",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", sorted(E2_SCAN_STDOUT_SHA256))
def test_e2_scan_stdout_pinned(command, workers):
    code, out = run_cli(["--workers", workers, *command.split()])
    assert code == 0
    out = out.replace(f'"workers": {workers}}}', '"workers": 1}')  # the JSON echo
    assert hashlib.sha256(out.encode()).hexdigest() == E2_SCAN_STDOUT_SHA256[command]


@pytest.mark.parametrize("command", [
    "enumerate --family e2 --height 4 --rank-bounds",
    "enumerate --family e3 --height 30",
    "enumerate --family e5 --height 300",
    "enumerate --family e7 --height 1000",
    "enumerate --family type1 --height 3 --rank-bounds",
    "enumerate --family twist-e0 --range 300",
    "watkins --family e2 --height 4",
    "watkins --family twist-e0 --range 300",
])
def test_every_scan_same_stdout_at_two_workers(command, two_cpus):
    code, serial = run_cli(["--workers", "1", *command.split()])
    assert code == 0 and serial.count("\n") > 4  # a worker starts only for 4 items or more
    code, pooled = run_cli(["--workers", "2", *command.split()])
    assert code == 0
    assert pooled.replace('"workers": 2}', '"workers": 1}') == serial
    assert_no_child_left()


@pytest.mark.parametrize("failure, code, error", [
    (ArithmeticError("chunk 3 fails"), 1, "chunk 3 fails"),
    (DomainError("chunk 3 is out of range"), 2, "chunk 3 is out of range"),
    (None, 1, "scan worker 1 ended before sending chunk 3"),
])
def test_worker_failure_keeps_earlier_chunks(capsys, monkeypatch, two_cpus, failure, code, error):
    """A chunk that fails in the forked worker fails the scan at that chunk's
    place: the header and the rows of the chunks before it stay on stdout,
    with no JSON line, and stderr has one `error:` line.  A worker that ends
    without sending its chunk fails the scan too, rather than hang it."""
    argv = ["--workers", "2", "watkins", "--family", "e2", "--height", "3"]
    _, full = run_cli(["--workers", "1", *argv[2:]])
    lines = full.splitlines()
    # 124 rows in chunks of ceil(124 / 32) = 4; chunk 3, the worker's second,
    # starts at row 12
    rows, size = lines[1:-1], -(-(len(lines) - 2) // 32)
    target = tuple(map(int, rows[3 * size].split(",")[:2]))
    parent = os.getpid()
    rank_upper = descent2.rank_upper

    def failing(param):
        if os.getpid() != parent and (param.a, param.b) == target:
            if failure is None:
                os._exit(0)  # end the worker without sending its chunk
            raise failure
        return rank_upper(param)

    def hung(*_):
        raise TimeoutError("the scan hung")

    monkeypatch.setattr(descent2, "rank_upper", failing)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        assert run_cli(argv) == (code, "\n".join(lines[:1 + 3 * size]) + "\n")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err == f"error: {error}\n"
    assert_no_child_left()


def test_closed_stdout_leaves_no_child(monkeypatch, tmp_path, two_cpus):
    """`| head` at --workers 2, in process: the reader goes after the header."""
    class Closed:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

    with open(tmp_path / "stdout", "w") as stdout:  # main points it at devnull
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["--workers", "2", "enumerate", "--family", "twist-e0", "--range", "300"],
                        out=Closed())
    assert code == 1
    assert_no_child_left()


def test_enumerate_e3_against_brute_force():
    """The a-window must include large-|a| rows where 6ab cancels 27a^4."""
    from math import isqrt

    from ecdescent import curves, families
    from ecdescent.errors import SingularCurve

    X = 60
    expected = set()
    for a in range(-25, 26):
        bmax = isqrt(X**3 + 27 * a**6) + 1
        for b in range(-bmax, bmax + 1):
            try:
                raw = families.e3_from_torsion(a, b)
            except SingularCurve:
                continue
            if curves.height_leq(raw, X):
                expected.add(f"{a};{b}")
    code, out = run_cli(["enumerate", "--family", "e3", "--height", str(X)])
    assert code == 0
    got = {line.split(",")[0] for line in out.strip().splitlines()[1:]}
    assert got == expected
    assert "6;-1022" in got  # cancellation row beyond the naive quartic window


# sha256 of the stdout of the implementation that built these windows in
# `cli` (`_e3_rows`, `_tate_rows`, `_squarefree_range`); twist-e0 at
# `--height 50` takes the `--range` fallback.
WINDOW_STDOUT_SHA256 = {
    "enumerate --family e3 --height 30":
        "7c0045cc11ac8d3320c1fb65dc98dbeb637e02296136e8e409076ae257f814bf",
    "enumerate --family e5 --height 80":
        "583f155910e8725b03be42e66cfc4d3a8c348605e24a44a5274999be278222f1",
    "enumerate --family e7 --height 300":
        "3754ad877ceb890385814fde49873592a5ff83884223161cd16388398992689d",
    "enumerate --family twist-e0 --height 50":
        "1c5e65e382f98c3b225439927450282fa2006f5fbbe748415fb449238da7ff55",
    "watkins --family twist-e0 --range 300":
        "ed254ffefd72395858446cc3420754821cfb224048da8547ed05e92f479a5b6e",
}


@pytest.mark.parametrize("command", sorted(WINDOW_STDOUT_SHA256))
def test_family_window_stdout_pinned(command):
    code, out = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WINDOW_STDOUT_SHA256[command]


# sha256 of the stdout of the implementation that read each field's units
# from `descent3.unit_3dim` and classified each twist twice (`twist_e0`, then
# `watkins.twist_watkins`).
FIELD_AND_TWIST_STDOUT_SHA256 = {
    "descent3 --a 1":
        "b4605e90538218a53092fedd1a1b13ff98a7612882a2c152031b69d735215cba",
    "descent3 --a -7":
        "cfad329e708742ce645de1c52b03d3694920d45c1681d4879f7c9f013894e58b",
    "descent3 --a 64":
        "767ee7f73edfa3427c054c045eaef89bd4152fb20716233085bc86575689d11d",
    "descent3 --a -432":
        "bb845e28ba6983327d084a48b6c147601fea25459baca2bfd3755c704fa9042a",
    "descent3 --a 1728":
        "a2fed1550c1578f3e7d1e3434842c5c22324feb3ccbe923d7d5630b3060ab8dc",
    "watkins --family twist-e0 --range 5000":
        "f304fbfff2151234b2d9a694a8259ea94cba0720d5436b16feba87bc8586daef",
}


@pytest.mark.parametrize("command", sorted(FIELD_AND_TWIST_STDOUT_SHA256))
def test_field_and_twist_stdout_pinned(command):
    code, out = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIELD_AND_TWIST_STDOUT_SHA256[command]


# sha256 of the stdout of the implementation that counted each count-r2 row
# by scanning b (about 30 s for these heights) and took Res(f, f') as a
# Sylvester determinant.  Res = -7^4 and 229 here, so roots-mod skips 7 and 229.
KERNEL_STDOUT_SHA256 = {
    "stats count-r2 --heights 100,200,400":
        "2afd4d435a78227123b83fefca5617a73e902ee3776b29058e26a1fc4536e5fc",
    "stats roots-mod --square --pmax 2000 --poly 1,5,-8,1":
        "351496234e4abccaf961852dc9800170be80f8af788957b0aeae82fbe536611f",
    "stats roots-mod --square --pmax 2000 --poly 1,1,0,0,1":
        "674684542e29b3e006b94cfbb2b0332e469357ee2546bd323727070628f91ba4",
}


@pytest.mark.parametrize("command", sorted(KERNEL_STDOUT_SHA256))
def test_kernel_stdout_pinned(command):
    code, out = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_STDOUT_SHA256[command]


def test_watkins_twist_classifies_each_d_once(monkeypatch):
    calls = []
    twist_e0 = families.twist_e0

    def counting(D, nu2_manin=0):
        calls.append(D)
        return twist_e0(D, nu2_manin)

    monkeypatch.setattr(families, "twist_e0", counting)
    code, out = run_cli(["watkins", "--family", "twist-e0", "--range", "300"])
    assert code == 0
    rows, _ = split_csv_json(out)
    assert len(rows) - 1 == 366  # the header is not a row
    assert len(calls) == len(set(calls)) == 366


@pytest.mark.parametrize("family", ["e3", "e5", "e7", "twist-e0"])
def test_rank_bounds_refused_outside_e2_and_type1(capsys, family):
    code, out = run_cli(["enumerate", "--family", family, "--height", "5", "--rank-bounds"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: --rank-bounds is supported for families e2 and type1\n"


def test_workers_capped_at_cpu_count(monkeypatch):
    forks = capped_fork(monkeypatch, 2)  # a pool of 3 forks 2 workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for argv in (["enumerate", "--family", "type1", "--height", "3"],
                 ["watkins", "--family", "e2", "--height", "2"]):
        code, serial = run_cli(argv)
        assert code == 0 and forks == []
        code, capped = run_cli(["--workers", "10000", *argv])
        assert code == 0 and len(forks) == 2
        # the config echo keeps the requested count
        assert capped == serial.replace('"workers": 1}', '"workers": 10000}')
        forks.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    code, _ = run_cli(["--workers", "10000", "enumerate", "--family", "type1", "--height", "3"])
    assert code == 0 and forks == []
    assert_no_child_left()


def test_workers_capped_at_cpu_affinity(monkeypatch):
    """The pool is sized by the CPUs this process may run on, not by the
    CPUs of the machine."""
    forks = capped_fork(monkeypatch, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["--workers", "4", "watkins", "--family", "e2", "--height", "2"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    code, serial = run_cli(argv)
    assert code == 0 and forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert run_cli(argv) == (0, serial)
    assert len(forks) == 1
    assert_no_child_left()


def test_scan_without_fork_runs_inline(monkeypatch, two_cpus):
    argv = ["watkins", "--family", "e2", "--height", "2"]
    _, serial = run_cli(argv)
    monkeypatch.delattr(os, "fork")
    code, out = run_cli(["--workers", "2", *argv])
    assert code == 0
    assert out == serial.replace('"workers": 1}', '"workers": 2}')
