import argparse
import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys

import pytest

from ecdescent import arith, cli, curves, descent2, descent3, families, stats
from ecdescent.config import Config
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
    (["stats", "normal-order", "--heights", "15"], "--poly"),
    (["stats", "roots-mod"], "--poly"),
    (["stats", "density-cor-main"], "--height"),
    (["stats", "count-r2"], "--heights"),
    (["stats", "count-r3"], "--heights"),
    (["stats", "count-family"], "--heights"),
    (["stats", "normal-order", "--poly", "-1,-11,1"], "--heights"),
], ids=["e3", "e5", "e7", "type1", "e3-rank-bounds", "twist-e0-rank-bounds", "watkins-e2",
        "watkins-twist-e0", "normal-order", "roots-mod", "density-cor-main", "count-r2-heights",
        "count-r3-heights", "count-family-heights", "normal-order-heights"])
def test_missing_option_is_usage_error(capsys, argv, message):
    """A scan's window is checked by its command, which returns 2; an option
    that a stats experiment's parser requires is checked by argparse, which
    raises SystemExit(2) and names the option."""
    out = io.StringIO()
    if argv[0] == "stats":
        with pytest.raises(SystemExit) as err:
            cli.main(argv, out=out)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {message}\n")
    else:
        assert cli.main(argv, out=out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert out.getvalue() == ""


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
    # the first such split (class 3 mod 4 of the space (2, 8, 10)) break it
    monkeypatch.setattr(descent2, "quartic_resultant", lambda *coeffs: 1)
    code, out = run_cli(["descent", "--a", "-4", "--b", "-1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: class 3 mod 2^2 of (2,8,10) splits past")


def test_descent_dependent_selmer_basis_exit1(capsys, monkeypatch):
    """A basis with the product of its first two elements appended."""
    selmer, dual = descent2._selmer, families.E2Param(0, 1).dual

    def dependent(side, *args):
        basis, goods = selmer(side, *args)
        return [*basis, arith.class_product(*basis[:2])] if side == dual else basis, goods

    monkeypatch.setattr(descent2, "_selmer", dependent)
    code, out = run_cli(["descent", "--a", "0", "--b", "1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err == "error: Selmer basis [2, -1, -2] is dependent\n"


def test_many_prime_descent_stdout():
    """b = -152125131763605 gives 15 local primes and 8,192 classes on the
    phi-hat side.  The sha256 is that of the output of the implementation
    that decided every class at every prime, not once per square class."""
    code, out = run_cli(["descent", "--a", "1", "--b", "-152125131763605"])
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "75e357ac809d99106559189e301e8fa01f3118ff1b3d3f4bd0b28d100ec2f5ec")


def test_descent_selmer_dimensions_below_two_exit1(capsys, monkeypatch):
    monkeypatch.setattr(descent2, "_selmer",
                        lambda side, fac, t, other: ([], {p: frozenset({0}) for p in other}))
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert code == 1
    assert out == ""
    assert capsys.readouterr().err.startswith("error: Selmer dimensions 0 + 0 are below")


def test_descent3_class_group_inconsistency_exit1(capsys, monkeypatch):
    def broken(a, fac):
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


# sha256 of `descent3 --a` stdout, recorded before `rank_upper_type1` shared
# one 3-rank between its two fields: a = m^2 and a = -3 m^2, whose second
# field is Q, a real K_a and an imaginary one.
DESCENT3_STDOUT_SHA256 = {
    4: "a4fcb2b26adb593405b15c7ac6a497795fbff7ea22ce65139245c462433f1eb5",
    -12: "d1ea263adcd231b1669098a25e9171bc310b2df2aaef5e84d9d7b0eeb1fe5f1b",
    -432: "bb845e28ba6983327d084a48b6c147601fea25459baca2bfd3755c704fa9042a",
    79: "30946979528649bbff40a8d2cd6da4fd1c118477dae19c4954526321156b1d3b",
    -79: "542ffe072b55237ef68e802f1071d1fa7ef8d451ab2e3557c007c655e6107cb1",
    2997: "f89fceef72804f040dc8b5a0686a98db1081a014ffb8baa2111661a7f81d7547",
}


@pytest.mark.parametrize("a", sorted(DESCENT3_STDOUT_SHA256))
def test_descent3_stdout_pinned(a):
    code, out = run_cli(["descent3", "--a", str(a)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DESCENT3_STDOUT_SHA256[a]


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

    def failing_fifth(param, facs):
        calls.append(param)
        if len(calls) == 5:
            raise ArithmeticError("fifth descent fails")
        return rank_upper(param, facs)

    monkeypatch.setattr(descent2, "rank_upper", failing_fifth)
    code, out = run_cli(["watkins", "--family", "e2", "--height", "3"])
    assert code == 1
    assert out.splitlines() == full.splitlines()[:5]  # the header and 4 rows
    assert capsys.readouterr().err == "error: fifth descent fails\n"


def test_incomplete_row_primes_exit_1(monkeypatch, capsys):
    """A row whose factorization misses a prime power stops the scan with
    exit 1 and one `error:` line, not a miscount and not a traceback: each
    number's largest prime power is dropped, so the first row fails."""
    factor = families.factor
    monkeypatch.setattr(families, "factor", lambda n: factor(n)[:-1])
    for argv in (["enumerate", "--family", "e2", "--height", "2"],
                 ["watkins", "--family", "e2", "--height", "2"]):
        code, out = run_cli(argv)
        assert code == 1
        assert len(out.splitlines()) == 1  # the header alone
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "has a prime outside its prime powers" in err


@pytest.mark.parametrize("argv, source, missing", [
    (["descent", "--a", "1", "--b", "15"], "e2_primes", 5),  # a prime of b
    (["descent", "--a", "1", "--b", "15"], "e2_primes", 59),  # of a^2 - 4b = -59
    (["descent3", "--a", "-50"], "type1_primes", 5),  # of a
    (["enumerate", "--family", "type1", "--height", "2", "--rank-bounds"], "type1_primes", 2),
])
def test_missing_descent_prime_exits_1(monkeypatch, capsys, argv, source, missing):
    """A descent whose factorization of b, of a^2 - 4b or of a misses the
    power of `missing` stops with exit 1 and one `error:` line, raised by the
    row's factoring step `source`, before any result of such a parameter is
    written: a scan keeps only the rows before the first a that `missing`
    divides."""
    argv = ["--workers", "1", *argv]
    _, full = run_cli(argv)
    factor = families.factor
    monkeypatch.setattr(families, "factor",
                        lambda n: tuple((p, e) for p, e in factor(n) if p != missing))
    raised, check = [], getattr(families, source)

    def recording(x):
        try:
            return check(x)
        except ArithmeticError:
            raised.append(x)
            raise

    monkeypatch.setattr(families, source, recording)
    code, out = run_cli(argv)
    assert code == 1
    assert len(raised) == 1
    if argv[2] == "enumerate":
        lines = full.splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if i and int(line.split(",")[0]) % missing == 0)
        assert lines[0] == "params,A,B,omega_N,rank_upper\n"
        assert out == "".join(lines[:first])
    else:
        assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "has a prime outside its prime powers" in err


@pytest.mark.parametrize("argv, per_row", [
    (["enumerate", "--family", "e2", "--height", "3", "--rank-bounds"], 2),
    (["watkins", "--family", "e2", "--height", "3"], 2),
    (["enumerate", "--family", "type1", "--height", "3", "--rank-bounds"], 1),
    (["descent", "--a", "-3", "--b", "210"], 2),
    (["descent3", "--a", "-432"], 1),
])
def test_rows_factor_their_parameters_once(monkeypatch, argv, per_row):
    """With the memo off every factorization is real and counted: an e2 row
    or a `descent` factors b and a^2 - 4b, a type1 row or a `descent3` a,
    once each, and stdout is that of the memo on."""
    argv = ["--workers", "1", *argv]
    expected = run_cli(argv)
    assert expected[0] == 0
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    arith.set_factor_cache(False)
    try:
        code, out = run_cli(argv)
    finally:
        arith.set_factor_cache(True)
    assert (code, out) == expected
    csv = [line for line in out.splitlines() if not line.startswith("{")]
    rows = len(csv) - 1 if csv else 1  # a header and its rows, or one JSON result
    assert len(calls) == per_row * rows, (rows, len(calls))


@pytest.mark.parametrize("argv, bound", [
    (["enumerate", "--family", "type1", "--height", "8", "--rank-bounds"], 512),
    (["enumerate", "--family", "twist-e0", "--range", "2000"], 2000),
])
def test_scan_memo_holds_the_parameters_alone(argv, bound):
    """A row derives its numbers from its parameter's factorization, so the
    factor memo ends with one entry per |a| or |D| of the window, and none of
    432 a^2, D^3 or 432 D^6."""
    arith.set_factor_cache(False)
    arith.set_factor_cache(True)
    assert cli.main(["--workers", "1", *argv], out=io.StringIO()) == 0
    assert 0 < len(arith._factor_cache) <= bound


def test_scan_writes_each_row_as_it_is_made(monkeypatch):
    """At --workers 1 a row reaches stdout before the next item's row is
    made: no scan holds its rows."""
    events = []
    conductor_support = curves.conductor_support

    def recording(model, policy, primes):
        events.append("made")
        return conductor_support(model, policy, primes)

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


def test_stats_normal_order_factors_one_window(monkeypatch):
    """With the memo off, the heights 50 and 100 factor the values of the
    height-100 window once: 12,175 factorizations (the per-height loop made
    15,270), and stdout is that of the memo on."""
    argv = ["stats", "normal-order", "--poly", "1,0,1", "--heights", "50,100"]
    expected = run_cli(argv)
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    arith.set_factor_cache(False)
    try:
        assert run_cli(argv) == expected
    finally:
        arith.set_factor_cache(True)
    assert expected[0] == 0
    assert len(calls) == 12175, len(calls)


@pytest.mark.parametrize("argv", [
    *[["enumerate", "--family", family, *window] for family, window in (
        ("e2", ["--height", "2"]), ("e3", ["--height", "5"]), ("e5", ["--height", "50"]),
        ("e7", ["--height", "200"]), ("type1", ["--height", "2"]),
        ("twist-e0", ["--range", "30"]))],
    ["descent", "--a", "0", "--b", "-1"],
    ["descent3", "--a", "2"],
    ["watkins", "--family", "e2", "--height", "2"],
    ["watkins", "--family", "twist-e0", "--range", "30"],
    ["stats", "count-r2", "--heights", "3,5,8"],
    ["stats", "count-r3", "--heights", "3,5,8"],
    ["stats", "count-family", "--heights", "50,100"],
    ["stats", "volume", "--precision", "20"],
    ["stats", "normal-order", "--poly", "-1,-11,1", "--heights", "15"],
    ["stats", "roots-mod", "--poly", "-1,-11,1", "--pmax", "30"],
    ["stats", "avg-frobenius", "--pmax", "30"],
    ["stats", "density-cor-main", "--height", "3"],
    ["verify", "--dataset", DATA],
], ids=lambda argv: " ".join(map(os.path.basename, argv)))
def test_output_protocol(argv):
    """Every command writes an optional CSV block, then at most one JSON line,
    which echoes the effective config; `enumerate` writes no JSON line."""
    code, out = run_cli(["--nu2-manin", "1", *argv])
    assert code == 0
    lines = out.splitlines()
    docs = [i for i, line in enumerate(lines) if line.startswith("{")]
    assert len(docs) == (argv[0] != "enumerate")
    if docs:
        assert docs == [len(lines) - 1]
        config = json.loads(lines[-1])["config"]
        assert config == Config(nu2_manin=1).as_dict()
        assert config["nu2_manin"] == 1
        lines.pop()
    if lines:  # a header, then rows of as many fields
        assert lines[0][0].isalpha()
        assert len(lines) > 1
        assert {line.count(",") for line in lines} == {lines[0].count(",")}


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


def test_verify_skips_a_byte_order_mark(tmp_path, capsys):
    """A UTF-8 byte-order mark before the header changes neither stdout nor
    the exit code; after one, non-UTF-8 bytes still exit 2, and the error
    names the bad byte's offset in the file, the mark counted."""
    p = tmp_path / "bom.csv"
    with open(DATA, "rb") as fh:
        p.write_bytes(b"\xef\xbb\xbf" + fh.read())
    code, out = run_cli(["verify", "--dataset", str(p)])
    assert (code, out.replace(str(p), DATA)) == run_cli(["verify", "--dataset", DATA])
    assert capsys.readouterr().err == ""
    p.write_bytes(b"\xef\xbb\xbflabel,A,B,rank,modular_degree\ne\xe9,0,-1,0,1\n")
    assert run_cli(["verify", "--dataset", str(p)]) == (2, "")
    assert capsys.readouterr().err == "error: not UTF-8 text at byte 34\n"


@pytest.mark.parametrize("argv, error", [
    (["verify", "--dataset", "{missing}"], errno.ENOENT),
    (["verify", "--dataset", "{tmp}"], errno.EISDIR),
], ids=["missing-dataset", "directory-dataset"])
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


# Each stats experiment's options, and a valid value of each stats option.
STATS_OPTIONS = {
    "count-r2": ["--heights"],
    "count-r3": ["--heights"],
    "count-family": ["--heights", "--ell"],
    "volume": ["--precision"],
    "normal-order": ["--poly", "--heights", "--exclude"],
    "roots-mod": ["--poly", "--pmax", "--square"],
    "avg-frobenius": ["--family", "--pmax"],
    "density-cor-main": ["--height"],
}
OPTION_VALUES = {"--heights": ["3,5"], "--height": ["3"], "--precision": ["12"],
                 "--ell": ["7"], "--poly": ["-1,-11,1"], "--exclude": ["2"], "--pmax": ["30"],
                 "--square": [], "--family": ["e7"]}


def stats_argv(experiment, *options):
    """`stats experiment` with each of `options` and its valid value."""
    return ["stats", experiment, *(x for o in options for x in [o, *OPTION_VALUES[o]])]


def assert_parser_refuses(capsys, argv):
    """argparse rejects argv with SystemExit(2), and nothing reaches stdout."""
    out = io.StringIO()
    with pytest.raises(SystemExit) as err:
        cli.main(argv, out=out)
    assert err.value.code == 2
    assert out.getvalue() == capsys.readouterr().out == ""


def subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_stats_options_are_fourteen_pairs():
    experiments = subcommands(subcommands(cli.build_parser())["stats"])
    declared = {name: [a.option_strings[-1] for a in q._actions if a.dest != "help"]
                for name, q in experiments.items()}
    assert declared == STATS_OPTIONS
    assert sum(map(len, declared.values())) == 14


@pytest.mark.parametrize("experiment, option", [
    (experiment, option) for experiment, own in STATS_OPTIONS.items()
    for option in OPTION_VALUES if option not in own])
def test_stats_option_not_read_is_refused(capsys, experiment, option):
    """Each of the 58 (experiment, option) pairs that the experiment does not
    read exits 2, `--height` included where `--heights` is read: no option
    stands for another by abbreviation."""
    cli.build_parser().parse_args(cli._glue_option_values(
        stats_argv(experiment, *STATS_OPTIONS[experiment])))
    assert_parser_refuses(capsys, stats_argv(experiment, *STATS_OPTIONS[experiment], option))


@pytest.mark.parametrize("experiment, option", [
    (experiment, option) for experiment, own in STATS_OPTIONS.items() for option in own])
def test_stats_option_before_the_experiment_is_refused(capsys, experiment, option):
    """An option the experiment reads, given before its name, reaches the
    `stats` parser, which declares none."""
    rest = stats_argv(experiment, *(o for o in STATS_OPTIONS[experiment] if o != option))
    assert_parser_refuses(capsys, ["stats", option, *OPTION_VALUES[option], *rest[1:]])


ABBREVIATED = {
    "--nu2": ["--nu2-manin", "1", "enumerate", "--family", "type1", "--height", "1", "--rank-bounds"],
    "--work": ["--workers", "1", "enumerate", "--family", "type1", "--height", "1"],
    "--fam": ["enumerate", "--family", "type1", "--height", "1"],
    "--heig": ["enumerate", "--family", "type1", "--height", "1"],
    "--rank": ["enumerate", "--family", "type1", "--height", "1", "--rank-bounds"],
    "--famil": ["watkins", "--family", "e2", "--height", "1"],
    "--data": ["verify", "--dataset", DATA],
}


@pytest.mark.parametrize("abbreviation", sorted(ABBREVIATED))
def test_abbreviated_option_is_refused(capsys, abbreviation):
    """No parser takes a prefix for a whole option: the top level's, those of
    `enumerate`, `watkins` and `verify` (`descent` and `descent3` have only
    `--a` and `--b`).  The full names work."""
    argv = ABBREVIATED[abbreviation]
    assert run_cli(argv)[0] == 0
    full = next(tok for tok in argv if tok.startswith(abbreviation))
    assert_parser_refuses(capsys, [abbreviation if tok == full else tok for tok in argv])


@pytest.mark.parametrize("experiment", sorted(STATS_OPTIONS))
def test_stats_help_lists_the_experiments_own_options(capsys, experiment):
    with pytest.raises(SystemExit) as err:
        cli.main(["stats", experiment, "-h"], out=io.StringIO())
    assert err.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *STATS_OPTIONS[experiment]}


def test_config_file_and_override():
    """The global flags set every config field, and the JSON line echoes them;
    a flag left out takes Config's default."""
    code, out = run_cli(["--policy", "exclude-23", "--nu2-manin", "1", "--workers", "2",
                         "stats", "volume", "--precision", "12"])
    assert code == 0
    assert json.loads(out)["config"] == Config("exclude-23", 1, 2).as_dict()
    code, out = run_cli(["--workers", "2", "stats", "volume", "--precision", "12"])
    assert code == 0
    assert json.loads(out)["config"] == Config(workers=2).as_dict()


def test_retired_options_are_gone_but_echoed(capsys):
    # the real place is always a Selmer condition; no option drops it, and
    # the global flags are the one way to set the config
    for flags in (["--depth-cap-extra", "5"], ["--seed", "5"], ["--real-place"],
                  ["--no-real-place"], ["--config", "x"]):
        out = io.StringIO()
        with pytest.raises(SystemExit) as err:
            cli.main(flags + ["descent", "--a", "0", "--b", "-1"], out=out)
        assert err.value.code == 2
        assert out.getvalue() == capsys.readouterr().out == ""
    # the JSON echo keeps all three at their last values until the
    # benchmark's reference hashes are re-recorded
    code, out = run_cli(["descent", "--a", "0", "--b", "-1"])
    assert json.loads(out)["config"] == {
        "policy": "include-small", "nu2_manin": 0, "solubility_real_place": True,
        "workers": 1, "depth_cap_extra": 5, "seed": 0}


@pytest.mark.parametrize("argv, message", [
    (["--workers", "0"], "workers must be >= 1, got 0"),
    (["--nu2-manin", "-1"], "nu2_manin must be >= 0, got -1"),
], ids=["workers-flag", "nu2-manin-flag"])
def test_config_range_error_names_the_field(capsys, argv, message):
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

    def failing(param, facs):
        if os.getpid() != parent and (param.a, param.b) == target:
            if failure is None:
                os._exit(0)  # end the worker without sending its chunk
            raise failure
        return rank_upper(param, facs)

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


def test_closed_stdout_leaves_no_child(two_cpus):
    """`| head` at --workers 2, in process: the reader goes after the header."""
    class Closed:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

    code = cli.main(["--workers", "2", "enumerate", "--family", "twist-e0", "--range", "300"],
                    out=Closed())
    assert code == 1
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_closed_stdout_leaks_no_descriptor(monkeypatch):
    """Each in-process call whose stdout is a pipe with no reader points
    stdout at devnull and closes the descriptor it opened for that."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert cli.main(["descent3", "--a", "2"]) == 1
            print("after", file=stdout, flush=True)  # devnull takes it
    assert len(os.listdir("/proc/self/fd")) == before


def test_closed_caller_writer_leaves_stdout_alone(capsys):
    """A broken `out` of the caller's own is no reason to touch stdout: under
    capsys, whose stdout has no descriptor, the call returns 1 and a later
    print still reaches stdout."""
    class Closed:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def flush(self):
            pass

    assert cli.main(["descent3", "--a", "2"], out=Closed()) == 1
    print("still here")
    assert capsys.readouterr().out == "still here\n"


def test_failed_fork_exits_1(capsys, monkeypatch, two_cpus):
    """A worker that cannot be forked fails the scan with exit 1 and an
    `error:` line, after the header; no process is started."""
    def refused():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    argv = ["watkins", "--family", "e2", "--height", "3"]
    _, serial = run_cli(argv)
    monkeypatch.setattr(os, "fork", refused)
    code, out = run_cli(["--workers", "2", *argv])
    assert code == 1
    assert out == serial.splitlines(keepends=True)[0]
    assert capsys.readouterr().err == (
        "error: could not start scan worker 1: [Errno 11] Resource temporarily unavailable\n")


def test_failed_fork_reaps_the_workers_already_forked(capsys, monkeypatch):
    """At --workers 3 the second fork fails: the first worker is still
    killed and reaped.  Its fork is simulated, with a pid no process can
    have, and kill and waitpid only record their calls."""
    fake_pid, calls = 1 << 30, []
    forks = iter([fake_pid])

    def fork():
        if (pid := next(forks, None)) is None:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "kill", lambda pid, sig: calls.append(("kill", pid, sig)))
    monkeypatch.setattr(os, "waitpid", lambda pid, options: calls.append(("waitpid", pid)))
    code, _ = run_cli(["--workers", "3", "watkins", "--family", "e2", "--height", "3"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: could not start scan worker 2: ")
    assert calls == [("kill", fake_pid, 9), ("waitpid", fake_pid)]


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
    # recorded with `descent3.reduced_forms` looping over b; reaches a = 63
    "--workers 1 enumerate --family type1 --height 10 --rank-bounds":
        "17f29fd8b080c336c30c4465109684fff4186650f9ac4158de64f02698bd31fb",
    "--workers 2 enumerate --family type1 --height 10 --rank-bounds":
        "17f29fd8b080c336c30c4465109684fff4186650f9ac4158de64f02698bd31fb",
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
