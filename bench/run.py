"""Benchmark driver for the ecdescent CLI.

Run one workload (or `all`) and print one line per metric, then one JSON
result line:

    python3 bench/run.py --workload scan-e2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0 --out bench/out/a.json
    python3 bench/run.py --compare bench/out/a.json bench/out/b.json
    python3 bench/run.py --record    # re-record reference.json from the current code

With `--trace 0` the end-to-end metrics come from real CLI processes
(`python -m ecdescent.cli` with PYTHONPATH=src), one at a time in a closed
loop, each a fresh process.  Passes at --workers 1 and --workers 2 alternate
until `--seconds` have passed, and a fixed calibration kernel is timed after
every command.  Each command timing is a trimmed mean over passes, scaled
to the machine speed at which the kernel takes CAL_REF_S (see
`calibration_s`); `setup_s` is a trimmed mean, unscaled.  With
`--trace 1` the same commands run in process through `cli.main` at
--workers 1, once untraced and once with the probes of `probes.py`, and the
per-module metrics are reported.  Every command's exit code and stdout are
checked against `reference.json` and against output invariants; a miss
counts as failed.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probes import Probes, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

COMMAND_TIMEOUT_S = 120
SETUP_SAMPLES_PER_PASS = 3
SETUP_CODE = "import time, ecdescent.cli; print(time.monotonic_ns())"

# Seconds the calibration kernel takes at the reference speed; timings are
# reported as they would read at that speed.
CAL_REF_S = 0.035
CAL_ITERATIONS = 60_000
# One kernel run per this many seconds of command, so the kernel samples the
# machine in proportion to the time commands spent on it.
CAL_EVERY_S = 0.5
TRIM = 0.1  # share of samples dropped at each end of a trimmed mean

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("wall_w2_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("descent2.padic_nodes", "count"),
    ("descent2.padic_soluble.calls", "count"),
    ("descent2.padic_soluble.s", "s"),
    ("descent2.padic_cache_hit_ratio", "ratio"),
    ("descent2.classes_tested", "count"),
    ("descent2.survivor_ratio", "ratio"),
    ("descent2.max_local_prime", "int"),
    ("descent2.rank_upper.calls", "count"),
    ("descent2.self_s", "s"),
    ("descent3.compose.calls", "count"),
    ("descent3.reduced_forms", "count"),
    ("descent3.r3_imaginary.calls", "count"),
    ("descent3.r3_cache_hit_ratio", "ratio"),
    ("descent3.max_abs_disc", "int"),
    ("descent3.rank_upper_type1.calls", "count"),
    ("descent3.self_s", "s"),
    ("arith.factor.calls", "count"),
    ("arith.factor.s", "s"),
    ("arith.factor_cache_hit_ratio", "ratio"),
    ("arith.factor_cache_size", "entries"),
    ("arith.rho.calls", "count"),
    ("arith.is_prime.calls", "count"),
    ("arith.self_s", "s"),
    ("curves.conductor_support.calls", "count"),
    ("curves.minimize.calls", "count"),
    ("curves.short_model.calls", "count"),
    ("curves.short_model.s", "s"),
    ("curves.trace.calls", "count"),
    ("curves.trace.s", "s"),
    ("curves.self_s", "s"),
    ("families.e2_curve.s", "s"),
    ("families.tate.calls", "count"),
    ("families.tate.s", "s"),
    ("families.self_s", "s"),
    ("polys.rational_roots.calls", "count"),
    ("polys.rational_roots.s", "s"),
    ("polys.self_s", "s"),
    ("stats.count_family.kept_ratio", "ratio"),
    ("stats.avg_frobenius.s", "s"),
    ("stats.roots_mod.s", "s"),
    ("stats.self_s", "s"),
    ("watkins.report.calls", "count"),
    ("watkins.proven_ratio", "ratio"),
    ("watkins.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# What the traced run checks each workload isolates: (modules, test, share of
# all self time).
ISOLATION = {
    "scan-e2": [(("descent2",), ">", 0.5)],
    "descent-bigp": [(("descent2",), ">", 0.5)],
    "type1-descent3": [(("descent3",), ">", 0.5), (("descent2",), "<", 0.05)],
    "experiments": [(("arith", "stats", "curves", "families", "polys"), ">", 0.5),
                    (("descent2",), "<", 0.05)],
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def nproc():
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ processes


class Run:
    def __init__(self, exit_code, stdout, wall, cpu, rss_mb):
        self.exit, self.stdout = exit_code, stdout
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


class Launcher:
    """Client of launcher.py, which forks each command and reports its exit
    code, wall time, CPU time and max RSS from the child's rusage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "launcher.py"), str(COMMAND_TIMEOUT_S)],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv):
        self.proc.stdin.write("\0".join(argv).encode() + b"\n")
        self.proc.stdin.flush()
        header = self.proc.stdout.readline().split()
        if len(header) != 5:
            raise RuntimeError("launcher.py stopped")
        code, wall, cpu, rss_kb, nbytes = header
        out = self.proc.stdout.read(int(nbytes))
        return Run(int(code), out, float(wall), float(cpu), int(rss_kb) / 1024)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        self.proc.stdout.close()


def cli_argv(cmd, workers):
    return [sys.executable, "-m", "ecdescent.cli", "--workers", str(workers), *cmd.args]


def setup_sample():
    """Seconds from spawning an interpreter to `import ecdescent.cli` done."""
    t0 = time.monotonic_ns()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=ENV,
                         capture_output=True, timeout=COMMAND_TIMEOUT_S, check=True).stdout
    return (int(out) - t0) / 1e9


def calibration_s():
    """(wall, CPU) seconds one run of a fixed pure-Python kernel takes now.

    On a shared host this machine's speed drifts by 20% and more over
    minutes: at times CPU time drifts with wall time, at times only wall
    time grows because the host takes the CPU away.  The kernel (integer
    arithmetic, a small dict, no program code) is timed after every command;
    the ratio of a run's command wall (CPU) time to the kernel's wall (CPU)
    time stays put while both drift.
    """
    t0, c0 = time.perf_counter(), time.process_time()
    table, acc = {}, 0
    for i in range(1, CAL_ITERATIONS):
        x = (i * 2654435761) % 1000003
        v = 0
        while x % 3 == 0:
            x //= 3
            v += 1
        acc += pow(x, 5, 1000033) + v
        table[x & 1023] = acc
    return time.perf_counter() - t0, time.process_time() - c0


def trimmed_mean(samples):
    """Mean of the samples less the TRIM share at each end."""
    s = sorted(samples)
    k = int(len(s) * TRIM)
    return statistics.fmean(s[k:len(s) - k])


def time_is_up(start, passes, seconds):
    """True once another pass would end more than half a pass past
    `seconds`, so a run lasts about `seconds` on average."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes / 2 >= seconds


def problems_of(cmd, stdout, exit_code, reference, note=""):
    """Misses of one command's exit code and stdout against the recorded reference."""
    ref = reference["commands"].get(cmd.key)
    if ref is None:
        return [f"{cmd.key}: no reference recorded"]
    out = []
    if exit_code != ref["exit"]:
        out.append(f"{cmd.key}{note}: exit {exit_code}, expected {ref['exit']}")
    if sha256(stdout) != ref["sha256"]:
        out.append(f"{cmd.key}{note}: stdout differs from the reference")
    return out


# ---------------------------------------------------------------- end to end


def run_end_to_end(cmds, seconds, reference, launcher):
    """Closed loop over the commands for about `seconds`.

    Each command timing metric sums, over the commands, the command's
    trimmed mean over passes, times CAL_REF_S over the trimmed mean of the
    calibration samples taken after every command in the same run, one per
    started CAL_EVERY_S of the command's wall time: wall times over the
    kernel's wall time, CPU times over its CPU time.  Set-up
    samples are taken before every pass, after one unmeasured warm-up that
    compiles the bytecode; `setup_s` is their trimmed mean, unscaled.
    """
    workers_list = (1, 2) if nproc() >= 2 else (1,)
    walls = {w: [[] for _ in cmds] for w in workers_list}
    cpus = [[] for _ in cmds]
    rss = [0.0 for _ in cmds]
    setup = []
    cal = []
    attempted = failed = 0
    problems = []
    setup_sample()
    calibration_s()
    start = time.perf_counter()
    while True:
        setup += [setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        cal.append(calibration_s())
        w1_out = []
        for workers in workers_list:
            for i, cmd in enumerate(cmds):
                run = launcher.run(cli_argv(cmd, workers))
                cal += [calibration_s() for _ in range(1 + int(run.wall / CAL_EVERY_S))]
                attempted += 1
                walls[workers][i].append(run.wall)
                rss[i] = max(rss[i], run.rss_mb)
                if workers == 1:
                    cpus[i].append(run.cpu)
                    w1_out.append(run)
                    miss = problems_of(cmd, run.stdout, run.exit, reference)
                else:
                    normal = workloads.with_workers_one(run.stdout)
                    note = f" (--workers {workers})"
                    miss = problems_of(cmd, normal, run.exit, reference, note)
                    if normal != w1_out[i].stdout:
                        miss.append(f"{cmd.key}{note}: CSV block or JSON differs from --workers 1")
                miss += workloads.check_output(cmd, run.stdout)
                problems += miss
                failed += bool(miss)
        if time_is_up(start, len(cpus[0]), seconds):
            break

    def total(samples):
        return sum(trimmed_mean(s) for s in samples)

    raw = {
        "setup_s": trimmed_mean(setup),
        "wall_s": total(walls[1]),
        "cpu_s": total(cpus),
    }
    if 2 in walls:
        raw["wall_w2_s"] = total(walls[2])
    cal_wall = trimmed_mean(w for w, _ in cal)
    cal_cpu = trimmed_mean(c for _, c in cal)
    metrics = {k: v * CAL_REF_S / (cal_cpu if k == "cpu_s" else cal_wall)
               for k, v in raw.items()}
    # set-up is mostly exec, mmap and imports, which the kernel does not
    # track: scaled, its spread over seeds grew, so it stays unscaled
    metrics["setup_s"] = raw["setup_s"]
    metrics["peak_rss_mb"] = max(rss)
    return {
        "metrics": metrics,
        "units": dict(END_TO_END),
        "raw": raw,
        "calibration": {"ref_s": CAL_REF_S, "wall_s": cal_wall, "cpu_s": cal_cpu,
                        "samples": len(cal)},
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "passes": len(cpus[0]),
        "wall_w2": "run" if 2 in walls else "skipped: nproc < 2",
        "problems": problems[:40],
        "commands": [{"argv": list(c.args), "size": c.size, "exit": run.exit,
                      "sha256": sha256(run.stdout), "raw_wall_s": trimmed_mean(walls[1][i]),
                      "raw_cpu_s": trimmed_mean(cpus[i]), "peak_rss_mb": rss[i]}
                     for i, (c, run) in enumerate(zip(cmds, w1_out))],
    }


# -------------------------------------------------------------------- traced


class InProcess:
    """The program imported from src/, with caches reset before every command
    so each command starts as a fresh CLI process would."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import ecdescent.cli
        from ecdescent import arith, descent2, descent3

        self.cli, self.arith = ecdescent.cli, arith
        # read lru statistics from the original function objects
        self.padic_cache = descent2._padic_soluble_cached
        self.r3_cache = descent3.r3_imaginary

    def run(self, cmd):
        """(exit code, stdout bytes, seconds, cache statistics) of one command."""
        self.arith.set_factor_cache(False)
        self.arith.set_factor_cache(True)
        self.padic_cache.cache_clear()
        self.r3_cache.cache_clear()
        buf = io.StringIO()
        t0 = time.perf_counter()
        code = self.cli.main(["--workers", "1", *cmd.args], out=buf)
        seconds = time.perf_counter() - t0
        caches = {"padic": self.padic_cache.cache_info(), "r3": self.r3_cache.cache_info(),
                  "factor_memo": len(self.arith._factor_cache)}
        return code, buf.getvalue().encode(), seconds, caches


def layer_metrics(rec, tally, traced_s, untraced_s):
    calls, secs = rec.group_totals()
    self_s = rec.self_seconds()
    c, mx = rec.counts, rec.maxima

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "descent2.padic_nodes": c["descent2.padic_nodes"],
        "descent2.padic_soluble.calls": calls["descent2.padic_soluble"],
        "descent2.padic_soluble.s": secs["descent2.padic_soluble"],
        "descent2.padic_cache_hit_ratio": ratio(tally["padic_hits"], tally["padic_lookups"]),
        "descent2.classes_tested": c["descent2.classes_tested"],
        "descent2.survivor_ratio": ratio(c["descent2.survivors"], c["descent2.classes_tested"]),
        "descent2.max_local_prime": mx["descent2.max_local_prime"],
        "descent2.rank_upper.calls": calls["descent2.rank_upper"],
        "descent2.self_s": self_s["descent2"],
        "descent3.compose.calls": c["descent3.compose.calls"],
        "descent3.reduced_forms": c["descent3.reduced_forms"],
        "descent3.r3_imaginary.calls": calls["descent3.r3_imaginary"],
        "descent3.r3_cache_hit_ratio": ratio(tally["r3_hits"], tally["r3_lookups"]),
        "descent3.max_abs_disc": mx["descent3.max_abs_disc"],
        "descent3.rank_upper_type1.calls": calls["descent3.rank_upper_type1"],
        "descent3.self_s": self_s["descent3"],
        "arith.factor.calls": calls["arith.factor"],
        "arith.factor.s": secs["arith.factor"],
        "arith.factor_cache_hit_ratio":
            1 - ratio(tally["memo_growth"], calls["arith.factor"]) if calls["arith.factor"] else 0.0,
        "arith.factor_cache_size": tally["memo_max"],
        "arith.rho.calls": c["arith.rho.calls"],
        "arith.is_prime.calls": c["arith.is_prime.calls"],
        "arith.self_s": self_s["arith"],
        "curves.conductor_support.calls": calls["curves.conductor_support"],
        "curves.minimize.calls": calls["curves.minimize"],
        "curves.short_model.calls": calls["curves.short_model"],
        "curves.short_model.s": secs["curves.short_model"],
        "curves.trace.calls": calls["curves.trace"],
        "curves.trace.s": secs["curves.trace"],
        "curves.self_s": self_s["curves"],
        "families.e2_curve.s": secs["families.e2_curve"],
        "families.tate.calls": calls["families.tate"],
        "families.tate.s": secs["families.tate"],
        "families.self_s": self_s["families"],
        "polys.rational_roots.calls": calls["polys.rational_roots"],
        "polys.rational_roots.s": secs["polys.rational_roots"],
        "polys.self_s": self_s["polys"],
        "stats.count_family.kept_ratio":
            ratio(c["stats.count_family.kept"], c["stats.count_family.fibers"]),
        "stats.avg_frobenius.s": secs["stats.avg_frobenius"],
        "stats.roots_mod.s": secs["stats.roots_mod"],
        "stats.self_s": self_s["stats"],
        "watkins.report.calls": calls["watkins.report"],
        "watkins.proven_ratio": ratio(tally["proven"], tally["verdicts"]),
        "watkins.self_s": self_s["watkins"],
        "cli.rows": tally["rows"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    return values, self_s


def isolation(name, self_s):
    total = sum(self_s.values())
    out = []
    for modules, test, share in ISOLATION[name]:
        got = sum(self_s[m] for m in modules) / total if total else 0.0
        ok = got > share if test == ">" else got < share
        out.append({"modules": "+".join(modules), "share": got, "claim": f"{test} {share}", "ok": ok})
    return out


def run_traced(name, cmds, seconds, reference, spans_path=None):
    """Untraced then traced in-process passes until `seconds` have passed;
    each per-module metric is the median over passes."""
    prog = InProcess()
    attempted = failed = 0
    problems = []
    iterations = []
    start = time.perf_counter()
    while True:
        untraced = [prog.run(cmd) for cmd in cmds]
        rec = Recorder()
        probes = Probes(rec).install()
        try:
            traced = [prog.run(cmd) for cmd in cmds]
        finally:
            probes.remove()
        problems += [f"probe target missing: {m}" for m in probes.missing]
        tally = dict.fromkeys(("padic_hits", "padic_lookups", "r3_hits", "r3_lookups",
                               "memo_growth", "memo_max", "proven", "verdicts", "rows"), 0)
        for cmd, (code, out, _, _), (t_code, t_out, _, caches) in zip(cmds, untraced, traced):
            miss = problems_of(cmd, out, code, reference, " (in process)")
            t_miss = problems_of(cmd, t_out, t_code, reference, " (traced)")
            if t_out != out:
                t_miss.append(f"{cmd.key}: traced stdout differs from untraced stdout")
            attempted += 2
            failed += bool(miss) + bool(t_miss)
            problems += miss + t_miss
            tally["padic_hits"] += caches["padic"].hits
            tally["padic_lookups"] += caches["padic"].hits + caches["padic"].misses
            tally["r3_hits"] += caches["r3"].hits
            tally["r3_lookups"] += caches["r3"].hits + caches["r3"].misses
            tally["memo_growth"] += caches["factor_memo"]
            tally["memo_max"] = max(tally["memo_max"], caches["factor_memo"])
            tally["rows"] += workloads.data_rows(t_out)
            if cmd.args[0] == "watkins" and not t_miss:
                doc = json.loads(t_out.splitlines()[-1])
                tally["proven"] += doc["proven"]
                tally["verdicts"] += doc["proven"] + doc["inconclusive"]
        traced_s = sum(r[2] for r in traced)
        untraced_s = sum(r[2] for r in untraced)
        iterations.append(layer_metrics(rec, tally, traced_s, untraced_s))
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as fh:
                rec.write(fh)
        del rec
        if time_is_up(start, len(iterations), seconds):
            break
    metrics = {k: statistics.median(it[0][k] for it in iterations) for k, _ in PER_LAYER}
    self_s = {m: statistics.median(it[1][m] for it in iterations) for m in iterations[0][1]}
    return {
        "metrics": metrics,
        "units": dict(PER_LAYER),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "passes": len(iterations),
        "self_s": self_s,
        "isolation": isolation(name, self_s),
        "problems": problems[:40],
        "commands": [{"argv": list(c.args), "size": c.size} for c in cmds],
    }


# -------------------------------------------------------------- environment


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown: git not available"
    return out.stdout.strip() or "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": nproc(), "machine": platform.machine(), "cpu": cpu_model(), "git_sha": git_sha()}


# ------------------------------------------------------------------- output


def print_result(name, res):
    for key, value in res["metrics"].items():
        print(f"{name:15s} {key:34s} {value:>16.6g} {res['units'][key]}")
    print(f"{name:15s} {'failed_ratio':34s} {res['failed_ratio']:>16.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} commands, {res['passes']} passes)")
    if "calibration" in res:
        cal = res["calibration"]
        raw = " ".join(f"{k}={v:.6g}" for k, v in res["raw"].items())
        print(f"{name:15s} unscaled {raw}; calibration kernel wall {cal['wall_s']:.6g} s"
              f" cpu {cal['cpu_s']:.6g} s (reference {cal['ref_s']} s, {cal['samples']} samples)")
    if "wall_w2" in res and res["wall_w2"] != "run":
        print(f"{name:15s} wall_w2_s {res['wall_w2']}")
    for item in res.get("isolation", []):
        print(f"{name:15s} isolation {item['modules']} self-time share {item['share']:.3f}"
              f" (claim {item['claim']}): {'ok' if item['ok'] else 'NOT MET'}")
    for p in res["problems"]:
        print(f"{name:15s} problem: {p}", file=sys.stderr)


def result_line(results):
    """The last stdout line: one workload's metrics, or all prefixed by workload."""
    single = len(results) == 1
    metrics = {}
    for name, res in results.items():
        for key, value in res["metrics"].items():
            metrics[key if single else f"{name}.{key}"] = {"value": value, "unit": res["units"][key]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def compare(path_a, path_b):
    """Per-workload, per-metric ratio b/a; flags stdout hash or failed_ratio changes."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    flags = 0
    print(f"{'workload':15s} {'metric':34s} {'a':>14s} {'b':>14s} {'b/a':>9s}")
    for name in [w for w in a["workloads"] if w in b["workloads"]]:
        ra, rb = a["workloads"][name], b["workloads"][name]
        for key, va in ra["metrics"].items():
            if key in rb["metrics"]:
                vb = rb["metrics"][key]
                ratio = f"{vb / va:9.3f}" if va else "      n/a"
                print(f"{name:15s} {key:34s} {va:14.6g} {vb:14.6g} {ratio} {ra['units'][key]}")
        if ra["failed_ratio"] != rb["failed_ratio"]:
            flags += 1
            print(f"FLAG {name}: failed_ratio {ra['failed_ratio']:.6g} -> {rb['failed_ratio']:.6g}")
        hashes = {" ".join(c["argv"]): c.get("sha256") for c in ra["commands"]}
        for c in rb["commands"]:
            key = " ".join(c["argv"])
            if key in hashes and c.get("sha256") != hashes[key]:
                flags += 1
                print(f"FLAG {name}: stdout hash changed for `{key}`")
    print(f"{flags} flag(s)")
    return 1 if flags else 0


# ------------------------------------------------------------------- record


def inprocess_costs(cmds, passes=5):
    """Each command's in-process seconds at the reference speed: the trimmed
    mean over round-robin passes, each run scaled by the calibration kernel
    timed just before and after it."""
    prog = InProcess()
    samples = {c.key: [] for c in cmds}
    for _ in range(passes):
        for c in cmds:
            before = calibration_s()[0]
            seconds = prog.run(c)[2]
            samples[c.key].append(seconds * CAL_REF_S * 2 / (before + calibration_s()[0]))
    return {k: round(trimmed_mean(v), 4) for k, v in samples.items()}


def record(launcher):
    """Re-record reference.json from the current code: the exit code and
    stdout sha256 of every command any seed can produce.

    The input pools are kept from the existing file, so a seed keeps picking
    the same inputs.  Only without a reference.json are they built, which
    times every candidate descent in process to stratify the pool by cost.
    """
    reference = {"pools": {}, "commands": {}}

    def run_checked(cmd, times=1):
        runs = [launcher.run(cli_argv(cmd, 1)) for _ in range(times)]
        first = runs[0]
        for run in runs:
            miss = workloads.check_output(cmd, run.stdout)
            if run.exit != 0 or run.stdout != first.stdout or miss:
                raise SystemExit(f"record: `{cmd.key}` failed or is not deterministic: {miss}")
        reference["commands"][cmd.key] = {"exit": first.exit, "sha256": sha256(first.stdout)}
        return round(max(r.rss_mb for r in runs), 2)

    if REFERENCE.is_file():
        reference["pools"] = json.loads(REFERENCE.read_text(encoding="utf-8"))["pools"]
    for size in () if reference["pools"] else ("full", "toy"):
        spec = workloads.DESCENT_POOL[size]
        pool = workloads.descent_candidates(spec)
        for d in pool:
            d["rss_mb"] = run_checked(workloads.descent_command(d), times=3)
        costs = inprocess_costs([workloads.descent_command(d) for d in pool])
        for d in pool:
            d["cost_s"] = costs[workloads.descent_command(d).key]
            print(f"record: descent a={d['a']} b={d['b']} {d['cost_s']} s", file=sys.stderr)
        anchor = max(pool, key=lambda d: d["rss_mb"])
        rest = sorted((d for d in pool if d is not anchor), key=lambda d: d["cost_s"])
        # the deep-tree tail would make the top stratum wide; the anchor,
        # which every seed runs, is such a descent
        cap = 2 * statistics.median(d["cost_s"] for d in rest)
        rest = [d for d in rest if d["cost_s"] <= cap]
        per = len(rest) // spec["strata"]
        reference["pools"][size] = {
            "descent_anchor": anchor,
            "descent_strata": [rest[i * per:(i + 1) * per] for i in range(spec["strata"])],
            "polys": workloads.poly_pool(workloads.POLY_POOL),
        }
    for toy in (False, True):
        for cmd in workloads.every_command(reference, toy):
            if cmd.key not in reference["commands"]:
                run_checked(cmd)
                print(f"record: {cmd.key}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"record: wrote {len(reference['commands'])} references to {REFERENCE}", file=sys.stderr)


# --------------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="toy input sizes (smoke test)")
    parser.add_argument("--out", help="write the full result document (JSON) here")
    parser.add_argument("--spans", help="write the last traced pass's spans (JSON lines) here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --out files")
    parser.add_argument("--record", action="store_true", help="re-record reference.json")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "ecdescent" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'ecdescent'}; run from a full checkout", file=sys.stderr)
        return 2
    out_path = args.out and Path(args.out).resolve()
    spans_path = args.spans and Path(args.spans).resolve()
    os.chdir(ROOT)
    if args.record:
        with Launcher() as launcher:
            record(launcher)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing; run --record on the seed commit", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"env seed={args.seed} seconds={args.seconds} trace={args.trace} toy={args.toy}")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    with contextlib.nullcontext() if args.trace else Launcher() as launcher:
        for name in names:
            cmds = workloads.commands(name, args.seed, reference, args.toy)
            if args.trace:
                res = run_traced(name, cmds, args.seconds, reference, spans_path)
            else:
                res = run_end_to_end(cmds, args.seconds, reference, launcher)
            results[name] = res
            print_result(name, res)
    if out_path:
        doc = {"env": env, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "toy": args.toy, "workloads": results}
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
