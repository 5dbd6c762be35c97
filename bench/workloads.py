"""The four benchmark workloads, as lists of CLI commands.

A workload turns a seed into the commands it runs.  The seed only picks
inputs; it is never passed to the CLI, whose own `--seed` is echoed into
stdout.  Inputs a seed can pick come from pools fixed in
`reference.json`, so every command any seed produces has a recorded
reference (exit code and sha256 of stdout, taken from the seed commit).

Each command is a `Command(args, size)`: `args` is the argv after the
global `--workers N` flag, `size` the input size recorded with results.
"""

import json
import random
from math import isqrt
from dataclasses import dataclass, field

NAMES = ("scan-e2", "descent-bigp", "type1-descent3", "experiments")

SAMPLE_DATASET = "src/ecdescent/data/sample_dataset.csv"

# Input sizes: FULL is what the benchmark measures, TOY what the smoke test
# runs.  FULL sizes keep one --workers 1 plus one --workers 2 pass of each
# workload near 3-6 s on a 2-core machine, so a 20 s run makes several.
# normal-order stays small enough that its factor memo never sets the
# workload's peak RSS, which would then depend on the seed's polynomial.
FULL = {
    "e2_height": 8,
    "type1_height": 16,
    "twist_range": 5000,
    "count_family_heights": "20,40,80",
    "avg_frobenius_pmax": 200,
    "density_height": 15,
    "normal_order_heights": "50,100",
    "roots_mod_pmax": 10000,
}
TOY = {
    "e2_height": 3,
    "type1_height": 4,
    "twist_range": 200,
    "count_family_heights": "10,20,40",
    "avg_frobenius_pmax": 50,
    "density_height": 5,
    "normal_order_heights": "10,20",
    "roots_mod_pmax": 600,
}

# Pools the seed draws from.  Descents: b = s*p carries one prime p, and the
# largest prime of a^2 - 4b stays below p, so p is the largest local prime
# and sets the cost.  Every seed runs the anchor, the pool's descent with the
# largest recorded max RSS, so peak_rss_mb measures the same command for any
# seed.  The rest of the pool is split into strata of similar recorded cost
# and a seed takes one descent from each: any seed then runs about the same
# work, with p spread over the whole range.
DESCENT_POOL = {
    "full": {"count": 71, "strata": 7, "p_range": (50_000, 200_000), "master_seed": 20240725},
    "toy": {"count": 7, "strata": 3, "p_range": (800, 1_200), "master_seed": 20240725},
}
DESCENT_SHAPES = (1, -1, 2, -2, 3, -3, 6, -6)
DESCENT_A_RANGE = (-20, 20)
POLY_POOL = {"count": 12, "coeff_range": (-12, 12), "master_seed": 20240725}


@dataclass(frozen=True)
class Command:
    args: tuple
    size: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self):
        return " ".join(self.args)


def commands(name, seed, reference, toy=False):
    """The commands workload `name` runs for `seed`."""
    sizes = TOY if toy else FULL
    pools = reference["pools"]["toy" if toy else "full"]
    rng = random.Random(seed)
    if name == "scan-e2":
        h = sizes["e2_height"]
        return [Command(("watkins", "--family", "e2", "--height", str(h)),
                        {"height": h, "pairs": len(e2_pairs(h)),
                         "max_local_prime": max(largest_local_prime(a, b) for a, b in e2_pairs(h))})]
    if name == "type1-descent3":
        h = sizes["type1_height"]
        return [Command(("enumerate", "--family", "type1", "--height", str(h), "--rank-bounds"),
                        {"height": h, "curves": 2 * h**3})]
    if name == "descent-bigp":
        picks = [pools["descent_anchor"]] + [rng.choice(s) for s in pools["descent_strata"]]
        return [descent_command(d) for d in picks]
    if name == "experiments":
        poly = rng.choice(pools["polys"])
        return experiment_commands(sizes, poly)
    raise ValueError(f"unknown workload {name!r}")


def descent_command(d):
    return Command(("descent", "--a", str(d["a"]), "--b", str(d["b"])),
                   {"p": d["p"], "max_local_prime": d["max_local_prime"]})


def experiment_commands(sizes, poly):
    s = sizes
    return [
        Command(("enumerate", "--family", "twist-e0", "--range", str(s["twist_range"])),
                {"range": s["twist_range"]}),
        Command(("stats", "count-family", "--ell", "5", "--heights", s["count_family_heights"]),
                {"heights": s["count_family_heights"]}),
        Command(("stats", "avg-frobenius", "--family", "e5", "--pmax", str(s["avg_frobenius_pmax"])),
                {"pmax": s["avg_frobenius_pmax"]}),
        Command(("stats", "density-cor-main", "--height", str(s["density_height"])),
                {"height": s["density_height"]}),
        Command(("stats", "normal-order", "--poly", poly, "--heights", s["normal_order_heights"]),
                {"poly": poly, "heights": s["normal_order_heights"]}),
        Command(("stats", "roots-mod", "--poly", "-1,-11,1", "--pmax", str(s["roots_mod_pmax"]),
                 "--square"), {"pmax": s["roots_mod_pmax"]}),
        Command(("verify", "--dataset", SAMPLE_DATASET), {"records": 4}),
    ]


def every_command(reference, toy):
    """Every command any seed can produce; the set `--record` covers."""
    sizes = TOY if toy else FULL
    pools = reference["pools"]["toy" if toy else "full"]
    out = commands("scan-e2", 0, reference, toy) + commands("type1-descent3", 0, reference, toy)
    out.append(descent_command(pools["descent_anchor"]))
    out += [descent_command(d) for stratum in pools["descent_strata"] for d in stratum]
    for poly in pools["polys"]:
        out += experiment_commands(sizes, poly)
    return list(dict.fromkeys(out))


# ------------------------------------------------------------ output checks


def check_output(cmd, stdout):
    """Invariants of one command's stdout that do not come from the hashes.

    Returns a list of problems; empty means the output holds together.
    """
    text = stdout.decode("utf-8", "replace")
    lines = text.splitlines()
    if cmd.args[0] == "watkins":
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            return ["watkins: last line is not JSON"]
        rows = len(lines) - 2  # header and JSON summary
        if doc.get("proven", 0) + doc.get("inconclusive", 0) != rows:
            return [f"watkins: proven + inconclusive != {rows} rows"]
    elif cmd.args[0] == "descent":
        try:
            doc = json.loads(lines[-1])
        except (IndexError, ValueError):
            return ["descent: output is not JSON"]
        problems = []
        if 1 not in doc["phi_classes"] or 1 not in doc["phihat_classes"]:
            problems.append("descent: class 1 missing from a Selmer set")
        if doc["rank_upper"] != max(doc["dim_phi"] + doc["dim_phihat"] - 2, 0):
            problems.append("descent: rank_upper != max(dim_phi + dim_phihat - 2, 0)")
        return problems
    return []


def with_workers_one(stdout):
    """stdout with the JSON config echo's `workers` value set back to 1.

    Every other byte must match the --workers 1 run, so the result hashes
    to the --workers 1 reference exactly when the CSV block is identical and
    the config echo differs only in `workers`.
    """
    head, sep, last = stdout.rstrip(b"\n").rpartition(b"\n")
    try:
        doc = json.loads(last)
    except ValueError:
        return stdout
    if not isinstance(doc, dict) or "config" not in doc:
        return stdout
    doc["config"]["workers"] = 1
    return head + sep + json.dumps(doc, sort_keys=True).encode() + b"\n"


def data_rows(stdout):
    """CSV data rows in a command's stdout (header and JSON summary excluded)."""
    lines = [ln for ln in stdout.decode("utf-8", "replace").splitlines() if ln]
    csv_lines = [ln for ln in lines if not ln.startswith("{")]
    return max(len(csv_lines) - 1, 0)


# ------------------------------------------- pools and sizes (own arithmetic)


def e2_pairs(X):
    return [(a, b) for a in range(-X, X + 1) for b in range(-X * X, X * X + 1)
            if b * (a * a - 4 * b) != 0]


def prime_factors(n):
    """Distinct primes of |n| by trial division (inputs here stay below 10^8)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def largest_local_prime(a, b):
    """Largest prime of 2 b (a^2 - 4b): the places a 2-descent must test."""
    return max(prime_factors(2 * b * (a * a - 4 * b)))


def next_prime(n):
    m = n + 1
    while prime_factors(m) != [m]:
        m += 1
    return m


def descent_candidates(spec):
    rng = random.Random(spec["master_seed"])
    lo, hi = spec["p_range"]
    out, seen = [], set()
    while len(out) < spec["count"]:
        p = next_prime(rng.randrange(lo, hi))
        s = rng.choice(DESCENT_SHAPES)
        a = rng.randint(*DESCENT_A_RANGE)
        b = s * p
        n = a * a - 4 * b
        if n == 0 or (a, b) in seen or max(prime_factors(n)) > p:
            continue
        seen.add((a, b))
        out.append({"a": a, "b": b, "p": p, "max_local_prime": largest_local_prime(a, b)})
    return out


def poly_pool(spec):
    """Monic irreducible quadratics x^2 + bx + c, as ascending coefficient strings."""
    rng = random.Random(spec["master_seed"])
    lo, hi = spec["coeff_range"]
    out = []
    while len(out) < spec["count"]:
        b, c = rng.randint(lo, hi), rng.randint(lo, hi)
        disc = b * b - 4 * c
        poly = f"{c},{b},1"
        if c != 0 and not (disc >= 0 and isqrt(disc) ** 2 == disc) and poly not in out:
            out.append(poly)
    return out
