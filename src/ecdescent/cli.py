"""Command-line front end.

Subcommands: enumerate, descent, descent3, watkins, stats (one subcommand
per experiment) and verify.  Each `cmd_*(args, cfg)` returns (CSV header or
None, CSV rows, JSON summary or None), and `main` alone writes them to
stdout, the summary last with the config echoed; diagnostics go to stderr.
Exit codes: 0 success, 1 mathematical inconsistency (`all_ok` false),
singular input or a stdout closed by its reader, 2 usage or parse errors.

Every `enumerate` and `watkins` scan writes its rows in tag order as they
are made (`_scan`), so output is byte-identical for any worker count.  A
scan that fails partway keeps its header and the rows written so far on
stdout, writes no JSON line, and exits 1 with `error:` on stderr.
"""

import argparse
import json
import os
import sys
from functools import partial
from operator import itemgetter

from . import curves, descent2, descent3, families, polys, stats, watkins
from .arith import prime_divisors, primes_up_to
from .config import Config
from .errors import DomainError, SingularCurve

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _row(*fields):
    """One CSV line from its fields."""
    return ",".join(map(str, fields))


def _scan(fn, tag, items, workers):
    """Yield the row fn(tag(item), item) of each item, in string order.

    A row is its tag, a comma and its other fields, and tags are unique, so
    the key `f"{tag(item)},"` orders the rows as strings; it is the one place
    where a scan's order is decided.  Items are held, rows are not.  At N > 1
    workers, capped at the CPUs this process may run on, this process and
    N - 1 forked workers make the rows (`pool.rows`, imported only then)."""
    items = sorted(items, key=lambda item: f"{tag(item)},")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    if workers <= 1 or len(items) < 2 * workers or not hasattr(os, "fork"):
        for item in items:
            yield fn(tag(item), item)
        return
    from . import pool

    yield from pool.rows(fn, tag, items, workers)


# ---------------------------------------------------------------- enumerate


def _curve_row(tag, model, policy, primes, *extra):
    """One enumerate row: tag, the model's own A and B, omega(N) from the
    primes of its discriminant, then `extra`."""
    omega_n, _ = curves.conductor_support(model, policy, primes)
    return _row(tag, model.A, model.B, omega_n, *extra)


def _model_row(tag, item, policy):
    model = item[1]
    return _curve_row(tag, model, policy, prime_divisors(curves.invariants(model).delta))


def _e2_row(tag, param, policy, rank_bounds):
    primes = families.e2_primes(param)
    extra = [descent2.rank_upper(param, primes).rank_upper] if rank_bounds else []
    return _curve_row(tag, families.e2_curve(param, primes), policy, primes, *extra)


def _twist_row(tag, D, policy):
    # the model y^2 = x^3 - D^3 is `type1(-D^3)`, whose primes are those of D
    return _curve_row(tag, families.twist_model(D), policy, families.type1_primes(D))


def _type1_row(tag, a, policy, rank_bounds):
    primes = families.type1_primes(a)
    extra = [descent3.rank_upper_type1(a, primes)[0]] if rank_bounds else []
    return _curve_row(tag, families.type1(a), policy, primes, *extra)


def cmd_enumerate(args, cfg):
    family, policy, rank_bounds = args.family, cfg.policy, args.rank_bounds
    X = _window(args, family)
    if rank_bounds and family not in ("e2", "type1"):
        raise DomainError("--rank-bounds is supported for families e2 and type1")
    if family == "e2":
        fn = partial(_e2_row, policy=policy, rank_bounds=rank_bounds)
        tag, items = lambda param: f"{param.a};{param.b}", families.e2_window(X)
    elif family == "type1":
        fn = partial(_type1_row, policy=policy, rank_bounds=rank_bounds)
        tag, items = str, families.type1_window(X)
    elif family == "twist-e0":
        fn, tag, items = partial(_twist_row, policy=policy), str, families.twist_window(X)
    else:  # items (tag, model)
        fn, tag = partial(_model_row, policy=policy), itemgetter(0)
        if family == "e3":
            items = ((f"{a};{b}", model) for a, b, model in families.e3_window(X))
        else:  # e5, e7; argparse restricts the choices
            items = families.tate_curves(int(family[1]), X).values()
    return ("params,A,B,omega_N" + (",rank_upper" if rank_bounds else ""),
            _scan(fn, tag, items, cfg.workers), None)


# ------------------------------------------------------------------ descent


def cmd_descent(args, cfg):
    param = families.E2Param(args.a, args.b)
    est = descent2.rank_upper(param, families.e2_primes(param))
    return None, (), {
        "a": args.a,
        "b": args.b,
        "phi_classes": est.phi_classes,
        "phihat_classes": est.phihat_classes,
        "dim_phi": est.dim_phi,
        "dim_phihat": est.dim_phihat,
        "rank_upper": est.rank_upper,
        # fixed: rank_upper raises rather than clamp a negative bound
        "clamped": False,
    }


def cmd_descent3(args, cfg):
    if args.a == 0:
        raise SingularCurve("a must be nonzero")
    bound, comp = descent3.rank_upper_type1(args.a, families.type1_primes(args.a))
    return None, (), {
        "a": args.a,
        "bound": bound,
        "components": {
            "class_field_a": comp.class_a.field_kernel,
            "r3_a": comp.class_a.r3,
            "method_a": comp.class_a.method,
            "unit_a": comp.class_a.unit,
            "class_field_m27a": comp.class_m27a.field_kernel,
            "r3_m27a": comp.class_m27a.r3,
            "method_m27a": comp.class_m27a.method,
            "unit_m27a": comp.class_m27a.unit,
            "s_a": comp.s_a,
            "s_m27a": comp.s_a,  # S_{-27a} = S_a
        },
    }


# ------------------------------------------------------------------ watkins


def _watkins_e2_row(tag, param, M, policy):
    rep = watkins.report(param, policy=policy)
    surrogate = "" if rep.surrogate_nu2_lower is None else rep.surrogate_nu2_lower
    verdict = rep.verdict(M)
    return _row(tag, rep.curve.A, rep.curve.B, rep.omega_N, rep.rank_upper, surrogate, verdict,
                rep.method_notes), verdict


def _watkins_twist_row(tag, D, nu2_manin):
    E, cls = families.twist_e0(D, nu2_manin)
    verdict = watkins.TWIST_VERDICT[cls]
    return _row(tag, E.A, E.B, cls, verdict), verdict


def _nonnegative(flag, value):
    if value < 0:
        raise DomainError(f"{flag} must be >= 0, got {value}")
    return value


def _window(args, family):
    """The window of an `enumerate` or `watkins` scan, by one rule: twist-e0
    reads --range, falling back to --height; the others read --height only."""
    if family != "twist-e0" and args.range is not None:
        raise DomainError(f"--range does not apply to family {family}; its window is --height")
    flag = "--height" if args.range is None else "--range"
    X = getattr(args, flag[2:])
    if X is None:
        raise DomainError("--range (or --height) is required for twist-e0" if family == "twist-e0"
                          else f"--height is required for family {family}")
    return _nonnegative(flag, X)


def _counted(rows, doc):
    """The lines of (line, verdict) rows, counting each verdict into doc."""
    for line, verdict in rows:
        doc["inconclusive" if verdict == watkins.INCONCLUSIVE else "proven"] += 1
        yield line


def cmd_watkins(args, cfg):
    M = _nonnegative("--M", args.M)
    X = _window(args, args.family)
    if args.family == "e2":
        rows = _scan(partial(_watkins_e2_row, M=M, policy=cfg.policy),
                     lambda param: f"{param.a},{param.b}", families.e2_window(X), cfg.workers)
        header = "a,b,A,B,omega_N,rank_upper,surrogate_nu2_lower,verdict,note"
    else:  # twist-e0; argparse restricts the choices
        if M != 0:
            raise DomainError("--M does not apply to family twist-e0; its verdicts are for M = 0")
        rows = _scan(partial(_watkins_twist_row, nu2_manin=cfg.nu2_manin), str,
                     families.twist_window(X), cfg.workers)
        header = "D,A,B,class,verdict"
    doc = {"command": "watkins", "family": args.family, "M": M, "proven": 0, "inconclusive": 0}
    return header, _counted(rows, doc), doc


# -------------------------------------------------------------------- stats


def _parse_ints(text, what):
    """The comma-separated integers of one option value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"bad {what} {text!r}; expected comma-separated integers")


def _parse_poly(text):
    coeffs = _parse_ints(text, "polynomial")
    if not polys.normalize(coeffs):
        raise DomainError("zero polynomial")
    return coeffs


def _parse_heights(text):
    hs = _parse_ints(text, "heights")
    if any(h < 1 for h in hs):
        raise DomainError("heights must be positive")
    return hs


def cmd_volume(args, cfg):
    vc = stats.volume_constant(args.precision)
    return None, (), {"command": "stats.volume", "alpha_plus": str(vc.alpha_plus),
                      "alpha_minus": str(vc.alpha_minus), "value": str(vc.value),
                      "precision": args.precision}


def cmd_count(args, cfg):
    """count-r2 and count-r3, whose ell their parsers set, and count-family (--ell)."""
    pts = stats.family_series(args.ell, _parse_heights(args.heights))
    doc = {"command": f"stats.{args.experiment}", "counts": pts}
    if args.experiment == "count-family":
        doc["ell"] = args.ell
    if len(pts) >= 3 and all(c > 0 for _, c in pts):
        doc["slope"] = stats.slope(pts)
    return "X,count", [_row(*pt) for pt in pts], doc


def cmd_normal_order(args, cfg):
    f = _parse_poly(args.poly)
    S = _parse_ints(args.exclude, "exclude") if args.exclude else []
    samples = [{"X": ns.X, "mean": str(ns.mean), "variance": str(ns.variance), "n": ns.sample_count}
               for ns in stats.normal_order_experiment(f, _parse_heights(args.heights), S)]
    return ("X,mean,variance,n", [_row(*sample.values()) for sample in samples],
            {"command": "stats.normal-order", "poly": f, "exclude": S, "samples": samples})


def cmd_roots_mod(args, cfg):
    _nonnegative("--pmax", args.pmax)
    f = _parse_poly(args.poly)
    deg = polys.degree(f)
    rows = []
    worst = 0
    violations = 0
    # the 2 deg(f) bound needs f and f' coprime mod p, i.e. p away from
    # Res(f, f'); the content gcd alone is not enough
    bad = polys.resultant(f, polys.derivative(f))
    if args.square and bad == 0:
        raise DomainError("--square needs f squarefree over Q and nonconstant: Res(f, f') = 0")
    for p in primes_up_to(args.pmax):
        if args.square and bad % p == 0:
            continue
        c = stats.roots_mod(f, p, args.square)
        rows.append(_row(p, c))
        worst = max(worst, c)
        if args.square and c > 2 * deg:
            violations += 1
    return "p,count", rows, {"command": "stats.roots-mod", "poly": f, "square": args.square,
                             "max_count": worst, "bound": 2 * deg, "violations": violations}


def cmd_avg_frobenius(args, cfg):
    _nonnegative("--pmax", args.pmax)
    rows = []
    worst = 0
    for p in primes_up_to(args.pmax):
        if p <= 3:
            continue
        v = stats.avg_frobenius(args.family, p)
        rows.append(_row(p, v))
        worst = max(worst, abs(v))
    bound = stats.family_trace_bound(args.family)
    return "p,avg_trace", rows, {"command": "stats.avg-frobenius", "family": args.family,
                                 "bound": bound, "max_abs": str(worst),
                                 "within_bound": worst <= bound}


def cmd_density(args, cfg):
    certified, total = stats.certificate_density(args.height)
    return "X,certified,total", [_row(args.height, certified, total)], {
        "command": "stats.density-cor-main", "X": args.height, "certified": certified,
        "total": total, "fraction": certified / total if total else None}


# ------------------------------------------------------------------- verify


def cmd_verify(args, cfg):
    _nonnegative("--M", args.M)
    records = watkins.load_dataset(args.dataset)
    results = [watkins.verify_record(rec, args.M, cfg.policy) for rec in records]
    return None, (), {
        "command": "verify",
        "dataset": args.dataset,
        "M": args.M,
        "records": results,
        "all_ok": all(res["ok"] for res in results),
    }


# -------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecdescent",
        description="Exact-arithmetic elliptic-curve descent and counting experiments.",
    )
    parser.add_argument("--policy", choices=curves.POLICIES)
    parser.add_argument("--nu2-manin", type=int, dest="nu2_manin")
    parser.add_argument("--workers", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list curves of a family up to a height")
    p.add_argument("--family", required=True,
                   choices=["e2", "e3", "e5", "e7", "type1", "twist-e0"])
    p.add_argument("--height", type=int)
    p.add_argument("--range", type=int)
    p.add_argument("--rank-bounds", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("descent", help="2-isogeny descent for y^2 = x^3 + ax^2 + bx")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.set_defaults(fn=cmd_descent)

    p = sub.add_parser("descent3", help="3-isogeny rank bound for y^2 = x^3 + a")
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(fn=cmd_descent3)

    p = sub.add_parser("watkins", help="scan a family for M-Watkins verdicts")
    p.add_argument("--family", required=True, choices=["e2", "twist-e0"])
    p.add_argument("--height", type=int)
    p.add_argument("--range", type=int)
    p.add_argument("--M", type=int, default=0)
    p.set_defaults(fn=cmd_watkins)

    p = sub.add_parser("stats", help="counting and statistics experiments")
    # one parser per experiment, without abbreviations: `--height` is not `--heights`
    add = partial(p.add_subparsers(dest="experiment", required=True).add_parser, allow_abbrev=False)
    for name, ell in (("count-r2", 2), ("count-r3", 3)):
        q = add(name, help=f"lattice points of the {ell}-torsion region at each height")
        q.add_argument("--heights", required=True)
        q.set_defaults(fn=cmd_count, ell=ell)
    q = add("count-family", help="curves of the 5- or 7-torsion family at each height")
    q.add_argument("--heights", required=True)
    q.add_argument("--ell", type=int, choices=[5, 7], default=5)
    q.set_defaults(fn=cmd_count)
    q = add("volume", help="the volume constant of the 2-torsion region")
    q.add_argument("--precision", type=int, default=30)
    q.set_defaults(fn=cmd_volume)
    q = add("normal-order", help="mean and variance of omega(s(f(r))) at each height")
    q.add_argument("--poly", required=True)
    q.add_argument("--heights", required=True)
    q.add_argument("--exclude", default="")
    q.set_defaults(fn=cmd_normal_order)
    q = add("roots-mod", help="roots of f mod p, or mod p^2 with --square")
    q.add_argument("--poly", required=True)
    q.add_argument("--pmax", type=int, default=100)
    q.add_argument("--square", action="store_true")
    q.set_defaults(fn=cmd_roots_mod)
    q = add("avg-frobenius", help="Frobenius traces averaged over a family's fibers")
    q.add_argument("--family", choices=["e5", "e7", "e3poly"], default="e5")
    q.add_argument("--pmax", type=int, default=100)
    q.set_defaults(fn=cmd_avg_frobenius)
    q = add("density-cor-main", help="share of curves with a local insolubility certificate")
    q.add_argument("--height", type=int, required=True)
    q.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="consistency checks against a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--M", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


GLUED_OPTIONS = ("--poly", "--exclude", "--heights")  # values may start with "-"


def _glue_option_values(argv):
    """Rewrite `--poly -1,-11,1` to `--poly=-1,-11,1` so argparse does not
    mistake a leading-minus value for an option string."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in GLUED_OPTIONS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None, out=None):
    """Run one command and write its output; the one writer of stdout and the
    one place where exceptions become exit codes: DomainError (bad options or
    dataset files) 2, the others 1.  The config holds the global flags that
    were given; `Config` supplies the others."""
    # 64 kB writes, not 4-8 kB: each write to a pipe wakes its reader, which preempts the scan
    if own := out is None:
        out = open(sys.stdout.fileno(), "w", buffering=1 << 16, closefd=False)
    parser = build_parser()
    args = parser.parse_args(_glue_option_values(argv if argv is not None else sys.argv[1:]))
    try:
        cfg = Config(**{field: value for field in Config._fields
                        if (value := getattr(args, field)) is not None})
        header, rows, doc = args.fn(args, cfg)
        if header is not None:
            out.write(header + "\n")
        for row in rows:
            out.write(row + "\n")
        if doc is not None:
            out.write(json.dumps({**doc, "config": cfg.as_dict()}, sort_keys=True) + "\n")
        out.flush()
        return EXIT_OK if doc is None or doc.get("all_ok", True) else EXIT_INCONSISTENT
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point it at devnull so the
        # flushes that follow cannot raise again; a caller's `out` is its own.
        if own:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, out.fileno())
            os.close(null)
        return EXIT_INCONSISTENT
    except (DomainError, SingularCurve, ArithmeticError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
