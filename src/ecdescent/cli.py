"""Command-line front end.

Subcommands: enumerate, descent, descent3, watkins, stats, verify.  Output
is CSV and/or a single JSON summary document on stdout (the JSON line is
last); diagnostics go to stderr.  Exit codes: 0 success, 1 mathematical
inconsistency, singular input or a stdout closed by its reader, 2 usage or
parse errors.

Every `enumerate` and `watkins` scan writes its rows in tag order as they
are made (`_scan`), so output is byte-identical for any worker count.  A
scan that fails partway keeps its header and the rows written so far on
stdout, writes no JSON line, and exits 1 with `error:` on stderr.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from operator import itemgetter

from . import curves, descent2, descent3, families, polys, stats, watkins
from .arith import primes_up_to
from .config import load_config
from .errors import DomainError, SingularCurve

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def _row(*fields):
    """One CSV line from its fields."""
    return ",".join(map(str, fields))


def _emit_csv(header, rows, out):
    out.write(header + "\n")
    for row in rows:
        out.write(row + "\n")


def _emit_json(doc, out):
    out.write(json.dumps(doc, sort_keys=True) + "\n")


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


def _curve_row(tag, model, policy, *extra):
    """One enumerate row: tag, the model's A and B, omega(N), then `extra`."""
    omega_n, _ = curves.conductor_support(model, policy)
    return _row(tag, model.A, model.B, omega_n, *extra)


def _model_row(tag, item, policy):
    return _curve_row(tag, item[1], policy)


def _e2_row(tag, param, policy, rank_bounds):
    extra = [descent2.rank_upper(param).rank_upper] if rank_bounds else []
    return _curve_row(tag, families.e2_curve(param), policy, *extra)


def _twist_row(tag, D, policy):
    return _curve_row(tag, families.twist_model(D), policy)


def _type1_row(tag, a, policy, rank_bounds):
    extra = [descent3.rank_upper_type1(a)[0]] if rank_bounds else []
    return _curve_row(tag, families.type1(a)[0], policy, *extra)


def cmd_enumerate(args, cfg, out):
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
    _emit_csv("params,A,B,omega_N" + (",rank_upper" if rank_bounds else ""),
              _scan(fn, tag, items, cfg.workers), out)
    return EXIT_OK


# ------------------------------------------------------------------ descent


def cmd_descent(args, cfg, out):
    param = families.E2Param(args.a, args.b)
    est = descent2.rank_upper(param)
    _emit_json(
        {
            "a": args.a,
            "b": args.b,
            "phi_classes": list(est.phi_classes),
            "phihat_classes": list(est.phihat_classes),
            "dim_phi": est.dim_phi,
            "dim_phihat": est.dim_phihat,
            "rank_upper": est.rank_upper,
            # fixed: rank_upper raises rather than clamp a negative bound
            "clamped": False,
            "config": cfg.as_dict(),
        },
        out,
    )
    return EXIT_OK


def cmd_descent3(args, cfg, out):
    if args.a == 0:
        raise SingularCurve("a must be nonzero")
    bound, comp = descent3.rank_upper_type1(args.a)
    _emit_json(
        {
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
            "config": cfg.as_dict(),
        },
        out,
    )
    return EXIT_OK


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


def cmd_watkins(args, cfg, out):
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
    out.write(header + "\n")
    total = proven = 0
    for line, verdict in rows:
        out.write(line + "\n")
        total += 1
        proven += verdict.startswith("Proven")
    _emit_json(
        {
            "command": "watkins",
            "family": args.family,
            "M": M,
            "proven": proven,
            "inconclusive": total - proven,
            "config": cfg.as_dict(),
        },
        out,
    )
    return EXIT_OK


# -------------------------------------------------------------------- stats


def _parse_ints(text, what):
    """The comma-separated integers of one option value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise DomainError(f"bad {what} {text!r}; expected comma-separated integers")


def _parse_poly(text):
    if text is None:
        raise DomainError("--poly is required")
    coeffs = _parse_ints(text, "polynomial")
    if not polys.normalize(coeffs):
        raise DomainError("zero polynomial")
    return coeffs


def _parse_heights(text):
    hs = _parse_ints(text, "heights")
    if any(h < 1 for h in hs):
        raise DomainError("heights must be positive")
    return hs


def cmd_stats(args, cfg, out):
    exp = args.experiment
    doc = {"command": f"stats.{exp}", "config": cfg.as_dict()}
    if exp == "volume":
        vc = stats.volume_constant(args.precision)
        doc.update(
            alpha_plus=str(vc.alpha_plus),
            alpha_minus=str(vc.alpha_minus),
            value=str(vc.value),
            precision=args.precision,
        )
        _emit_json(doc, out)
    elif exp in ("count-r2", "count-r3", "count-family"):
        heights = _parse_heights(args.heights)
        if exp == "count-family":
            doc["ell"] = args.ell
        ell = {"count-r2": 2, "count-r3": 3}.get(exp, args.ell)
        pts = stats.family_series(ell, heights)
        _emit_csv("X,count", [_row(*pt) for pt in pts], out)
        doc["counts"] = pts
        if len(pts) >= 3 and all(c > 0 for _, c in pts):
            doc["slope"] = stats.slope(pts)
        _emit_json(doc, out)
    elif exp == "normal-order":
        f = _parse_poly(args.poly)
        S = _parse_ints(args.exclude, "exclude") if args.exclude else []
        heights = _parse_heights(args.heights)
        rows = []
        samples = []
        for X in heights:
            ns = stats.normal_order_experiment(f, X, S)
            rows.append(_row(ns.X, ns.mean, ns.variance, ns.sample_count))
            samples.append(
                {"X": ns.X, "mean": str(ns.mean), "variance": str(ns.variance),
                 "n": ns.sample_count}
            )
        _emit_csv("X,mean,variance,n", rows, out)
        doc.update(poly=f, exclude=S, samples=samples)
        _emit_json(doc, out)
    elif exp == "roots-mod":
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
        _emit_csv("p,count", rows, out)
        doc.update(poly=f, square=args.square, max_count=worst,
                   bound=2 * deg, violations=violations)
        _emit_json(doc, out)
    elif exp == "avg-frobenius":
        _nonnegative("--pmax", args.pmax)
        rows = []
        worst = Fraction(0)
        for p in primes_up_to(args.pmax):
            if p <= 3:
                continue
            v = stats.avg_frobenius(args.family, p)
            rows.append(_row(p, v))
            worst = max(worst, abs(v))
        bound = stats.family_trace_bound(args.family)
        _emit_csv("p,avg_trace", rows, out)
        doc.update(family=args.family, bound=bound, max_abs=str(worst),
                   within_bound=worst <= bound)
        _emit_json(doc, out)
    elif exp == "density-cor-main":
        if args.height is None:
            raise DomainError("--height is required for density-cor-main")
        certified, total = stats.certificate_density(args.height)
        _emit_csv("X,certified,total", [_row(args.height, certified, total)], out)
        doc.update(X=args.height, certified=certified, total=total,
                   fraction=certified / total if total else None)
        _emit_json(doc, out)
    else:  # pragma: no cover
        raise DomainError(f"unknown experiment {exp}")
    return EXIT_OK


# ------------------------------------------------------------------- verify


def cmd_verify(args, cfg, out):
    _nonnegative("--M", args.M)
    records = watkins.load_dataset(args.dataset)
    results = []
    all_ok = True
    for rec in records:
        res = watkins.verify_record(rec, args.M, cfg.policy)
        results.append(res)
        all_ok = all_ok and res["ok"]
    _emit_json(
        {
            "command": "verify",
            "dataset": args.dataset,
            "M": args.M,
            "records": results,
            "all_ok": all_ok,
            "config": cfg.as_dict(),
        },
        out,
    )
    return EXIT_OK if all_ok else EXIT_INCONSISTENT


# -------------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecdescent",
        description="Exact-arithmetic elliptic-curve descent and counting experiments.",
    )
    parser.add_argument("--config", help="key=value config file")
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
    p.add_argument("experiment", choices=[
        "count-r2", "count-r3", "count-family", "volume", "normal-order",
        "roots-mod", "avg-frobenius", "density-cor-main",
    ])
    p.add_argument("--heights", default="")
    p.add_argument("--height", type=int)
    p.add_argument("--precision", type=int, default=30)
    p.add_argument("--ell", type=int, choices=[5, 7], default=5)
    p.add_argument("--poly")
    p.add_argument("--exclude", default="")
    p.add_argument("--pmax", type=int, default=100)
    p.add_argument("--square", action="store_true")
    p.add_argument("--family", choices=["e5", "e7", "e3poly"], default="e5")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="consistency checks against a dataset CSV")
    p.add_argument("--dataset", required=True)
    p.add_argument("--M", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def _glue_option_values(argv, flags=("--poly", "--exclude", "--heights")):
    """Rewrite `--poly -1,-11,1` to `--poly=-1,-11,1` so argparse does not
    mistake a leading-minus value for an option string."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in flags:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None, out=None):
    """Run one command; the one place where exceptions become exit codes:
    DomainError (bad options, config or dataset files) 2, the others 1."""
    # 64 kB writes, not 4-8 kB: each write to a pipe wakes its reader, which preempts the scan
    out = out or open(sys.stdout.fileno(), "w", buffering=1 << 16, closefd=False)
    parser = build_parser()
    args = parser.parse_args(_glue_option_values(argv if argv is not None else sys.argv[1:]))
    try:
        cfg = load_config(
            args.config,
            policy=args.policy,
            nu2_manin=args.nu2_manin,
            workers=args.workers,
        )
        code = args.fn(args, cfg, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point it at devnull so the
        # flushes that follow cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INCONSISTENT
    except (DomainError, SingularCurve, ArithmeticError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, DomainError) else EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
