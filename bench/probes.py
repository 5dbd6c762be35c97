"""In-process tracing: spans around calls into each module's public functions.

The probes live here, in the benchmark, not in the program.  Installing a
probe replaces a function's name in every `ecdescent` module that bound it
(`from .arith import factor` binds `descent2.factor`, `curves.factor`, ...),
so calls made through any of those names are seen; `remove()` puts the
originals back.  A span records name, start, end and parent and stays in
memory until the run ends.  A module's self time is the time of its spans
minus the time their child spans cover, so time in an unprobed helper counts
for the nearest probed caller.

Counting probes (no span) sit on hot helpers where a span would cost more
than the work: `descent2.valuation` (one call per p-adic residue class
visited, plus one per depth-cap computation), `descent3.compose`,
`descent3.reduced_forms`, `arith._pollard_rho` and `arith.is_prime`.
"""

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function, group).  A group's calls and seconds count only its
# outermost spans, so squarefree_kernel -> squarefree_part is one factoring.
SPANS = [
    ("cli", "main", "cli.main"),
    *[("arith", f, "arith.factor") for f in (
        "factor", "omega", "squarefree_part", "squarefree_kernel", "is_squarefree",
        "mobius", "squarefree_divisors", "unitary_squarefree_divisors")],
    ("arith", "primes_up_to", "arith.primes_up_to"),
    ("polys", "rational_roots", "polys.rational_roots"),
    ("polys", "roots_mod_p", "polys.roots_mod_p"),
    ("polys", "resultant", "polys.resultant"),
    ("polys", "squarefree_part_poly", "polys.squarefree_part_poly"),
    ("curves", "conductor_support", "curves.conductor_support"),
    ("curves", "minimize", "curves.minimize"),
    ("curves", "short_model", "curves.short_model"),
    ("curves", "trace_from_coefficients", "curves.trace"),
    ("curves", "frobenius_trace", "curves.frobenius_trace"),
    ("curves", "two_torsion_shape", "curves.two_torsion_shape"),
    ("curves", "e2_param_of", "curves.e2_param_of"),
    ("families", "e2_curve", "families.e2_curve"),
    ("families", "e5_curve", "families.tate"),
    ("families", "e7_curve", "families.tate"),
    ("families", "type1", "families.type1"),
    ("families", "twist_e0", "families.twist_e0"),
    ("families", "e3_from_torsion", "families.e3_from_torsion"),
    ("descent2", "rank_upper", "descent2.rank_upper"),
    ("descent2", "sel_phi", "descent2.sel_phi"),
    ("descent2", "sel_phihat", "descent2.sel_phihat"),
    ("descent2", "padic_soluble", "descent2.padic_soluble"),
    ("descent3", "rank_upper_type1", "descent3.rank_upper_type1"),
    ("descent3", "class_bound", "descent3.class_bound"),
    ("descent3", "r3_imaginary", "descent3.r3_imaginary"),
    ("descent3", "s_set", "descent3.s_set"),
    ("stats", "count_family", "stats.count_family"),
    ("stats", "avg_frobenius", "stats.avg_frobenius"),
    ("stats", "roots_mod", "stats.roots_mod"),
    ("stats", "normal_order_experiment", "stats.normal_order_experiment"),
    ("stats", "certificate_density", "stats.certificate_density"),
    ("stats", "has_insolubility_certificate", "stats.has_insolubility_certificate"),
    ("stats", "is_irreducible", "stats.is_irreducible"),
    ("watkins", "report", "watkins.report"),
    ("watkins", "twist_watkins", "watkins.twist_watkins"),
    ("watkins", "verify_record", "watkins.verify_record"),
    ("watkins", "load_dataset", "watkins.load_dataset"),
]

# (module, function, counter, only_in_own_module, weight of one call)
COUNTS = [
    ("descent2", "valuation", "descent2.padic_nodes", True, None),
    ("descent3", "compose", "descent3.compose.calls", False, None),
    ("descent3", "reduced_forms", "descent3.reduced_forms", False, len),
    ("arith", "_pollard_rho", "arith.rho.calls", False, None),
    ("arith", "is_prime", "arith.is_prime.calls", False, None),
]

MODULES = ("arith", "polys", "curves", "families", "descent2", "descent3",
           "stats", "watkins", "cli")


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self.groups = []
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.outer = bytearray()
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def parent_name(self, idx):
        return self.names[idx] if idx >= 0 else None

    def self_seconds(self):
        """Self time per module: span time minus time of direct child spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = dict.fromkeys(MODULES, 0.0)
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.ends[i] - self.starts[i] - child[i]
        return out

    def group_totals(self):
        """(calls, seconds) per group, over each group's outermost spans."""
        calls, secs = defaultdict(int), defaultdict(float)
        for i, group in enumerate(self.groups):
            if self.outer[i]:
                calls[group] += 1
                secs[group] += self.ends[i] - self.starts[i]
        return calls, secs

    def write(self, fh):
        """One JSON object per span; `parent` is the parent's line index or -1."""
        for i, name in enumerate(self.names):
            fh.write(json.dumps({"name": name, "start": self.starts[i], "end": self.ends[i],
                                 "parent": self.parents[i]}) + "\n")


def _on_result(rec, name, group, args, result, parent):
    """Counters that need a call's arguments, result or caller."""
    if group == "descent2.padic_soluble":
        rec.maxima["descent2.max_local_prime"] = max(rec.maxima["descent2.max_local_prime"], args[1])
    elif group in ("descent2.sel_phi", "descent2.sel_phihat"):
        rec.counts["descent2.survivors"] += len(result)
    elif name == "arith.squarefree_divisors" and rec.parent_name(parent) in (
            "descent2.sel_phi", "descent2.sel_phihat"):
        rec.counts["descent2.classes_tested"] += len(result)
    elif group == "descent3.r3_imaginary":
        rec.maxima["descent3.max_abs_disc"] = max(rec.maxima["descent3.max_abs_disc"], abs(args[0]))
    elif group == "stats.count_family":
        rec.counts["stats.count_family.kept"] += result
    elif group == "families.tate" and rec.parent_name(parent) == "stats.count_family":
        rec.counts["stats.count_family.fibers"] += 1


def _span(fn, name, group, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(rec.names)
        parent = rec.stack[-1] if rec.stack else -1
        rec.names.append(name)
        rec.groups.append(group)
        rec.parents.append(parent)
        rec.outer.append(rec.active[group] == 0)
        rec.starts.append(0.0)
        rec.ends.append(0.0)
        rec.active[group] += 1
        rec.stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            rec.stack.pop()
            rec.active[group] -= 1
            rec.starts[idx] = t0
            rec.ends[idx] = t1
        _on_result(rec, name, group, args, result, parent)
        return result
    return wrapper


def _counter(fn, key, weight, rec):
    counts = rec.counts
    if weight is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += weight(result)
            return result
    return wrapper


class Probes:
    """Installs the probes for one Recorder and removes them again."""

    def __init__(self, rec):
        self.rec = rec
        self.saved = []  # (module, name, original)
        self.missing = []

    def _modules(self):
        return [m for name, m in sys.modules.items() if name.startswith("ecdescent.")]

    def _replace(self, home, attr, make, everywhere):
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapper = make(original)
        for mod in (self._modules() if everywhere else [home]):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[1]: m for m in self._modules()}
        for module, attr, group in SPANS:
            self._replace(mods[module], attr,
                          lambda f, n=f"{module}.{attr}", g=group: _span(f, n, g, self.rec), True)
        for module, attr, key, local, weight in COUNTS:
            self._replace(mods[module], attr,
                          lambda f, k=key, w=weight: _counter(f, k, w, self.rec), not local)
        return self

    def remove(self):
        for mod, name, original in reversed(self.saved):
            setattr(mod, name, original)
        self.saved.clear()
