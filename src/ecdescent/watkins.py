"""Watkins-style verdicts: rank bounds against the omega(N) - 2 surrogate
for the 2-adic valuation of the modular degree, plus exact checks against
externally supplied (rank, modular degree) data.

The surrogate chain only ever proves the inequality rank + M <= nu_2(m_E);
absence of a proof is reported as Inconclusive, never as a counterexample.
"""

import csv
import io
from collections import namedtuple

from . import curves, descent2, families
from .arith import valuation
from .curves import TRIVIAL, Z2, ShortWeierstrass
from .errors import DatasetFormatError, DomainError
from .families import COND_I, COND_II, LARGE_OMEGA, UNCLASSIFIED, E2Param

PROVEN = "Proven"
INCONCLUSIVE = "Inconclusive"

PROVEN_COND_I = "ProvenCondI"
PROVEN_COND_II = "ProvenCondII"
PROVEN_LARGE_OMEGA = "ProvenLargeOmega"

# The verdict of each `families.twist_e0` rank class.
TWIST_VERDICT = {COND_I: PROVEN_COND_I, COND_II: PROVEN_COND_II,
                 LARGE_OMEGA: PROVEN_LARGE_OMEGA, UNCLASSIFIED: INCONCLUSIVE}

DATASET_HEADER = ["label", "A", "B", "rank", "modular_degree"]


DatasetRecord = namedtuple("DatasetRecord", "label A B rank modular_degree")


class WatkinsReport(namedtuple("WatkinsReport", "curve rank_upper omega_N "
                               "surrogate_nu2_lower method_notes")):
    """The Watkins computations for one E_{a,b}.  rank_upper and omega_N are
    ints; surrogate_nu2_lower is None unless the shape is Z2."""

    __slots__ = ()

    def verdict(self, M):
        """Proven iff the surrogate exists and rank_upper + M <= omega(N) - 2,
        for M >= 0.

        Never asserts a counterexample: the rank is only bounded above and
        nu_2(m_E) only below, so failure to prove is Inconclusive.
        """
        if M < 0:
            raise DomainError(f"M must be >= 0, got {M}")
        lower = self.surrogate_nu2_lower
        return PROVEN if lower is not None and self.rank_upper + M <= lower else INCONCLUSIVE


def m_watkins_exact(rec, M):
    """rank + M <= nu_2(modular_degree) for an externally supplied record."""
    return rec.rank + M <= valuation(rec.modular_degree, 2)


def twist_watkins(D, nu2_manin):
    """Verdict for the twist y^2 = x^3 - D^3 of y^2 = x^3 - 1.

    CondI / CondII twists have rank at most 1 and the conjecture holds for
    rank <= 1; large prime support (omega(D) >= 10 + 2 nu2_manin) gives the
    twist-support criterion.  Everything else is Inconclusive.
    """
    _, cls = families.twist_e0(D, nu2_manin)
    return TWIST_VERDICT[cls]


def report(param, policy):
    """The WatkinsReport of E2Param param, whose `two_torsion` is the shape.
    The surrogate omega(N) - 2 for nu_2(m_E) needs E(Q)[2] = Z/2Z.  The
    model, omega(N) and the rank bound read the primes
    `families.e2_primes(param)`."""
    primes = families.e2_primes(param)
    model = families.e2_curve(param, primes)
    shape = param.two_torsion
    omega_n, _ = curves.conductor_support(model, policy, primes)
    surrogate = omega_n - 2 if shape == Z2 else None
    rank_bound = descent2.rank_upper(param, primes).rank_upper
    return WatkinsReport(model, rank_bound, omega_n, surrogate,
                         "" if shape == Z2 else "full 2-torsion")


def load_dataset(path):
    """Parse a dataset CSV with header exactly label,A,B,rank,modular_degree."""
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not UTF-8 text at byte {exc.start}") from None
    except OSError as exc:
        raise DatasetFormatError(str(exc)) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError("empty dataset", line=1)
    if header != DATASET_HEADER:
        raise DatasetFormatError(f"bad header {header!r}", line=1)
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise DatasetFormatError(f"expected 5 fields, got {len(row)}", line=lineno)
        label = row[0]
        try:
            A, B, rank, degree = (int(x) for x in row[1:])
        except ValueError:
            raise DatasetFormatError(f"non-integer field in {row!r}", line=lineno)
        if rank < 0 or degree < 1:
            raise DatasetFormatError("rank must be >= 0 and modular_degree >= 1",
                                     line=lineno)
        records.append(DatasetRecord(label, A, B, rank, degree))
    if not records:
        raise DatasetFormatError("dataset has no records", line=1)
    return records


def verify_record(rec, M, policy):
    """All consistency checks for one dataset record.

    The one translation of a short model to E_{a,b}: a rational 2-torsion
    point writes the record's model as one, whose `two_torsion` gives the
    shape and whose `report` the bounds.  Without one the shape is Trivial
    and no descent runs.  The record is not minimized first: `report`'s
    `e2_curve` reaches the minimal model, and the 2-isogeny Selmer groups of
    a rescaled E_{u^2 a, u^4 b} are those of E_{a,b}, so the bound is the
    same.

    surrogate_ok: omega(N) - 2 <= nu_2(m) whenever the curve has shape Z2.
    rank_ok: the descent bound is >= the recorded rank whenever the curve
    has a rational 2-torsion point.  Both default to True when inapplicable.
    """
    ab = curves.e2_param_of(ShortWeierstrass(rec.A, rec.B))
    if ab is None:
        shape, lower, bound = TRIVIAL, None, None
    else:
        param = E2Param(*ab)
        rep = report(param, policy)
        shape, lower, bound = param.two_torsion, rep.surrogate_nu2_lower, rep.rank_upper
    nu2 = valuation(rec.modular_degree, 2)
    out = {
        "label": rec.label,
        "shape": shape,
        "nu2_modular_degree": nu2,
        "surrogate_nu2_lower": lower,
        "surrogate_ok": lower is None or lower <= nu2,
        "rank_upper": bound,
        "rank_ok": bound is None or bound >= rec.rank,
        "m_watkins": m_watkins_exact(rec, M),
    }
    out["ok"] = out["surrogate_ok"] and out["rank_ok"]
    return out
