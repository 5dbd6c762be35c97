import io
import json
import os
from collections import Counter
from math import gcd

import pytest

from ecdescent import cli, curves, descent2, polys, watkins
from ecdescent.arith import is_square, legendre, next_prime, prime_divisors, valuation
from ecdescent.curves import ShortWeierstrass
from ecdescent.errors import DatasetFormatError, DomainError, SingularCurve
from ecdescent.families import E2Param

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "ecdescent", "data",
                    "sample_dataset.csv")


def _verify(A, B, rank=0, degree=1, policy="include-small"):
    """verify_record of the short model y^2 = x^3 + Ax + B at M = 0."""
    return watkins.verify_record(watkins.DatasetRecord("x", A, B, rank, degree), 0, policy)


def test_surrogate_examples():
    for A, B in ((0, -1), (1, 2)):
        out = _verify(A, B)
        assert out["shape"] == curves.Z2
        assert out["surrogate_nu2_lower"] == 0
    # the bound needs shape Z2: full or trivial 2-torsion gives no surrogate
    for (A, B), shape in (((-1, 0), curves.Z2XZ2), ((0, 2), curves.TRIVIAL)):
        out = _verify(A, B)
        assert out["shape"] == shape
        assert out["surrogate_nu2_lower"] is None


def test_report_verdict():
    rep = watkins.report(E2Param(3, 3), "include-small")
    assert rep.verdict(0) == watkins.PROVEN
    assert rep.verdict(1) == watkins.INCONCLUSIVE
    # no surrogate (y^2 = x^3 - x has full 2-torsion): nothing is proven
    assert watkins.report(E2Param(0, -1), "include-small").verdict(0) == watkins.INCONCLUSIVE
    with pytest.raises(DomainError):
        rep.verdict(-1)
    # monotone: proven at M implies proven at all smaller M
    for a, b in ((1, 3), (2, -5), (5, 3)):
        rep = watkins.report(E2Param(a, b), "include-small")
        verdicts = [rep.verdict(M) for M in range(4)]
        seen_inconclusive = False
        for v in verdicts:
            if v == watkins.INCONCLUSIVE:
                seen_inconclusive = True
            else:
                assert not seen_inconclusive


def test_m_watkins_exact():
    rec = watkins.DatasetRecord("e0", 0, -1, 0, 64)
    assert all(watkins.m_watkins_exact(rec, M) for M in range(7))
    assert not watkins.m_watkins_exact(rec, 7)
    rec = watkins.DatasetRecord("r1", 0, 0, 1, 2)
    assert watkins.m_watkins_exact(rec, 0)
    assert not watkins.m_watkins_exact(rec, 1)
    rec = watkins.DatasetRecord("odd", 0, 0, 0, 15)
    assert watkins.m_watkins_exact(rec, 0)
    assert not watkins.m_watkins_exact(rec, 1)


def test_twist_watkins():
    assert watkins.twist_watkins(5, 0) == watkins.PROVEN_COND_I
    assert watkins.twist_watkins(55, 0) == watkins.PROVEN_COND_II
    assert watkins.twist_watkins(2, 0) == watkins.INCONCLUSIVE
    big = 1
    for p in (13, 37, 61, 73, 97, 109, 157, 181, 193, 229, 241):
        big *= p
    assert watkins.twist_watkins(big, 0) == watkins.PROVEN_LARGE_OMEGA


def test_report_param():
    rep = watkins.report(E2Param(3, 3), "include-small")
    assert rep._fields == ("curve", "rank_upper", "omega_N", "surrogate_nu2_lower",
                           "method_notes")
    assert rep.curve == ShortWeierstrass(0, -1)
    assert rep.rank_upper == 0
    assert rep.omega_N == 2
    assert rep.surrogate_nu2_lower == 0
    assert (rep.verdict(0), rep.verdict(1)) == (watkins.PROVEN, watkins.INCONCLUSIVE)


def test_report_finds_rational_roots_at_most_once(monkeypatch):
    """E(Q)[2] of an E2Param comes from a^2 - 4b; a dataset record's cubic
    is solved once, by the translation to y^2 = x^3 + ax^2 + bx."""
    calls = []
    real = polys.rational_roots

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(polys, "rational_roots", counting)
    assert cli.main(["watkins", "--family", "e2", "--height", "3"], out=io.StringIO()) == 0
    watkins.report(E2Param(0, -1), "include-small")
    assert calls == []
    records = [*watkins.load_dataset(DATA), watkins.DatasetRecord("x", -16, 16, 0, 1)]
    for n, rec in enumerate(records, start=1):
        watkins.verify_record(rec, 0, "include-small")
        assert len(calls) == n, rec.label


def _nonsingular(make, xs, ys):
    for x in xs:
        for y in ys:
            try:
                yield make(x, y)
            except SingularCurve:
                continue


def test_report_shape_matches_two_torsion_shape():
    """The reference: the rational roots of the minimal model's cubic, for
    the report of an E2Param and the verify record of a short model."""
    shapes = set()
    for param in _nonsingular(E2Param, range(-10, 11), range(-100, 101)):
        rep = watkins.report(param, "include-small")
        assert param.two_torsion == curves.two_torsion_shape(rep.curve), param
        shapes.add(param.two_torsion)
    assert shapes == {curves.Z2, curves.Z2XZ2}
    for E in _nonsingular(ShortWeierstrass, range(-30, 31), range(-60, 61)):
        shape = _verify(E.A, E.B)["shape"]
        assert shape == curves.two_torsion_shape(E), E
        shapes.add(shape)
    assert shapes == {curves.TRIVIAL, curves.Z2, curves.Z2XZ2}


def test_report_full_two_torsion():
    param = E2Param(0, -1)  # y^2 = x^3 - x
    rep = watkins.report(param, "include-small")
    assert param.two_torsion == curves.Z2XZ2
    assert rep.surrogate_nu2_lower is None
    assert rep.verdict(0) == watkins.INCONCLUSIVE
    assert rep.method_notes == "full 2-torsion"
    assert rep.rank_upper == 0  # descent still applies
    assert rep.omega_N == 1


def test_verify_no_two_torsion_runs_no_descent(monkeypatch):
    def no_descent(param):
        raise AssertionError(f"descent on {param}")

    monkeypatch.setattr(descent2, "rank_upper", no_descent)
    out = _verify(-16, 16)
    assert out["shape"] == curves.TRIVIAL
    assert out["rank_upper"] is None
    assert out["surrogate_nu2_lower"] is None
    assert out["ok"]


def test_load_dataset():
    records = watkins.load_dataset(DATA)
    labels = [r.label for r in records]
    assert labels == ["e0", "32a1", "37a1", "49a1"]
    e0 = records[0]
    assert (e0.A, e0.B, e0.rank, e0.modular_degree) == (0, -1, 0, 64)


def test_load_dataset_errors(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DatasetFormatError) as err:
        watkins.load_dataset(str(p))
    assert err.value.line == 1

    p = tmp_path / "badheader.csv"
    p.write_text("label,A,B,rank,degree\n")
    with pytest.raises(DatasetFormatError):
        watkins.load_dataset(str(p))

    p = tmp_path / "badrow.csv"
    p.write_text("label,A,B,rank,modular_degree\nok,0,-1,0,64\nbad,x,1,0,1\n")
    with pytest.raises(DatasetFormatError) as err:
        watkins.load_dataset(str(p))
    assert err.value.line == 3


def test_verify_bundled_dataset():
    for rec in watkins.load_dataset(DATA):
        out = watkins.verify_record(rec, 0, "include-small")
        assert out["ok"], rec.label
        assert out["m_watkins"], rec.label


def test_verify_surrogate_against_all_records():
    """omega(N) - 2 <= nu_2(m) on every record whose shape is Z2."""
    for rec in watkins.load_dataset(DATA):
        out = watkins.verify_record(rec, 0, "include-small")
        if out["shape"] == curves.Z2:
            assert out["surrogate_nu2_lower"] <= valuation(rec.modular_degree, 2)


def test_verify_factors_discriminant_only_with_two_torsion(monkeypatch):
    """omega(N) comes with the report of an E_{a,b}, so a record without a
    rational 2-torsion point skips the factorization of the discriminant."""
    calls = []
    real = curves.conductor_support

    def counting(E, policy, primes):
        calls.append(E)
        return real(E, policy, primes)

    monkeypatch.setattr(curves, "conductor_support", counting)
    out = _verify(-16, 16)  # trivial 2-torsion
    assert out["surrogate_nu2_lower"] is None
    assert calls == []
    out = _verify(-1, 0)  # full 2-torsion
    assert out["surrogate_nu2_lower"] is None
    assert len(calls) == 1
    _verify(0, -1, degree=64)  # Z2
    assert len(calls) == 2


# label, A, B: one record per shape, a non-minimal model (0, -64) = 2^6 (0, -1)
# and a scaled one (-16, 0) = 2^4 (-1, 0)
SHAPES_DATASET = ("label,A,B,rank,modular_degree\nfull,-1,0,0,1\ntrivial,0,2,0,1\n"
                  "nonminimal,0,-64,0,64\nscaled,-16,0,0,1\nz2,1,2,0,2\n")


@pytest.mark.parametrize("policy,surrogates", [("include-small", [None, None, 0, None, 0]),
                                               ("exclude-23", [None, None, -2, None, -1])])
def test_verify_every_shape(tmp_path, policy, surrogates):
    path = tmp_path / "shapes.csv"
    path.write_text(SHAPES_DATASET)
    buf = io.StringIO()
    assert cli.main(["--policy", policy, "verify", "--dataset", str(path)], out=buf) == 0
    doc = json.loads(buf.getvalue())
    expected = []
    for label, shape, nu2, rank_upper, lower in zip(
            ["full", "trivial", "nonminimal", "scaled", "z2"],
            [curves.Z2XZ2, curves.TRIVIAL, curves.Z2, curves.Z2XZ2, curves.Z2],
            [0, 0, 6, 0, 1], [0, None, 0, 0, 0], surrogates):
        expected.append({"label": label, "shape": shape, "nu2_modular_degree": nu2,
                         "surrogate_nu2_lower": lower, "surrogate_ok": True,
                         "rank_upper": rank_upper, "rank_ok": True, "m_watkins": True,
                         "ok": True})
    assert doc["records"] == expected
    assert doc["all_ok"]


def test_verify_record_does_not_depend_on_the_scale():
    """`verify_record` translates the record's own model, not its minimal
    one: E_{u^2 a, u^4 b} has the Selmer groups of E_{a,b}, and `e2_curve`
    reaches the same minimal model, so every field matches at each scale."""
    seen = Counter()
    for E in _nonsingular(ShortWeierstrass, range(-12, 13), range(-20, 21)):
        if curves.minimize(E, prime_divisors(gcd(E.A, E.B))) != E:
            continue
        for policy in curves.POLICIES:
            out = _verify(E.A, E.B, policy=policy)
            seen[out["shape"]] += 1
            for u in (2, 3, 10):
                assert _verify(u**4 * E.A, u**6 * E.B, policy=policy) == out, (E, u)
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


def test_verify_flags_inconsistent_record():
    bad = watkins.DatasetRecord("bogus", 0, -1, 5, 1)
    out = watkins.verify_record(bad, 0, "include-small")
    assert not out["rank_ok"]
    assert not out["ok"]
    assert not out["m_watkins"]


def construct_b_candidates(a, M, bound):
    """All |b| <= bound with gcd(a, b) = 1 and nu_{q_i}(a^2 - 4b) = 1, i <= M.

    The paper's b-construction for the M-Watkins families: P(a) is the
    least prime > 3 with (a/P) = 1; q_1 < q_2 < ... are the primes with
    (q_i/P(a)) = -1.  Requires a not a perfect square.
    """
    if a >= 0 and is_square(a):
        raise DomainError(f"a = {a} must not be a perfect square")
    qs = nonresidue_primes(least_split_prime(a), M)
    out = []
    for b in range(-bound, bound + 1):
        if b == 0 or gcd(a, b) != 1:
            continue
        n = a * a - 4 * b
        if n != 0 and all(valuation(n, q) == 1 for q in qs):
            out.append(b)
    return out


def least_split_prime(a):
    """P(a): least prime > 3 with Legendre symbol (a/p) = 1."""
    p = 5
    while legendre(a, p) != 1:
        p = next_prime(p)
    return p


def nonresidue_primes(P, M):
    """The M least primes q with (q/P) = -1."""
    out = []
    q = 2
    while len(out) < M:
        if legendre(q, P) == -1:
            out.append(q)
        q = next_prime(q)
    return out


def test_construct_b_candidates():
    assert least_split_prime(2) == 7
    assert nonresidue_primes(5, 2) == [2, 3]
    with pytest.raises(DomainError):
        construct_b_candidates(4, 1, 10)
    bs = construct_b_candidates(2, 1, 30)
    # q_1 = 3 for P(2) = 7: each b must have nu_3(4 - 4b) = 1 and be odd
    assert bs
    for b in bs:
        assert gcd(2, b) == 1
        assert valuation(4 - 4 * b, 3) == 1
    # brute check none missing
    expect = [b for b in range(-30, 31)
              if b % 2 and 4 - 4 * b != 0 and valuation(4 - 4 * b, 3) == 1]
    assert bs == expect


def test_least_split_prime_matches_definition():
    for a in (2, 3, 5, 6, 7, 10, -2, -5):
        P = least_split_prime(a)
        assert legendre(a, P) == 1
        p = 5
        while p < P:
            assert legendre(a, p) != 1
            p = next_prime(p)


def test_b_construction_yields_m_watkins_candidates():
    """What the b-construction is for: its M-th set of b gives curves E_{2,b}
    on which to try the M-Watkins inequality rank + M <= nu_2(m_E).  At
    |b| <= 3000 the sets shrink with M, and the rank bound against the
    omega(N) - 2 surrogate proves the inequality on about three quarters of
    the first, half of the second and one curve of the third."""
    found, proven = [], []
    for M in (1, 2, 3):
        bs = construct_b_candidates(2, M, 3000)
        verdicts = Counter(watkins.report(E2Param(2, b), "include-small").verdict(M)
                           for b in bs)
        found.append(len(bs))
        proven.append(verdicts[watkins.PROVEN])
    assert found == [667, 106, 8]
    assert proven == [512, 49, 1]
