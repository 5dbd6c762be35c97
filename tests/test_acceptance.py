"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see one PASS line per criterion;
a failing criterion fails its test with the offending values.
"""

import random
from fractions import Fraction
from math import gcd

from ecdescent import curves, descent2, descent3, families, polys, stats, watkins
from ecdescent.arith import is_square, is_squarefree, primes_up_to, valuation
from ecdescent.errors import SingularCurve
from ecdescent.families import E2Param


def _ok(num, label):
    print(f"ACCEPTANCE {num:02d} PASS  {label}")


def test_criterion_01_delta3_identity():
    f3, g3, d3 = families.e3_polynomials()
    lhs = polys.sub(polys.scale(polys.power(f3, 3), 4),
                    polys.scale(polys.mul(g3, g3), 27))
    assert lhs == d3
    # ascending order; degrees (4, 3, 2, 1, 0) read back-to-front
    assert d3 == [-157464, 0, -17006112, -2125764, -14348907]
    _ok(1, "delta3 = 4 f3^3 - 27 g3^2 with the exact coefficient vector")


def test_criterion_02_delta5_delta7_identities():
    checked5 = checked7 = 0
    for t in range(-25, 27):
        if t != 0 and checked5 < 50:
            delta = curves.invariants(families.e5_curve(t)).delta
            assert delta == t**5 * (t * t - 11 * t - 1), t
            checked5 += 1
        if t not in (0, 1) and checked7 < 50:
            delta = curves.invariants(families.e7_curve(t)).delta
            assert delta == (t**3 - 8 * t * t + 5 * t + 1) * (t - 1) ** 7 * t**7, t
            checked7 += 1
    assert checked5 == 50 and checked7 == 50
    _ok(2, "Tate-normal discriminants match delta5 and delta7 at 50 integers each")


def _rational_points_x(a, b, bound):
    """x-coordinates of points on y^2 = x^3 + ax^2 + bx with h(x) <= bound."""
    xs = []
    for v in range(1, bound + 1):
        for u in range(-bound, bound + 1):
            if gcd(abs(u), v) != 1:
                continue
            x = Fraction(u, v)
            y2 = x**3 + a * x * x + b * x
            if y2 < 0:
                continue
            if is_square(y2.numerator) and is_square(y2.denominator):
                xs.append(x)
    return xs


def test_criterion_03_descent_spot_values():
    torsion_x = {
        (0, -1): {Fraction(-1), Fraction(0), Fraction(1)},
        (0, 1): {Fraction(0)},
        (3, 3): {Fraction(0)},
    }
    for (a, b), allowed in torsion_x.items():
        param = E2Param(a, b)
        est = descent2.rank_upper(param, families.e2_primes(param))
        assert est.rank_upper == 0, (a, b, est)
        found = set(_rational_points_x(a, b, 100))
        assert found <= allowed, (a, b, found - allowed)
    _ok(3, "rank bound 0 for (0,-1), (0,1), (3,3); no infinite-order points below height 100")


def test_criterion_04_either_or_property():
    violations = []
    for a in range(-30, 31):
        for b in range(-30, 31):
            if b * (a * a - 4 * b) == 0:
                continue
            param = E2Param(a, b)
            est = descent2.rank_upper(param, families.e2_primes(param))
            if min(est.phi_classes) < 0 and min(est.phihat_classes) < 0:
                violations.append((a, b))
    assert violations == []
    _ok(4, "either-or sign collapse holds on every nonsingular |a|,|b| <= 30")


def test_criterion_05_fastpath_equals_solver():
    """The closed-form rule of `stats.has_insolubility_certificate`, (d/p) = -1
    and `nonresidues_insoluble`, against the p-adic solver."""
    from ecdescent.arith import legendre, unitary_squarefree_divisors
    from ecdescent.descent2 import HomogeneousSpace

    disagreements = []
    checked = 0
    for a in range(-40, 41):
        for b in range(-40, 41):
            if b == 0 or a == 0:
                continue
            n = a * a - 4 * b
            if n == 0:
                continue
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
                if b % p or a % p == 0:
                    continue
                for d0 in unitary_squarefree_divisors(n):
                    for d in (d0, -d0):
                        fast = legendre(d, p) == -1 and descent2.nonresidues_insoluble(a, b, p)
                        space = HomogeneousSpace(d, -2 * a, n // d)
                        generic = descent2.padic_soluble(space, p)
                        checked += 1
                        if fast != (not generic):
                            disagreements.append((a, b, d, p))
    assert disagreements == []
    assert checked > 10000
    _ok(5, f"the fastpath rule ((d/p) = -1 and nonresidues_insoluble) agrees with the generic "
           f"p-adic solver on {checked} admissible tuples")


def test_criterion_06_volume_constant():
    vc = stats.volume_constant(20)
    ratio = stats.count_r2(100) / 100**3
    assert abs(ratio - float(vc.value)) / float(vc.value) < 0.05
    _ok(6, f"count_r2(100)/100^3 = {ratio:.4f} within 5% of {float(vc.value):.4f}")


def test_criterion_07_count_exponents():
    s3 = stats.slope(stats.family_series(3, [100, 200, 400, 800]))
    assert abs(s3 - 2) <= 0.15, s3
    s5 = stats.slope(stats.family_series(5, [100, 200, 400, 800]))
    assert abs(s5 - 1) <= 0.2, s5
    s7 = stats.slope(stats.family_series(7, [1000, 2000, 4000, 8000]))
    assert abs(s7 - 0.5) <= 0.2, s7
    _ok(7, f"log-log slopes: 3-torsion region {s3:.3f}, ell=5 {s5:.3f}, ell=7 {s7:.3f}")


def test_criterion_08_torsion_soundness():
    rng = random.Random(1729)
    for _ in range(1000):
        a, b = rng.randrange(-300, 301), rng.randrange(-300, 301)
        try:
            E = families.e2_from_torsion(a, b)
        except SingularCurve:
            continue
        assert curves.torsion_order_present(E, 2), (a, b)
    for _ in range(1000):
        a, b = rng.randrange(-40, 41), rng.randrange(-60, 61)
        try:
            E = families.e3_from_torsion(a, b)
        except SingularCurve:
            continue
        assert curves.torsion_order_present(E, 3), (a, b)
    done5 = done7 = 0
    while done5 < 1000 or done7 < 1000:
        t = Fraction(rng.randrange(-18, 19), rng.randrange(1, 13))
        if done5 < 1000:
            try:
                E = curves.short_model(families.e5_curve(t))
                assert curves.torsion_order_present(E, 5), t
                done5 += 1
            except SingularCurve:
                pass
        if done7 < 1000:
            try:
                E = curves.short_model(families.e7_curve(t))
                assert curves.torsion_order_present(E, 7), t
                done7 += 1
            except SingularCurve:
                pass
    _ok(8, "1000 random parameters per family all carry the advertised torsion")


def test_criterion_09_root_count_bound():
    f3, g3, d3 = families.e3_polynomials()
    for f in (d3, [-1, -11, 1], [1, 5, -8, 1]):
        deg = polys.degree(f)
        res = polys.resultant(f, polys.derivative(f))
        for p in primes_up_to(10**4):
            if res % p == 0:
                continue  # f not squarefree mod p: the bound's hypothesis fails
            assert stats.roots_mod(f, p, square=True) <= 2 * deg, (f, p)
    _ok(9, "rho_f(p^2) <= 2 deg(f) for the three discriminant factors, admissible p <= 10^4")


def test_criterion_10_average_trace_bound():
    bound = stats.family_trace_bound("e5")
    assert bound == 23
    worst = Fraction(0)
    for p in primes_up_to(199):
        if p <= 3:
            continue
        v = abs(stats.avg_frobenius("e5", p))
        worst = max(worst, v)
        assert v <= bound, p
    _ok(10, f"|A_p| <= {bound} on the 5-torsion family for 3 < p <= 199 (max {worst})")


def test_criterion_11_class_unit_constancy():
    values = set()
    count = 0
    for n in range(1, 201):
        if n % 3 == 0 or not is_squarefree(n):
            continue
        _, comp = descent3.rank_upper_type1(n * n, families.type1_primes(n * n))
        values.add(comp.class_unit_total)
        count += 1
    assert values == {1}, values
    _ok(11, f"class+unit contribution is exactly 1 for all {count} squares n^2, n <= 200")


def test_criterion_12_dataset_verification():
    records = watkins.load_dataset(watkins.__file__.replace("watkins.py", "data/sample_dataset.csv"))
    e0 = next(r for r in records if r.label == "e0")
    assert (e0.A, e0.B, e0.rank, e0.modular_degree) == (0, -1, 0, 64)
    out = watkins.verify_record(e0, 0, "include-small")
    lower = out["surrogate_nu2_lower"]
    nu2 = valuation(e0.modular_degree, 2)
    assert lower == 0 and nu2 == 6 and lower <= nu2
    for M in range(7):
        assert watkins.m_watkins_exact(e0, M), M
    assert out["ok"]
    _ok(12, "bundled curve record passes surrogate consistency and 0- through 6-Watkins")


def test_criterion_13_twist_classification():
    assert families.twist_e0(5, 0)[1] == families.COND_I
    assert families.twist_e0(55, 0)[1] == families.COND_II
    assert families.twist_e0(2, 0)[1] == families.UNCLASSIFIED
    # the lookup `watkins --family twist-e0` makes
    verdict = lambda D: watkins.TWIST_VERDICT[families.twist_e0(D, 0)[1]]
    assert verdict(5) == watkins.PROVEN_COND_I
    assert verdict(55) == watkins.PROVEN_COND_II
    assert verdict(2) == watkins.INCONCLUSIVE
    _ok(13, "twist classes: 5 -> CondI, 55 -> CondII, 2 -> Unclassified, verdicts match")


def test_criterion_14_density_experiment():
    X = 20
    certified, total = stats.certificate_density(X)
    assert certified * 2 > total, (certified, total)
    failures = []
    for a in range(-X, X + 1):
        for b in range(-X * X, X * X + 1):
            if b == 0 or gcd(a, b) != 1:
                continue
            n = a * a - 4 * b
            if n == 0 or is_square(n):
                continue
            if not stats.has_insolubility_certificate(a, b):
                continue
            param = E2Param(a, b)
            facs = families.e2_primes(param)
            primes = families.disc_primes(*facs)
            est = descent2.rank_upper(param, facs)
            model = families.e2_curve(param, primes)
            omega_n = curves.conductor_support(model, "include-small", primes)
            if est.rank_upper > omega_n - 2:
                failures.append((a, b))
    assert failures == []
    _ok(14, f"certificate for {certified}/{total} pairs at X=20; every certified pair "
            "passes the full-descent cross-check")
