import random
from fractions import Fraction
from math import gcd

import pytest

from ecdescent import arith, curves, families, polys, stats
from ecdescent.arith import is_squarefree
from ecdescent.curves import ShortWeierstrass
from ecdescent.errors import DomainError, SingularCurve
from ecdescent.families import E2Param


def test_e2_param_validation():
    with pytest.raises(SingularCurve, match=r"^E_\(0,0\) is singular$"):
        E2Param(0, 0)
    with pytest.raises(SingularCurve, match=r"^E_\(2,1\) is singular$"):
        E2Param(2, 1)  # a^2 - 4b = 0
    with pytest.raises(SingularCurve, match=r"^E_\(3,0\) is singular$"):
        E2Param(a=3, b=0)
    assert E2Param(0, -1).disc_quadratic == 4


def e2_curve(param):
    """`families.e2_curve` with the primes it reads."""
    return families.e2_curve(param, families.disc_primes(*families.e2_primes(param)))


def test_e2_curve_examples():
    p = E2Param(0, -1)
    assert e2_curve(p) == ShortWeierstrass(-1, 0)  # y^2 = x^3 - x
    assert (p.dual.a, p.dual.b) == (0, 4)

    p = E2Param(3, 3)
    assert e2_curve(p) == ShortWeierstrass(0, -1)  # shift of y^2 = x^3 - 1
    assert (p.dual.a, p.dual.b) == (-6, -3)

    p = E2Param(0, 4)
    assert (p.dual.a, p.dual.b) == (0, -16)


def test_e2_curve_dual_of_dual_is_isomorphic():
    # duality squares to multiplication by 2: E'' is E scaled by u = 2
    p = E2Param(3, -5)
    assert e2_curve(p.dual.dual) == e2_curve(p)


def test_e2_curve_against_long_model():
    # reference: the short model of the long model y^2 = x^3 + ax^2 + bx
    for a in range(-12, 13):
        for b in range(-150, 151):
            if b * (a * a - 4 * b) == 0:
                continue
            long_model = curves.LongWeierstrass(0, a, 0, b, 0)
            assert e2_curve(E2Param(a, b)) == curves.short_model(long_model), (a, b)


def test_e2_height():
    # the e2 scans run over H_2(E_{a,b}) <= X, i.e. |a| <= X and |b| <= X^2
    assert (2, 4) in list(families.e2_window(2))
    assert (3, 1) not in list(families.e2_window(2))
    assert (0, 9) in list(families.e2_window(3))
    assert (0, 0) not in list(families.e2_window(3))  # singular
    for X in range(5):
        assert list(families.e2_window(X)) == [
            (a, b) for a in range(-X, X + 1) for b in range(-X * X, X * X + 1)
            if b * (a * a - 4 * b) != 0]


def test_e2_from_torsion():
    assert families.e2_from_torsion(1, 1) == ShortWeierstrass(1, 2)
    assert families.e2_from_torsion(0, 1) == ShortWeierstrass(0, 1)
    assert families.e2_from_torsion(-1, 0) == ShortWeierstrass(-1, 0)
    # x = -b is always a rational 2-torsion root
    rng = random.Random(1)
    for _ in range(100):
        a, b = rng.randrange(-15, 16), rng.randrange(-15, 16)
        try:
            E = families.e2_from_torsion(a, b)
        except SingularCurve:
            continue
        assert (-b) ** 3 + E.A * (-b) + E.B == 0
        assert curves.torsion_order_present(E, 2)


def test_e3_from_torsion():
    assert families.e3_from_torsion(0, 3) == ShortWeierstrass(0, 9)
    assert families.e3_from_torsion(1, 1) == ShortWeierstrass(33, -26)
    assert families.e3_from_torsion(1, 2) == ShortWeierstrass(39, -23)
    rng = random.Random(2)
    for _ in range(60):
        a, b = rng.randrange(-6, 7), rng.randrange(-12, 13)
        try:
            E = families.e3_from_torsion(a, b)
        except SingularCurve:
            continue
        assert curves.torsion_order_present(E, 3)


def test_type1():
    assert families.type1(1) == ShortWeierstrass(0, 1)
    assert families.type1(-432) == ShortWeierstrass(0, -432)
    with pytest.raises(DomainError):
        families.type1(0)


def test_tate_normal():
    assert curves.invariants(families.tate_normal(1, 1)).delta == -11
    assert curves.invariants(families.tate_normal(2, 2)).delta == -608
    with pytest.raises(SingularCurve):
        families.tate_normal(0, 5)


def test_e5_e7_singular_parameters():
    with pytest.raises(SingularCurve):
        families.e5_curve(0)
    with pytest.raises(SingularCurve):
        families.e7_curve(1)
    with pytest.raises(SingularCurve):
        families.e7_curve(0)


def test_e7_discriminant_examples():
    assert curves.invariants(families.e7_curve(2)).delta == -1664
    assert curves.invariants(families.e7_curve(3)).delta == -8118144


# The Tate normal forms' discriminants in closed form, ascending coefficients.
DELTA5 = polys.mul([0, 0, 0, 0, 0, 1], [-1, -11, 1])  # t^5 (t^2 - 11t - 1)
DELTA7 = polys.mul(polys.mul([1, 5, -8, 1], polys.power([-1, 1], 7)),
                   polys.power([0, 1], 7))  # (t^3 - 8t^2 + 5t + 1)(t - 1)^7 t^7


def test_delta_identities_over_integers():
    for t in range(-25, 26):
        if t != 0:
            assert curves.invariants(families.e5_curve(t)).delta == polys.evaluate(DELTA5, t)
        if t not in (0, 1):
            assert curves.invariants(families.e7_curve(t)).delta == polys.evaluate(DELTA7, t)
    # 4A^3 + 27B^2 of the short polynomials, which `stats.family_trace_bound`
    # reads, is a constant multiple of each closed form
    for ell, delta in ((5, DELTA5), (7, DELTA7)):
        A, B = families.tate_short_polys(ell)
        derived = polys.add(polys.scale(polys.power(A, 3), 4), polys.scale(polys.mul(B, B), 27))
        c = Fraction(derived[-1], delta[-1])
        assert c != 0 and [Fraction(x) for x in derived] == [c * x for x in delta]
        assert stats.family_trace_bound(f"e{ell}") == 3 * polys.degree(delta) + polys.degree(A) - 2


def test_torsion_presence_on_tate_fibers():
    rng = random.Random(3)
    for _ in range(25):
        num = rng.randrange(-9, 10)
        den = rng.randrange(1, 7)
        t = Fraction(num, den)
        try:
            E5 = curves.short_model(families.e5_curve(t))
            assert curves.torsion_order_present(E5, 5)
        except SingularCurve:
            pass
        try:
            E7 = curves.short_model(families.e7_curve(t))
            assert curves.torsion_order_present(E7, 7)
        except SingularCurve:
            pass


def reference_tate_fibers(ell, X):
    """(fibers, singular count): the Fraction Tate-normal-form loop of
    `tate_fibers`, each fiber's short model taken from its long model."""
    m, n = families.param_box(ell)
    build = families.e5_curve if ell == 5 else families.e7_curve
    num_max = int(families.SAFETY_BOX_FACTOR * X ** float(m)) + 1
    den_max = int(families.SAFETY_BOX_FACTOR * X ** float(n)) + 1
    out, singular = [], 0
    for den in range(1, den_max + 1):
        for num in range(-num_max, num_max + 1):
            if gcd(num, den) != 1:
                continue
            try:
                model = curves.short_model(build(Fraction(num, den)))
            except SingularCurve:
                singular += 1
                continue
            if curves.height_leq(model, X):
                out.append((num, den, model))
    return out, singular


@pytest.mark.parametrize("ell, heights", [(5, (5, 20, 56, 120)), (7, (8, 50, 300, 1000))])
def test_tate_fibers_against_long_models(ell, heights):
    for X in heights:
        want, singular = reference_tate_fibers(ell, X)
        assert singular == (1 if ell == 5 else 2)  # t = 0, and t = 1 for ell = 7
        assert list(families.tate_fibers(ell, X)) == want, (ell, X)


def test_integer_paths_build_no_long_model(monkeypatch):
    def refuse(*args):
        raise AssertionError("long Weierstrass model built")

    short_model = curves.short_model

    def short_only(model):
        if not isinstance(model, ShortWeierstrass):
            refuse()
        return short_model(model)

    for name in ("tate_normal", "e5_curve", "e7_curve", "LongWeierstrass"):
        monkeypatch.setattr(families, name, refuse)
    monkeypatch.setattr(curves, "short_model", short_only)
    assert len(list(families.tate_fibers(5, 56))) > 0
    assert len(list(families.tate_fibers(7, 50))) > 0
    assert e2_curve(E2Param(3, -5)) == ShortWeierstrass(-8, 7)


def test_windows_minimize_through_short_model(monkeypatch):
    """The e3 and Tate windows and `frobenius_trace` take their minimal
    models from `curves.short_model`, the one way to minimize a model whose
    primes are not known."""
    calls = []
    short_model = curves.short_model
    monkeypatch.setattr(curves, "short_model",
                        lambda model: calls.append(model) or short_model(model))
    rows = list(families.e3_window(20))
    assert len(calls) == len(rows) > 0
    calls.clear()
    rows = list(families.tate_fibers(5, 40))
    assert len(calls) > len(rows) > 0  # every nonsingular fiber, kept or not
    calls.clear()
    assert curves.frobenius_trace(ShortWeierstrass(16, 64), 7) == curves.frobenius_trace(
        ShortWeierstrass(1, 1), 7)
    assert calls == [ShortWeierstrass(16, 64), ShortWeierstrass(1, 1)]


def test_e3_polynomials_exact():
    f3, g3, d3 = families.e3_polynomials()
    assert f3 == [-27, 162]
    assert g3 == [54, 486, 729]
    assert polys.evaluate(f3, 0) == -27
    assert polys.evaluate(g3, 0) == 54
    # ascending coefficients for degrees 0..4
    assert d3 == [-157464, 0, -17006112, -2125764, -14348907]


def test_twist_e0():
    E, cls = families.twist_e0(5, 0)
    assert E == ShortWeierstrass(0, -125)
    assert cls == families.COND_I
    assert families.twist_e0(55, 0)[1] == families.COND_II
    assert families.twist_e0(2, 0)[1] == families.UNCLASSIFIED
    assert families.twist_e0(1, 0)[1] == families.COND_I  # vacuous
    assert families.twist_e0(11, 0)[1] == families.COND_II  # single 3 mod 4 prime
    with pytest.raises(DomainError):
        families.twist_e0(12, 0)
    with pytest.raises(DomainError):
        families.twist_e0(0, 0)


def test_twist_e0_factors_d_once(monkeypatch):
    # one factorization gives square-freeness, the class and omega(D)
    calls = []
    factor_abs = arith._factor_abs

    def counting(n):
        calls.append(n)
        return factor_abs(n)

    monkeypatch.setattr(arith, "_factor_abs", counting)
    arith.set_factor_cache(False)
    try:
        for D in (42, 5, 55):
            calls.clear()
            families.twist_e0(D, 0)
            assert calls == [D]
    finally:
        arith.set_factor_cache(True)


def test_twist_e0_large_omega():
    primes_1mod12 = [13, 37, 61, 73, 97, 109, 157, 181, 193, 229, 241]
    D = 1
    for p in primes_1mod12:
        D *= p
    assert families.twist_e0(D, 0)[1] == families.LARGE_OMEGA
    assert families.twist_e0(D, 1)[1] == families.UNCLASSIFIED


def test_twist_two_torsion_shape():
    for D in (2, 3, 5, 7, 11, 13, -2, -5, 15, 21):
        E, _ = families.twist_e0(D, 0)
        assert curves.two_torsion_shape(E) == curves.Z2


def test_param_box():
    assert families.param_box(3) == (Fraction(3, 2), Fraction(1, 2))
    assert families.param_box(5) == (Fraction(1, 2), Fraction(1, 2))
    assert families.param_box(7) == (Fraction(1, 4), Fraction(1, 4))
    assert sum(families.param_box(5)) == 1
    assert sum(families.param_box(7)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        families.param_box(11)


def test_type1_and_twist_windows_against_inline_definitions():
    for X in range(6):
        amax = X**3
        assert families.type1_window(X) == [a for a in range(-amax, amax + 1) if a != 0]
        assert families.twist_window(X) == [
            D for s in (1, -1) for D in (s * k for k in range(1, X + 1)) if is_squarefree(D)]


def test_twist_window_factors_each_abs_d_once(monkeypatch):
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    arith.set_factor_cache(False)
    try:
        window = families.twist_window(300)
    finally:
        arith.set_factor_cache(True)
    assert calls == list(range(1, 301))
    assert window[:3] == [1, 2, 3] and window[-3:] == [-295, -298, -299]


def test_window_bounds_are_exact_integer_roots():
    """The e3 and Tate window bounds are integer roots, equal to the float
    formulas they replaced wherever a float is exact enough, and defined at
    every height."""
    exponents = {*families.param_box(5), *families.param_box(7)}
    for X in range(20001):
        assert families.e3_a_bound(X) == int(1.5 * X**0.5) + 3, X
        for e in exponents:
            assert families._box_bound(X, e) == int(
                families.SAFETY_BOX_FACTOR * X ** float(e)) + 1, (X, e)
    big = families.e3_a_bound(10**400)  # a float overflows here
    assert type(big) is int and big == 15 * 10**199 + 3
    assert families._box_bound(10**400, Fraction(1, 4)) == 4 * 10**100 + 1


@pytest.mark.parametrize("ell, heights", [(5, (5, 20, 56, 120)), (7, (8, 50, 300, 1000))])
def test_tate_curves_against_set_dedupe(ell, heights):
    for X in heights:
        fibers = list(families.tate_fibers(ell, X))
        curves_by_key = families.tate_curves(ell, X)
        assert len(curves_by_key) == len({(model.A, model.B) for _, _, model in fibers})
        for (A, B), (tag, model) in curves_by_key.items():
            assert (model.A, model.B) == (A, B)
            assert tag == min(f"{num}/{den}" for num, den, m in fibers if m == model)
