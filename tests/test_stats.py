import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd, isqrt

import pytest

from ecdescent import arith, curves, descent2, families, polys, stats
from ecdescent.arith import factor, is_square
from ecdescent.curves import ShortWeierstrass
from ecdescent.errors import DomainError, SingularCurve
from ecdescent.families import E2Param


def oracle_count_r2(X):
    total = 0
    for a in range(-(X * X) + 1, X * X):
        for b in range(-(isqrt(abs(a)) + 2 * X + 4), isqrt(abs(a)) + 2 * X + 5):
            if abs(b**3 + a * b) < X**3:
                total += 1
    return total


def oracle_count_r3(X):
    total = 0
    amax = int(1.5 * X**0.5) + 4
    for a in range(-amax, amax + 1):
        bmax = isqrt(X**3 + 27 * a**6) + 2
        for b in range(-bmax, bmax + 1):
            if abs(6 * a * b + 27 * a**4) < X * X and abs(b * b - 27 * a**6) < X**3:
                total += 1
    return total


def test_count_r2_small():
    assert stats.count_r2(1) == 1
    for X in range(1, 61):
        assert stats.count_r2(X) == oracle_count_r2(X), X


def test_count_r3_small():
    # X = 40 exercises the linear-term cancellation region |a| ~ 0.8 sqrt(X)
    for X in list(range(1, 21, 3)) + [20, 40]:
        assert stats.count_r3(X) == oracle_count_r3(X), X


def test_volume_constant():
    vc = stats.volume_constant(25)
    assert abs(vc.alpha_minus - Decimal("1.3247179572447460259609088")) < Decimal("1e-24")
    assert abs(vc.alpha_plus - Decimal("0.6823278038280193273694837")) < Decimal("1e-24")
    assert vc.value.quantize(Decimal("1.0000")) == Decimal("4.0030")
    # defining equations hold to precision
    for root, sgn in ((vc.alpha_plus, 1), (vc.alpha_minus, -1)):
        assert abs(root**3 + sgn * root - 1) < Decimal("1e-20")
    with pytest.raises(DomainError):
        stats.volume_constant(5)


def test_volume_constant_keeps_caller_precision():
    prec = getcontext().prec
    stats.volume_constant(40)
    assert getcontext().prec == prec


def test_count_r2_tracks_volume():
    vc = stats.volume_constant(15)
    ratio = stats.count_r2(60) / 60**3
    assert abs(ratio - float(vc.value)) / float(vc.value) < 0.05


def test_slope():
    assert abs(stats.slope([(10, 1000), (20, 8000), (40, 64000)]) - 3) < 1e-9
    assert abs(stats.slope([(10, 10), (20, 20), (40, 40), (80, 80)]) - 1) < 1e-9
    rng = random.Random(4)
    pts = [(X, int(X**3 * rng.uniform(0.95, 1.05))) for X in (50, 100, 200, 400)]
    assert abs(stats.slope(pts) - 3) < 0.1
    with pytest.raises(DomainError):
        stats.slope([(10, 5), (20, 9)])
    with pytest.raises(DomainError):
        stats.slope([(10, 0), (20, 9), (40, 17)])


def test_family_series():
    hs = (3, 5, 8)
    assert stats.family_series(2, hs) == tuple((X, stats.count_r2(X)) for X in hs)
    assert stats.family_series(3, hs) == tuple((X, stats.count_r3(X)) for X in hs)
    assert stats.family_series(5, hs) == tuple((X, stats.count_family(5, X)) for X in hs)


def test_count_family_monotone_and_positive():
    c50 = stats.count_family(5, 50)
    c100 = stats.count_family(5, 100)
    assert 0 < c50 <= c100
    assert stats.count_family(7, 200) <= stats.count_family(5, 200)
    with pytest.raises(DomainError):
        stats.count_family(3, 50)


def test_count_family_contains_integer_parameters():
    # every integer t with a small enough fiber is counted
    X = 60
    count = stats.count_family(5, X)
    direct = set()
    for t in range(-10, 11):
        if t == 0:
            continue
        E = curves.short_model(families.e5_curve(t))
        if curves.height_leq(E, X):
            direct.add((E.A, E.B))
    assert count >= len(direct)


def test_roots_mod_examples():
    assert stats.roots_mod([-1, -11, 1], 3, False) == 0
    assert stats.roots_mod([0, 1], 5, square=True) == 1
    assert stats.roots_mod([-1, -11, 1], 5, False) == 1  # t = 3 mod 5 (double root)


def oracle_roots_mod_square(f, p):
    return sum(1 for r in range(p * p) if polys.evaluate_mod(f, r, p * p) == 0)


def test_roots_mod_square_oracle():
    rng = random.Random(10)
    for _ in range(50):
        f = polys.normalize([rng.randrange(-9, 10) for _ in range(rng.randrange(2, 6))])
        if len(f) < 2:
            continue
        for p in (2, 3, 5, 7, 11):
            assert stats.roots_mod(f, p, square=True) == oracle_roots_mod_square(f, p), (f, p)
        for p in (2, 3, 5, 7, 11, 503, 1009):  # the gcd(x^p - x, f) count, small p included
            assert stats.roots_mod(f, p, False) == len(polys.roots_mod_p(f, p)), (f, p)


def test_roots_mod_bound_fails_only_at_resultant_primes():
    """The 2 deg(f) bound for rho_f(p^2) requires p coprime to Res(f, f');
    the content-gcd condition alone admits counterexamples."""
    f = [-1, -11, 1]
    assert gcd(polys.content(f), polys.content(polys.derivative(f))) == 1
    assert polys.resultant(f, polys.derivative(f)) % 5 == 0
    assert stats.roots_mod(f, 5, square=True) == 5  # exceeds 2 deg(f) = 4

    g = [1, 5, -8, 1]
    assert gcd(polys.content(g), polys.content(polys.derivative(g))) == 1
    assert polys.resultant(g, polys.derivative(g)) % 7 == 0
    assert stats.roots_mod(g, 7, square=True) == 7  # exceeds 2 deg(g) = 6


def test_roots_mod_bound_away_from_resultant():
    from ecdescent.arith import primes_up_to

    for f in ([-1, -11, 1], [1, 5, -8, 1]):
        res = polys.resultant(f, polys.derivative(f))
        deg = polys.degree(f)
        for p in primes_up_to(300):
            if res % p == 0:
                continue
            assert stats.roots_mod(f, p, square=True) <= 2 * deg, (f, p)


def test_is_irreducible():
    assert stats.is_irreducible([-1, -11, 1])
    assert stats.is_irreducible([1, 5, -8, 1])
    assert stats.is_irreducible([0, 1])
    assert stats.is_irreducible([1, 0, 0, 0, 1])  # x^4 + 1
    assert not stats.is_irreducible([-1, 0, 1])
    assert not stats.is_irreducible([1, 2, 1])
    assert not stats.is_irreducible([1, 0, 2, 0, 1])  # (x^2 + 1)^2
    assert not stats.is_irreducible([4, 0, 0, 0, 1])  # (x^2-2x+2)(x^2+2x+2)
    assert not stats.is_irreducible([2])
    f3, g3, d3 = families.e3_polynomials()
    assert stats.is_irreducible(d3)
    # degree >= 5: a mod-p irreducibility witness, or no certificate
    assert stats.is_irreducible([-1, -1, 0, 0, 0, 1])  # x^5 - x - 1
    assert stats.is_irreducible([2, 0, 0, 0, 0, 0, 1])  # x^6 + 2
    assert not stats.is_irreducible([-2, 0, -1, 2, 0, 1])  # (x^2 + 2)(x^3 - 1)
    with pytest.raises(DomainError):
        stats.is_irreducible([-2, 0, -2, 1, 0, 1])  # (x^2 + 1)(x^3 - 2)


def _divisors(n):
    """Positive divisors of n != 0, ascending."""
    out = [1]
    for p, e in factor(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _has_quadratic_factor(f):
    """Reference for `stats._splits_by_resolvent`: the retired divisor search.

    Writes f = (a2 x^2 + a1 x + a0)(b2 x^2 + b1 x + b0); a2 b2 = c4 and
    a0 b0 = c0 leave a 2x2 linear system for (a1, b1) from the x^3 and x^1
    coefficients, checked against the x^2 coefficient.  A singular system
    reduces to a quadratic in a1.  Every candidate is verified by exact
    polynomial multiplication.
    """
    c0, c1, c2, c3, c4 = f

    def is_factorization(a2, a1, a0, b2, b1, b0):
        return polys.mul([a0, a1, a2], [b0, b1, b2]) == list(f)

    for a2 in _divisors(c4):
        b2 = c4 // a2
        for a0_abs in _divisors(c0):
            for a0 in (a0_abs, -a0_abs):
                b0 = c0 // a0
                # a2*b1 + b2*a1 = c3 ; a0*b1 + b0*a1 = c1
                det = a2 * b0 - b2 * a0
                if det != 0:
                    b1_num = c3 * b0 - c1 * b2
                    a1_num = c1 * a2 - c3 * a0
                    if b1_num % det or a1_num % det:
                        continue
                    if is_factorization(a2, a1_num // det, a0, b2, b1_num // det, b0):
                        return True
                else:
                    # dependent rows: a1 satisfies b2 a1^2 - c3 a1 + a2 (c2 - a2 b0 - a0 b2) = 0
                    qa, qb, qc = b2, -c3, a2 * (c2 - a2 * b0 - a0 * b2)
                    disc = qb * qb - 4 * qa * qc
                    if disc < 0 or not is_square(disc):
                        continue
                    r = isqrt(disc)
                    for num in (-qb + r, -qb - r):
                        if num % (2 * qa):
                            continue
                        a1 = num // (2 * qa)
                        if (c3 - a1 * b2) % a2:
                            continue
                        b1 = (c3 - a1 * b2) // a2
                        if is_factorization(a2, a1, a0, b2, b1, b0):
                            return True
    return False


def test_resolvent_matches_divisor_search():
    """Half the box is a product of two random quadratics, so both outcomes occur."""
    rng = random.Random(15)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        if rng.random() < 0.5:
            f = polys.mul([rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(1, 6)],
                          [rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(1, 6)])
        else:
            f = [rng.randrange(-30, 31) for _ in range(4)] + [rng.randrange(1, 13)]
        f = polys.primitive(f)
        if f[0] == 0 or polys.rational_roots(f):
            continue
        expected = _has_quadratic_factor(f)
        assert stats._splits_by_resolvent(f) == expected, f
        assert stats.is_irreducible(f) == (not expected), f
        outcomes[expected] += 1
    assert outcomes[True] >= 800 and outcomes[False] >= 800, outcomes


def test_is_irreducible_quartic_factors_no_coefficient(monkeypatch):
    """Large, highly composite c0 and c4: the divisor search would factor both."""
    f = polys.mul([2**10 * 3**2 * 5**3 * 7, 1, 2**6 * 3**3],
                  [2**10 * 3**3 * 5**3 * 7**2, -1, 2**4 * 3**2 * 5**2 * 7])
    assert f[0] == 2**20 * 3**5 * 5**6 * 7**3 and polys.content(f) == 1
    assert not polys.rational_roots(f)
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    assert not stats.is_irreducible(f)
    assert calls == []


def test_is_irreducible_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for deg in (4, 5):
        for _ in range(60):
            f = [rng.randrange(-6, 7) for _ in range(deg)] + [rng.choice((1, -1, 2, 3))]
            _, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(f)))
            expected = len(factors) == 1 and factors[0][1] == 1
            if deg == 5 and not expected and not polys.rational_roots(f):
                # a quadratic times a cubic has no mod-p witness
                with pytest.raises(DomainError):
                    stats.is_irreducible(f)
            else:
                assert stats.is_irreducible(f) == expected, f


def test_normal_order_experiment():
    (ns,) = stats.normal_order_experiment([0, 1], [30], ())
    # reduced pairs b in [1, 30], |a| <= 30, minus a = 0 (f vanishes)
    count = sum(1 for b in range(1, 31) for a in range(-30, 31)
                if gcd(a, b) == 1 and a != 0)
    assert ns.sample_count == count
    assert ns.variance >= 0
    assert 0 < ns.mean < 4

    with pytest.raises(DomainError):
        stats.normal_order_experiment([-1, 0, 1], [50], ())  # reducible
    with pytest.raises(DomainError):
        stats.normal_order_experiment([0, 1], [50, 5], ())  # X too small


def test_normal_order_excluded_primes():
    (full,) = stats.normal_order_experiment([-1, -11, 1], [20], ())
    (reduced,) = stats.normal_order_experiment([-1, -11, 1], [20], (2, 3, 5))
    assert reduced.mean <= full.mean
    assert reduced.sample_count == full.sample_count


def reference_normal_order(f, X, S):
    """The retired loop: one NormalOrderSample from a pass over X's own window."""
    f = polys.primitive(f)
    oms = [sum(1 for p, e in factor(value) if e % 2 and p not in S)
           for b in range(1, X + 1) for a in range(-X, X + 1)
           if gcd(a, b) == 1 and (value := polys.homogeneous_value(f, a, b))]
    mean = Fraction(sum(oms), len(oms))
    return stats.NormalOrderSample(X, mean, Fraction(sum(om * om for om in oms), len(oms))
                                   - mean * mean, len(oms))


@pytest.mark.parametrize("f, heights, S", [
    ([1, 0, 1], [30, 12, 30, 10], ()),
    ([-1, -11, 1], [25], (2, 3)),
    ([2, 0, 0, 1], [11, 20], (3,)),
])
def test_normal_order_heights_share_one_window(f, heights, S):
    """One pass over the largest window gives each height the sample of its
    own window, in the order given, repeats kept."""
    assert stats.normal_order_experiment(f, heights, S) == [
        reference_normal_order(f, X, S) for X in heights]


def test_normal_order_mean_growth():
    means = [float(ns.mean) for ns in stats.normal_order_experiment([0, 1], [100, 200, 400], ())]
    assert means[1] >= means[0] - 0.3
    assert means[2] >= means[1] - 0.3


def test_average_trace_constant_family():
    for p in (5, 7, 11, 13):
        got = stats.average_trace([0], [1], p)
        assert got == curves.frobenius_trace(ShortWeierstrass(0, 1), p)


def test_avg_frobenius_bound():
    bound5 = stats.family_trace_bound("e5")
    assert bound5 == 3 * 7 + 4 - 2
    for p in (5, 7, 11, 17, 31):
        v = stats.avg_frobenius("e5", p)
        assert abs(v) <= bound5
        w = stats.avg_frobenius("e7", p)
        assert abs(w) <= stats.family_trace_bound("e7")
        u = stats.avg_frobenius("e3poly", p)
        assert abs(u) <= stats.family_trace_bound("e3poly")
    with pytest.raises(DomainError):
        stats.avg_frobenius("e5", 3)


def test_avg_frobenius_matches_direct_fiber_sum():
    """Independent oracle: good fibers by brute-force point count, singular
    fibers by the smooth-locus group order (p - a_p nonsingular points)."""
    p = 13
    A_poly, B_poly = families.tate_short_polys(5)
    delta5 = polys.mul([0, 0, 0, 0, 0, 1], [-1, -11, 1])  # t^5 (t^2 - 11t - 1)
    total = 0
    for r in range(p):
        A = polys.evaluate_mod(A_poly, r, p)
        B = polys.evaluate_mod(B_poly, r, p)
        singular_xy = None
        affine = 0
        for x in range(p):
            fx = (x**3 + A * x + B) % p
            for y in range(p):
                if (y * y - fx) % p == 0:
                    affine += 1
                    if (3 * x * x + A) % p == 0 and y == 0 and fx == 0:
                        singular_xy = (x, y)
        if polys.evaluate_mod(delta5, r, p) != 0:
            ap = p + 1 - (affine + 1)
            assert singular_xy is None
        else:
            # smooth locus: affine minus singular point plus infinity,
            # and #E_ns(F_p) = p - a_p
            assert singular_xy is not None
            ap = p - affine
            assert ap in (-1, 0, 1)
        total += ap
    assert stats.avg_frobenius("e5", p) == Fraction(total, p)


def test_certificate_density():
    # recorded from the loop that stated the window and the 2-torsion rule
    # inline, before both moved to `families`
    assert stats.certificate_density(10) == (1453, 2365)


def test_certificate_factors_b_and_its_partner_once(monkeypatch):
    """Both isogeny sides read one factorization of b and one of a^2 - 4b:
    with the memo off, two per pair counted."""
    expected = stats.certificate_density(6)
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    arith.set_factor_cache(False)
    try:
        assert stats.certificate_density(6) == expected
    finally:
        arith.set_factor_cache(True)
    assert len(calls) == 2 * expected[1]


def test_certificate_of_singular_pair_raises():
    # b = 0 and a^2 = 4b, as for every other E_{a,b} entry point
    for a, b in ((3, 0), (2, 1), (-4, 4)):
        with pytest.raises(SingularCurve):
            stats.has_insolubility_certificate(a, b)


def test_certificate_soundness_exhaustive_small():
    """Every certified pair passes the full-descent rank bound check."""
    X = 5
    for a in range(-X, X + 1):
        for b in range(-X * X, X * X + 1):
            if b == 0 or gcd(a, b) != 1:
                continue
            n = a * a - 4 * b
            from ecdescent.arith import is_square

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
            assert est.rank_upper <= omega_n - 2, (a, b)


def test_square_discriminant_pairs_are_rare():
    X = 50
    squares = 0
    total = 0
    from ecdescent.arith import is_square

    for a in range(-X, X + 1):
        for b in range(-X * X, X * X + 1):
            if b * (a * a - 4 * b) == 0:
                continue
            total += 1
            if is_square(a * a - 4 * b):
                squares += 1
    assert squares / total < 0.05
