"""Parametrized curve families with prescribed rational torsion.

Covers the 2-torsion family y^2 = x^3 + ax^2 + bx and its dual, the
Harron-Snowden style (a, b) parametrizations of 2- and 3-torsion short
models, Tate normal forms (5- and 7-torsion), curves y^2 = x^3 + a with a
rational 3-isogeny, and quadratic twists of y^2 = x^3 - 1, each with the
one window its scans run over.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from . import curves, polys
from .arith import factor, iroot, is_square, is_squarefree, prime_divisors
from .curves import Z2, Z2XZ2, LongWeierstrass, ShortWeierstrass
from .errors import DomainError, SingularCurve

# Widens the asymptotic parameter window of `tate_fibers`, whose exponents
# leave out constant factors, so small heights keep every fiber.
SAFETY_BOX_FACTOR = 4

COND_I = "CondI"
COND_II = "CondII"
LARGE_OMEGA = "LargeOmega"
UNCLASSIFIED = "Unclassified"


class E2Param(namedtuple("E2Param", "a b")):
    """Parameters of y^2 = x^3 + ax^2 + bx; nonsingular iff b(a^2 - 4b) != 0."""

    __slots__ = ()

    def __new__(cls, a, b):
        if b * (a * a - 4 * b) == 0:
            raise SingularCurve(f"E_({a},{b}) is singular")
        return super().__new__(cls, a, b)

    @property
    def disc_quadratic(self):
        """a^2 - 4b, the discriminant of x^2 + ax + b."""
        return self.a * self.a - 4 * self.b

    @property
    def dual(self):
        """The 2-isogenous curve y^2 = x^3 - 2ax^2 + (a^2 - 4b)x."""
        return E2Param(-2 * self.a, self.disc_quadratic)

    @property
    def two_torsion(self):
        """E(Q)[2]: Z2xZ2 iff x^2 + ax + b splits over Q (a^2 - 4b a square), else Z2."""
        return Z2XZ2 if is_square(self.disc_quadratic) else Z2


def e2_window(X):
    """Yield the nonsingular E2Param with |a| <= X and |b| <= X^2, a
    ascending in the outer loop and b in the inner."""
    for a in range(-X, X + 1):
        for b in range(-X * X, X * X + 1):
            try:
                param = E2Param(a, b)
            except SingularCurve:
                continue
            yield param


def e2_primes(param):
    """2, 3 and the primes of b and a^2 - 4b, all that an E_{a,b} row factors:
    every prime of `e2_curve`'s unreduced discriminant 3^12 16 b^2 (a^2 - 4b)."""
    return {2, 3, *prime_divisors(param.b), *prime_divisors(param.disc_quadratic)}


def e2_curve(param, primes):
    """Minimal short model of y^2 = x^3 + ax^2 + bx; `primes` holds
    `e2_primes(param)`."""
    a, b = param.a, param.b
    # x -> x - a/3, then (A, B) scaled by 3^4, 3^6
    return curves.minimize(ShortWeierstrass(81 * b - 27 * a * a, 54 * a**3 - 243 * a * b), primes)


def e2_from_torsion(a, b):
    """Short model (A, B) = (a, b^3 + ab); x = -b is a rational 2-torsion root."""
    return ShortWeierstrass(a, b**3 + a * b)


def e3_from_torsion(a, b):
    """Short model (A, B) = (6ab + 27a^4, b^2 - 27a^6), carrying 3-torsion."""
    return ShortWeierstrass(6 * a * b + 27 * a**4, b * b - 27 * a**6)


def e3_a_bound(X):
    """The |a| bound of the 3-torsion window at height X: no (a, b) beyond
    it has |6ab + 27a^4| <= X^2 and |b^2 - 27a^6| <= X^3."""
    # the two b-intervals separate once 6.75 a^6 exceeds X^3 + 1.5 a^2 X^2,
    # around |a| ~ 0.8 sqrt(X); floor(1.5 sqrt(X)) = isqrt(9X/4), exactly
    return isqrt(9 * X // 4) + 3


def e3_window(X):
    """Yield (a, b, minimal model) for each nonsingular `e3_from_torsion(a, b)`
    of height <= X, a ascending in the outer loop and b in the inner.

    The raw model, not the minimal one, must lie in the window: the scaling
    (a, b) -> (ua, u^3 b) would otherwise make the parameter set unbounded.
    """
    amax = e3_a_bound(X)
    for a in range(-amax, amax + 1):
        bmax = isqrt(X**3 + 27 * a**6) + 1
        for b in range(-bmax, bmax + 1):
            try:
                raw = e3_from_torsion(a, b)
            except SingularCurve:
                continue
            if curves.height_leq(raw, X):
                yield a, b, curves.short_model(raw)


def type1(a):
    """y^2 = x^3 + a, a nonzero."""
    if a == 0:
        raise DomainError("a must be nonzero")
    return ShortWeierstrass(0, a)


def type1_primes(a):
    """2, 3 and the primes of a, all that a type1 row factors: every prime of
    `type1(a)`'s discriminant -432 a^2."""
    return {2, 3, *prime_divisors(a)}


def type1_window(X):
    """The nonzero a with |a| <= X^3, ascending."""
    amax = X**3
    return [*range(-amax, 0), *range(1, amax + 1)]


def tate_normal(b, c):
    """E(b, c): Y^2 + (1-c)XY - bY = X^3 - bX^2, with a torsion point at (0, 0).

    A singular E(b, c), b = 0 among them, raises SingularCurve.
    """
    return LongWeierstrass(1 - c, -b, -b, 0, 0)


# (b(t), c(t)) of the Tate normal form whose point (0, 0) has order ell,
# ascending coefficients.
TATE_BC = {5: ([0, 1], [0, 1]), 7: ([0, 0, -1, 1], [0, -1, 1])}


def e5_curve(t):
    """Tate normal curve with b = c = t; the point (0, 0) has order 5.

    Discriminant t^5 (t^2 - 11t - 1).
    """
    return tate_normal(*(polys.evaluate(f, t) for f in TATE_BC[5]))


def e7_curve(t):
    """Tate normal curve with b = t^3 - t^2, c = t^2 - t; (0, 0) has order 7.

    Discriminant (t^3 - 8t^2 + 5t + 1)(t - 1)^7 t^7.
    """
    return tate_normal(*(polys.evaluate(f, t) for f in TATE_BC[7]))


def tate_short_polys(ell):
    """Integer polynomials (A(t), B(t)) = (-27 c4(t), -54 c6(t)) of the 5- or
    7-torsion Tate family, ascending coefficients.

    deg A = 4w and deg B = 6w with w = 1 for ell = 5 and w = 2 for ell = 7.
    """
    b_poly, c_poly = TATE_BC[ell]
    one_minus_c = polys.sub([1], c_poly)
    b2 = polys.add(polys.mul(one_minus_c, one_minus_c), polys.scale(b_poly, -4))
    b4 = polys.mul(one_minus_c, polys.scale(b_poly, -1))
    b6 = polys.mul(b_poly, b_poly)
    c4 = polys.sub(polys.mul(b2, b2), polys.scale(b4, 24))
    c6 = polys.sub(polys.scale(polys.mul(b2, b4), 36),
                   polys.add(polys.power(b2, 3), polys.scale(b6, 216)))
    return polys.scale(c4, -27), polys.scale(c6, -54)


def _box_bound(X, e):
    """floor(SAFETY_BOX_FACTOR X^e) + 1 for a rational exponent e = p/q, taken
    exactly as floor((SAFETY_BOX_FACTOR^q X^p)^(1/q)) + 1."""
    return iroot(SAFETY_BOX_FACTOR**e.denominator * X**e.numerator, e.denominator) + 1


def tate_fibers(ell, X):
    """Yield (num, den, model) for each nonsingular fiber t = num/den of the
    5- or 7-torsion Tate family whose minimal short model has height <= X.

    Runs over coprime num/den in the family's parameter window scaled by
    SAFETY_BOX_FACTOR, den ascending in the outer loop and num in the inner.
    A fiber's model is (A(t), B(t)) scaled by den^w, an integral model of the
    same curve, so `curves.short_model` reaches the minimal one.
    """
    if ell not in (5, 7):
        raise DomainError("Tate fibers cover ell in {5, 7}")
    num_max, den_max = (_box_bound(X, e) for e in param_box(ell))
    A_poly, B_poly = tate_short_polys(ell)
    for den in range(1, den_max + 1):
        for num in range(-num_max, num_max + 1):
            if gcd(num, den) != 1:
                continue
            A = polys.homogeneous_value(A_poly, num, den)
            B = polys.homogeneous_value(B_poly, num, den)
            try:
                model = curves.short_model(ShortWeierstrass(A, B))
            except SingularCurve:
                continue
            if curves.height_leq(model, X):
                yield num, den, model


def tate_curves(ell, X):
    """{(A, B): (tag, model)}, one entry per distinct minimal model of
    `tate_fibers(ell, X)`, tagged with the string-least "num/den" among the
    fibers that give it."""
    best = {}
    for num, den, model in tate_fibers(ell, X):
        key = (model.A, model.B)
        tag = f"{num}/{den}"
        if key not in best or tag < best[key][0]:
            best[key] = (tag, model)
    return best


def e3_polynomials():
    """(f3, g3, delta3) for the 1-parameter family of 3-torsion curves.

    f3 = 162t - 27 and g3 = 729t^2 + 486t + 54; delta3 = 4 f3^3 - 27 g3^2.
    """
    f3 = [-27, 162]
    g3 = [54, 486, 729]
    delta3 = polys.sub(polys.scale(polys.power(f3, 3), 4), polys.scale(polys.mul(g3, g3), 27))
    return f3, g3, delta3


def twist_model(D):
    """The quadratic twist y^2 = x^3 - D^3 of y^2 = x^3 - 1 by D."""
    return ShortWeierstrass(0, -(D**3))


def twist_e0(D, nu2_manin):
    """Quadratic twist y^2 = x^3 - D^3 of y^2 = x^3 - 1, with its rank class.

    CondI: every prime of D is 5 mod 12.  CondII: exactly one prime is not
    5 mod 12 and that prime is 3 mod 4 (a single such prime counts, with the
    5 mod 12 condition vacuous).
    LargeOmega: omega(D) >= 10 + 2*nu2_manin.  Otherwise Unclassified.
    """
    if D == 0:
        raise DomainError(f"{D} is not a nonzero square-free integer")
    fac = factor(D)
    if any(e > 1 for _, e in fac):
        raise DomainError(f"{D} is not a nonzero square-free integer")
    curve = twist_model(D)
    bad = [p for p, _ in fac if p % 12 != 5]
    if not bad:
        cls = COND_I
    elif len(bad) == 1 and bad[0] % 4 == 3:
        cls = COND_II
    elif len(fac) >= 10 + 2 * nu2_manin:
        cls = LARGE_OMEGA
    else:
        cls = UNCLASSIFIED
    return curve, cls


def twist_window(R):
    """The square-free D with 0 < |D| <= R: positive D first, then negative,
    each in |D| ascending.  Each |D| is tested once."""
    positive = [D for D in range(1, R + 1) if is_squarefree(D)]
    return positive + [-D for D in positive]


def param_box(ell):
    """Window exponents (m, n), |num(t)| = O(X^m) and |den(t)| = O(X^n), for
    enumerating t = num/den per torsion family.

    Chosen so that m + n matches the family's count exponent: 2 for ell = 3,
    1 for ell = 5, 1/2 for ell = 7.
    """
    table = {
        3: (Fraction(3, 2), Fraction(1, 2)),
        5: (Fraction(1, 2), Fraction(1, 2)),
        7: (Fraction(1, 4), Fraction(1, 4)),
    }
    if ell not in table:
        raise DomainError(f"no parameter box for ell = {ell}")
    return table[ell]
