"""Weierstrass models, exact invariants, minimality, conductor support,
torsion detection via division polynomials, and Frobenius traces.

Short models y^2 = x^3 + Ax + B carry integer coefficients.  Long models
y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 may carry exact rationals
(the Tate normal parametrizations evaluate at rational arguments);
`short_model` clears denominators and reduces to the minimal short form.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from . import polys
from .arith import is_prime, is_square, prime_divisors, valuation
from .errors import DomainError, SingularCurve

TRIVIAL = "Trivial"
Z2 = "Z2"
Z2XZ2 = "Z2xZ2"

# Conductor-support policies: count every prime of the minimal discriminant,
# or leave out 2 and 3.
POLICIES = ("include-small", "exclude-23")


class ShortWeierstrass(namedtuple("ShortWeierstrass", "A B")):
    __slots__ = ()

    def __new__(cls, A, B):
        if 4 * A**3 + 27 * B**2 == 0:
            raise SingularCurve(f"y^2 = x^3 + {A}x + {B} is singular")
        return super().__new__(cls, A, B)


class LongWeierstrass(namedtuple("LongWeierstrass", "a1 a2 a3 a4 a6")):
    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, a6):
        self = super().__new__(cls, a1, a2, a3, a4, a6)
        if invariants(self).delta == 0:
            raise SingularCurve("long Weierstrass model is singular")
        return self


CurveInvariants = namedtuple("CurveInvariants", "c4 c6 delta")


def invariants(model):
    """Exact c4, c6, delta of a model (standard b2, b4, b6, b8 formulas)."""
    if isinstance(model, ShortWeierstrass):
        A, B = model.A, model.B
        delta = -16 * (4 * A**3 + 27 * B**2)
        return CurveInvariants(-48 * A, -864 * B, delta)
    a1, a2, a3, a4, a6 = model.a1, model.a2, model.a3, model.a4, model.a6
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return CurveInvariants(c4, c6, delta)


def minimize(E, primes):
    """The minimal short model (A/u^4, B/u^6), u the largest such integer.

    Only a prime with p^4 | gcd(A, B) can divide u, and `primes`, distinct
    primes, must hold every such prime: no other is looked at, and nothing
    is factored.  gcd(0, B) = |B|; a zero coefficient bounds no exponent, so
    it stands in with e = nu_p(gcd(A, B)), which never binds.
    """
    A, B = E.A, E.B
    g = gcd(A, B)
    u = 1
    for p in primes:
        if g % p**4 == 0:
            e = valuation(g, p)
            u *= p ** min(valuation(A, p) // 4 if A else e, valuation(B, p) // 6 if B else e)
    if u == 1:
        return E
    return ShortWeierstrass(A // u**4, B // u**6)


def short_model(model):
    """Minimal integral short form of any model, via c4/c6 with denominator clearing."""
    if not isinstance(model, ShortWeierstrass):
        inv = invariants(model)
        c4, c6 = Fraction(inv.c4), Fraction(inv.c6)
        u = lcm(c4.denominator, c6.denominator)
        model = ShortWeierstrass(int(-27 * c4 * u**4), int(-54 * c6 * u**6))
    return minimize(model, prime_divisors(gcd(model.A, model.B)))


def height_leq(E, X):
    """H(E) <= X, i.e. |A| <= X^2 and |B| <= X^3 (exact integers)."""
    return abs(E.A) <= X * X and abs(E.B) <= X**3


def conductor_support(E, policy, primes):
    """omega_N: the number of distinct primes of the discriminant of E, a
    minimal short model (p^4 | A, p^6 | B, at 2 and 3 too); the `exclude-23`
    policy leaves out 2 and 3 for sensitivity analysis.

    At p >= 5 these are the primes of N.  At 2 and 3 the count can exceed
    omega(N): -16 (4A^3 + 27B^2) is always even, and can carry 3 at good
    reduction.  E_{1,-16} is 65a1; its minimal short model (-1323, 3942) has
    discriminant 2^12 3^12 5 13, whose support reads as {2, 3, 5, 13}.

    E must be minimal already, and `primes`, distinct primes, must hold every
    prime of its discriminant, so nothing is minimized or factored.
    """
    if policy not in POLICIES:
        raise DomainError(f"unknown policy {policy!r}")
    delta = invariants(E).delta
    return sum(delta % p == 0 for p in primes if p > 3 or policy == "include-small")


def _two_torsion_roots(E):
    return polys.rational_roots([E.B, E.A, 0, 1])


def two_torsion_shape(E):
    """Trivial, Z2 or Z2xZ2 according to the rational roots of x^3 + Ax + B."""
    n = len(_two_torsion_roots(E))
    return {0: TRIVIAL, 1: Z2, 3: Z2XZ2}[n]


def division_polynomial(ell, A, B):
    """The ell-division polynomial in x for y^2 = x^3 + Ax + B, ell in {3, 5, 7}.

    Generated from the standard recurrence with y^2 reduced to the cubic;
    psi_5 = psi_4 psi_2^3 - psi_3^3 and psi_7 = psi_5 psi_3^3 - psi_2 psi_4^3,
    with each psi_4 psi_2^k pair contributing a factor f^2 = (x^3+Ax+B)^2.
    """
    if ell not in (3, 5, 7):
        raise DomainError(f"unsupported torsion order {ell}")
    f = [B, A, 0, 1]
    psi3 = [-A * A, 12 * B, 6 * A, 0, 3]
    if ell == 3:
        return psi3
    # psi_4 = 4y * q4
    q4 = [-8 * B * B - A**3, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1]
    f2 = polys.mul(f, f)
    psi5 = polys.sub(polys.scale(polys.mul(f2, q4), 32), polys.power(psi3, 3))
    if ell == 5:
        return psi5
    psi7 = polys.sub(
        polys.mul(psi5, polys.power(psi3, 3)),
        polys.scale(polys.mul(f2, polys.power(q4, 3)), 128),
    )
    return psi7


def _is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    return is_square(q.numerator) and is_square(q.denominator)


def torsion_order_present(E, ell):
    """Whether E has a rational point of order ell, for ell in {2, 3, 5, 7}.

    ell = 2: the cubic has a rational root.  Odd ell: the ell-division
    polynomial has a rational root x0 with x0^3 + Ax0 + B a rational square.
    """
    if ell == 2:
        return bool(_two_torsion_roots(E))
    psi = division_polynomial(ell, E.A, E.B)
    for x0 in polys.rational_roots(psi):
        if _is_rational_square(x0**3 + E.A * x0 + E.B):
            return True
    return False


def legendre_table(p):
    """chi[r] = Legendre symbol (r/p) for r in [0, p)."""
    chi = [-1] * p
    chi[0] = 0
    for r in range(1, (p + 1) // 2 + 1):
        chi[r * r % p] = 1
    return chi


def trace_from_coefficients(A, B, p, chi):
    """-sum_x chi(x^3 + Ax + B) over F_p, chi = legendre_table(p); equals a_p
    on good reduction.

    On singular reductions the same sum lands on the standard conventions:
    +1 split multiplicative, -1 nonsplit, 0 additive.
    """
    A %= p
    B %= p
    total = 0
    for x in range(p):
        total += chi[(x * x % p * x + A * x + B) % p]
    return -total


def frobenius_trace(E, p):
    """a_p = p + 1 - #E(F_p) for a prime p > 3 of good reduction."""
    if p <= 3 or not is_prime(p):
        raise DomainError(f"{p} is not a prime > 3")
    Em = short_model(E)
    if invariants(Em).delta % p == 0:
        raise DomainError(f"bad reduction at {p}")
    ap = trace_from_coefficients(Em.A, Em.B, p, legendre_table(p))
    if ap * ap > 4 * p:
        raise ArithmeticError(f"Hasse bound violated: a_{p} = {ap}")
    return ap


def e2_param_of(E):
    """(a, b) with E isomorphic to y^2 = x^3 + ax^2 + bx, or None.

    Requires a rational 2-torsion point; the smallest root of the cubic is
    translated to the origin.  Roots of a monic integer cubic are integers.
    """
    roots = _two_torsion_roots(E)
    if not roots:
        return None
    x0 = int(roots[0])
    return 3 * x0, 3 * x0 * x0 + E.A
