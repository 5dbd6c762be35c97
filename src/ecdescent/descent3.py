"""3-isogeny descent for curves y^2 = x^3 + a.

The rank bound adds, for K = Q(sqrt(-3a)) and Q(sqrt(a)): the 3-rank of the
class group (exact for imaginary fields via reduced binary quadratic forms
and Gauss composition, bounded via Scholz reflection for real fields), the
F_3-dimension of units mod cubes, and the sizes of the local prime sets S_a
and S_{-27a}.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .arith import CACHE_BOUND, class_product, factor, factor_over, legendre, signed_kernel
from .errors import DomainError

RATIONAL = 1  # square-class marker for the degenerate "field" Q

EXACT_IMAGINARY = "exact-imaginary"
SCHOLZ_BOUND = "scholz-bound"
RATIONAL_TRIVIAL = "rational-trivial"

# `_forms` reads b from `_ROOTS` while sqrt(|D|/3) <= ROOTS_BOUND.
# `_ROOTS[a]` maps each square residue mod 4a to the b in [0, a] with that
# square; it is empty at import and grown on first use up to the largest a
# asked for, so it never holds more than ROOTS_BOUND entries.
ROOTS_BOUND = 1 << 8
_ROOTS = {}


# field_kernel: square-free d with K = Q(sqrt(d)); 1 means K = Q.
# unit: dim_F3 of the units of K modulo cubes.
ClassGroup3 = namedtuple("ClassGroup3", "field_kernel r3 method unit")


class Type1Bound(namedtuple("Type1Bound", "class_a class_m27a s_a")):
    """The fields K_a = Q(sqrt(-3a)) and K_{-27a} = Q(sqrt(a)), and #S_a.

    #S_{-27a} = #S_a: nu_p(-27a) = nu_p(a) for p > 3, and 2, 3 are always in.
    """

    __slots__ = ()

    @property
    def class_unit_total(self):
        return self.class_a.r3 + self.class_a.unit + self.class_m27a.r3 + self.class_m27a.unit


def s_set(fac):
    """S_a, from a's prime powers `fac`, as a sorted tuple: always 2 and 3, plus
    primes p > 3 with nu_p(a) in {2, 4} and (-3/p) = 1."""
    return (2, 3, *(p for p, e in fac if p > 3 and e in (2, 4) and legendre(-3, p) == 1))


def reduce_form(a, b, c):
    """Reduced representative of a positive definite form (a, b, c).

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if abs(b) > a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
            continue
        if (abs(b) == a or a == c) and b < 0:
            b = -b
            continue
        return a, b, c


def compose(f1, f2, D):
    """Gauss composition of primitive positive definite forms of discriminant D."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, s)
    a3 = a1 * a2 // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return reduce_form(a3, b3, c3)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _forms(D):
    """Yield the reduced forms (a, b, c) of discriminant D < 0 with b >= 0.

    A reduced form has a <= sqrt(|D|/3) and 0 <= |b| <= a <= c with
    b^2 - 4ac = D.  While isqrt(|D|/3) <= ROOTS_BOUND (|D| < 3 (ROOTS_BOUND +
    1)^2 = 198147) the loop runs over a and reads each b in [0, a] from
    `_ROOTS[a]`, the square roots of D mod 4a, so a form costs one step and a
    discriminant about sqrt(|D|/3) lookups.  For larger |D| the table would
    grow with |D|, so the loop runs over b, and a runs over the divisors of
    ac = (b^2 - D)/4 in [b, sqrt(ac)], read from `factor(ac)`.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise DomainError(f"{D} is not a negative discriminant")
    amax = isqrt(-D // 3)
    if amax > ROOTS_BOUND:
        for b in range(D & 1, amax + 1, 2):  # b = D mod 2, so 4 | b^2 - D
            ac = (b * b - D) // 4
            top = isqrt(ac)
            divisors = [1]
            for p, e in factor(ac):
                divisors = [d * p**k for d in divisors for k in range(e + 1) if d * p**k <= top]
            for a in divisors:
                if a >= b and gcd(a, b, ac // a) == 1:
                    yield a, b, ac // a
        return
    for a in range(len(_ROOTS) + 1, amax + 1):
        roots = {}
        for b in range(a + 1):
            roots.setdefault(b * b % (4 * a), []).append(b)
        _ROOTS[a] = {r: tuple(bs) for r, bs in roots.items()}
    for a in range(1, amax + 1):
        for b in _ROOTS[a].get(D % (4 * a), ()):
            c = (b * b - D) // (4 * a)
            if c >= a and gcd(a, b, c) == 1:
                yield a, b, c


def reduced_forms(D):
    """All primitive reduced forms of discriminant D < 0 (the form class group),
    sorted: each (a, b, c) of `_forms(D)` (b from the square-root table, or
    past ROOTS_BOUND a from the divisors of (b^2 - D)/4) and, when
    0 < b < a < c, its inverse (a, -b, c)."""
    out = []
    for a, b, c in _forms(D):
        out.append((a, b, c))
        if 0 < b < a < c:
            out.append((a, -b, c))
    return sorted(out)


@lru_cache(maxsize=CACHE_BOUND)
def r3_imaginary(D):
    """3-rank of the form class group of discriminant D < 0.

    The class number h(D) is counted from `_forms(D)` without a list: a form
    with 0 < b < a < c counts twice, for itself and its inverse (a, -b, c).
    The 3-part of the group has order 3^v, v = v_3(h) (Sylow), so r3 <= v:
    if v <= 1 the 3-part is trivial or Z/3 and r3 = v, with nothing composed.
    Only when 9 | h are the elements g with g^3 = identity counted; that count
    is 3^r3.  g^3 = identity means g^2 = g^-1, where g^-1 of (a, b, c) is
    (a, -b, c).  An ambiguous form (b = 0, |b| = a or a = c) is its own
    inverse, so its order divides 2 and it has order 3 only if it is the
    identity, counted once up front.  Every other reduced form pairs with its
    inverse, also reduced and of the same order, so one composition per pair
    (the form with b > 0) counts two.  The count stops at 3^v, and one of 1
    (3 | h forces an element of order 3, by Cauchy) or not a power of 3
    raises ArithmeticError.
    """
    h = sum(2 if 0 < b < a < c else 1 for a, b, c in _forms(D))
    v = 0
    while h % 3**(v + 1) == 0:
        v += 1
    if v <= 1:
        return v
    cubes = 1
    for a, b, c in reduced_forms(D):
        if 0 < b < a < c and compose((a, b, c), (a, b, c), D) == (a, -b, c):
            cubes += 2
            if cubes == 3**v:
                break
    r3 = 0
    while 3**r3 < cubes:
        r3 += 1
    if cubes == 1 or 3**r3 != cubes:
        raise ArithmeticError(f"3-torsion count {cubes} is not a power of 3 above 1 for D={D}")
    return r3


def fundamental_discriminant(d):
    """Discriminant of Q(sqrt(d)) for square-free d: d if d = 1 mod 4, else 4d."""
    return d if d % 4 == 1 else 4 * d


def class_bound(k):
    """3-rank and unit data for Q(sqrt(k)), k a square-free kernel; the
    3-rank is exact when imaginary, a bound when real.  Nothing is factored.

    Kernel 1 means the rationals (r3 = 0, unit = 0).  Real fields use Scholz
    reflection: r3(Q(sqrt(k))) is at most r3(Q(sqrt(-3k))), computed exactly
    on the imaginary partner.  The units modulo cubes have dimension 1 for
    real fields (the fundamental unit) and for Q(sqrt(-3)) (the sixth roots
    of unity), else 0.
    """
    if k == 0:
        raise DomainError("square class of zero is undefined")
    if k == 1:
        return ClassGroup3(RATIONAL, 0, RATIONAL_TRIVIAL, 0)
    if k < 0:
        r3 = r3_imaginary(fundamental_discriminant(k))
        return ClassGroup3(k, r3, EXACT_IMAGINARY, 1 if k == -3 else 0)
    r3 = r3_imaginary(fundamental_discriminant(class_product(-3, k)))
    return ClassGroup3(k, r3, SCHOLZ_BOUND, 1)


def rank_upper_type1(a, primes):
    """Rank bound for y^2 = x^3 + a through the 3-isogeny to y^2 = x^3 - 27a.

    bound = r3(K_a) + units(K_a) + r3(K_{-27a}) + units(K_{-27a})
          + #S_a + #S_{-27a},
    with K_a = Q(sqrt(-3a)), K_{-27a} = Q(sqrt(a)) and #S_{-27a} = #S_a.
    Class-group terms may be Scholz upper bounds; the sum stays a valid upper
    bound.  Nothing is factored: a's signed kernel k and S_a come from its prime
    powers at `primes` (`families.type1_primes(a)`); -3a's is `class_product(-3, k)`.
    """
    fac = factor_over(a, primes, "a")
    k = signed_kernel(a, fac)
    comp = Type1Bound(class_bound(class_product(-3, k)), class_bound(k), len(s_set(fac)))
    return comp.class_unit_total + 2 * comp.s_a, comp
