"""Counting and statistics harness.

Exact lattice counts for the torsion-family regions, the lattice-volume
constant from the roots of x^3 +- x - 1, log-log slope estimation, root
counts mod p and p^2, normal-order experiments for the number of prime
factors of square-free parts of polynomial values, averaged Frobenius
traces over family fibers, and the local-insolubility certificate density.
"""

from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, log

from . import curves, descent2, families, polys
from .arith import factor, is_square, legendre, prime_divisors, primes_up_to
from .errors import DomainError


NormalOrderSample = namedtuple("NormalOrderSample", "X mean variance sample_count")
VolumeConstant = namedtuple("VolumeConstant", "alpha_plus alpha_minus value")


def count_r2(X):
    """Exact number of integer pairs with |a| < X^2 and |b^3 + ab| < X^3.

    b and -b give the same |value|, and b = 0 always counts.  For b > 0,
    b^3 + ab >= -(2/3^(3/2)) |a|^(3/2) > -X^3, so only b^3 + ab < X^3 binds.
    That cubic is convex on b > 0 and 0 at b = 0, so each row is
    b = 1..bmax(a), and bmax(a) does not increase with a: one b sweeps down
    across every row.
    """
    if X < 1:
        raise DomainError("X must be >= 1")
    cube = X**3
    total = 0
    b = 2 * X + 2  # past bmax(1 - X^2)
    for a in range(-(X * X) + 1, X * X):
        while b * (b * b + a) >= cube:
            b -= 1
        total += 2 * b + 1
    return total


def count_r3(X):
    """Exact number of integer pairs with |6ab + 27a^4| < X^2 and |b^2 - 27a^6| < X^3."""
    if X < 1:
        raise DomainError("X must be >= 1")
    sq, cube = X * X, X**3
    total = 2 * isqrt(cube - 1) + 1  # a = 0 row: b^2 < X^3
    amax = families.e3_a_bound(X)
    for a in range(-amax, amax + 1):
        if a == 0:
            continue
        # strict linear window: lo_num < 6a*b < hi_num
        lo_num, hi_num = -sq - 27 * a**4, sq - 27 * a**4
        den = 6 * a
        if den < 0:
            lo_num, hi_num, den = -hi_num, -lo_num, -den
        blo = lo_num // den + 1  # least integer strictly above lo_num/den
        bhi = -((-hi_num) // den) - 1  # greatest integer strictly below hi_num/den
        if blo > bhi:
            continue
        # strict quadratic window: 27a^6 - X^3 < b^2 < 27a^6 + X^3
        low2 = 27 * a**6 - cube
        r_hi = isqrt(27 * a**6 + cube - 1)
        if low2 >= 0:
            r_lo = isqrt(low2) + 1
            intervals = ((-r_hi, -r_lo), (r_lo, r_hi))
        else:
            intervals = ((-r_hi, r_hi),)
        for lo, hi in intervals:
            lo2, hi2 = max(lo, blo), min(hi, bhi)
            if lo2 <= hi2:
                total += hi2 - lo2 + 1
    return total


def _decimal_root(c1, precision):
    """Unique real root of x^3 + c1*x - 1 by Newton iteration, certified by sign.

    Runs in the current decimal context, which needs precision + 15 digits.
    """
    x = Decimal(1)
    for _ in range(200):
        fx = x**3 + c1 * x - 1
        dfx = 3 * x * x + c1
        step = fx / dfx
        x -= step
        if abs(step) < Decimal(10) ** (-(precision + 5)):
            break
    eps = Decimal(10) ** (-precision)
    f = lambda t: t**3 + c1 * t - 1
    if f(x - eps) * f(x + eps) >= 0:
        raise ArithmeticError("root not certified within interval")
    return x


def volume_constant(precision):
    """Vol of the ambient 2-torsion region at X = 1.

    2 log(alpha_minus / alpha_plus) + (4/3)(alpha_plus + alpha_minus), where
    alpha_plus, alpha_minus are the real roots of x^3 + x - 1 and x^3 - x - 1.
    """
    if precision < 10:
        raise DomainError("precision must be >= 10")
    with localcontext() as ctx:
        ctx.prec = precision + 15
        a_plus = _decimal_root(Decimal(1), precision)
        a_minus = _decimal_root(Decimal(-1), precision)
        value = 2 * (a_minus / a_plus).ln() + Decimal(4) / Decimal(3) * (a_plus + a_minus)
        q = Decimal(10) ** (-precision)
        return VolumeConstant(a_plus.quantize(q), a_minus.quantize(q), value.quantize(q))


def slope(pts):
    """Least-squares slope of log(count) against log(X) over ((X, count), ...)."""
    if len(pts) < 3:
        raise DomainError("need at least 3 points")
    if any(c <= 0 for _, c in pts):
        raise DomainError("counts must be positive for a log-log fit")
    xs = [log(x) for x, _ in pts]
    ys = [log(c) for _, c in pts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise DomainError("degenerate series: all X equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def count_family(ell, X):
    """Number of distinct minimal curves of height <= X in the 5- or 7-torsion family."""
    return len(families.tate_curves(ell, X))


def family_series(ell, heights):
    """((X, count), ...) over the given heights: region counts for ell = 2 and
    3, distinct minimal fibers for ell in {5, 7}."""
    if ell == 2:
        return tuple((X, count_r2(X)) for X in heights)
    if ell == 3:
        return tuple((X, count_r3(X)) for X in heights)
    return tuple((X, count_family(ell, X)) for X in heights)


def _distinct_roots_gcd(f, p):
    """Number of distinct roots of f mod p as deg gcd(x^p - x, f), or None
    when the reduction degenerates (f vanishes or drops below degree 1)."""
    red = polys.normalize([c % p for c in f])
    if len(red) < 2:
        return None
    frob = polys.sub(polys.xpow_mod(p, red, p), [0, 1])
    return len(polys.gcd_mod(red, frob, p)) - 1


def roots_mod(f, p, square):
    """rho_f(p), or rho_f(p^2) with square=True.

    Mod p^2 counts lifts of mod-p roots through the exact expansion
    f(r1 + p r2) = f(r1) + p r2 f'(r1) (mod p^2).  Root counts mod p are the
    degree of gcd(x^p - x, f), and exhaustive evaluation only where the
    reduction degenerates; when f is squarefree mod p every root is simple,
    so the distinct-root count already equals rho_f(p^2).
    """
    f = polys.normalize(f)
    if not f:
        raise DomainError("zero polynomial")
    fp = polys.derivative(f)
    count = _distinct_roots_gcd(f, p)
    if count is not None and (not square or len(polys.gcd_mod(f, fp, p)) == 1):
        return count  # with square, all roots simple: unique lifts
    if not square:
        return len(polys.roots_mod_p(f, p))
    p2 = p * p
    count = 0
    for r1 in polys.roots_mod_p(f, p):
        fr = polys.evaluate_mod(f, r1, p2)
        dr = polys.evaluate_mod(fp, r1, p)
        if dr != 0:
            count += 1
        elif fr == 0:
            count += p
    return count


def _splits_by_resolvent(f):
    """Whether a primitive quartic with no rational root splits into two quadratics.

    g(y) = c4^3 f(y/c4) = y^4 + a y^3 + b y^2 + c y + d is monic over Z, so by
    Gauss's lemma any splitting is (y^2 + p y + q)(y^2 + r y + s) over Z, and
    theta = q + s is an integer root of Ferrari's resolvent cubic
    theta^3 - b theta^2 + (ac - 4d) theta - (a^2 d - 4bd + c^2).  Each root
    fixes {q, s} and {p, r} as the roots of two quadratics; both pairings are
    checked by exact multiplication.  No coefficient is factored.
    """
    c0, c1, c2, c3, c4 = f
    a, b, c, d = c3, c2 * c4, c1 * c4**2, c0 * c4**3
    g = [d, c, b, a, 1]
    for theta in polys.rational_roots([4 * b * d - a * a * d - c * c, a * c - 4 * d, -b, 1]):
        theta = int(theta)  # a rational root of a monic integer cubic
        disc_qs, disc_pr = theta * theta - 4 * d, a * a - 4 * b + 4 * theta
        if not (is_square(disc_qs) and is_square(disc_pr)):
            continue
        q, s = (theta + isqrt(disc_qs)) // 2, (theta - isqrt(disc_qs)) // 2
        p, r = (a + isqrt(disc_pr)) // 2, (a - isqrt(disc_pr)) // 2
        if g in (polys.mul([q, p, 1], [s, r, 1]), polys.mul([s, p, 1], [q, r, 1])):
            return True
    return False


def is_irreducible(f):
    """Irreducibility over Q for a nonconstant integer polynomial.

    Degree <= 3 reduces to the absence of rational roots; degree 4 also
    excludes quadratic-times-quadratic splittings; higher degrees accept a
    mod-p irreducibility witness and otherwise refuse to certify.
    """
    f = polys.primitive(f)
    d = polys.degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if polys.rational_roots(f):
        return False
    if d <= 3:
        return True
    if d == 4:
        return not _splits_by_resolvent(f)
    for p in primes_up_to(1000):
        if f[-1] % p == 0:
            continue
        if _irreducible_mod_p(f, p):
            return True
    raise DomainError("cannot certify irreducibility at this degree")


def _irreducible_mod_p(f, p):
    """Distinct-degree test: f irreducible mod p iff x^(p^d) = x mod f and
    gcd(x^(p^(d/q)) - x, f) = 1 for prime q | d (needs d >= 2)."""
    d = polys.degree(f)
    if polys.xpow_mod(p**d, f, p) != [0, 1]:
        return False
    for q, _ in factor(d):
        diff = polys.sub(polys.xpow_mod(p ** (d // q), f, p), [0, 1])
        if len(polys.gcd_mod(f, diff, p)) != 1:
            return False
    return True


def normal_order_experiment(f, heights, S):
    """One NormalOrderSample per X of `heights`, in their order: the mean and
    variance of omega_S(s(f(r))) over reduced rationals a/b with |a|, b <= X.

    f(a/b) is cleared to the integer b^deg(f) f(a/b); omega_S counts the
    distinct primes of its square-free part outside S.  One pass over the
    largest window counts each pair toward every X >= max(|a|, b).  Requires
    X >= 10 and f irreducible (zero values would otherwise swamp the sample).
    """
    f = polys.primitive(f)
    if min(heights) < 10:
        raise DomainError("X must be >= 10")
    if not is_irreducible(f):
        raise DomainError("f must be irreducible over Q")
    excluded = set(S)
    top = max(heights)
    count, total, total_sq = ([0] * (top + 1) for _ in range(3))
    for b in range(1, top + 1):
        for a in range(-top, top + 1):
            if gcd(a, b) != 1:
                continue
            value = polys.homogeneous_value(f, a, b)
            if value == 0:
                continue
            om = sum(1 for pr, e in factor(value)
                     if e % 2 == 1 and pr not in excluded)
            h = max(abs(a), b)
            count[h] += 1
            total[h] += om
            total_sq[h] += om * om
    count, total, total_sq = (list(accumulate(sums)) for sums in (count, total, total_sq))
    samples = []
    for X in heights:
        mean = Fraction(total[X], count[X])
        variance = Fraction(total_sq[X], count[X]) - mean * mean
        samples.append(NormalOrderSample(X, mean, variance, count[X]))
    return samples


def average_trace(A_coeffs, B_coeffs, p):
    """(1/p) sum over r in F_p of the trace sum for y^2 = x^3 + A(r)x + B(r).

    Fibers with vanishing discriminant contribute through the same Legendre
    sum, which lands on the conventions +1 (split multiplicative), -1
    (nonsplit), 0 (additive).
    """
    chi = curves.legendre_table(p)
    total = 0
    for r in range(p):
        A = polys.evaluate_mod(A_coeffs, r, p)
        B = polys.evaluate_mod(B_coeffs, r, p)
        total += curves.trace_from_coefficients(A, B, p, chi)
    return Fraction(total, p)


def _family_polys(family):
    """(A(t), B(t)) of one torsion family y^2 = x^3 + A(t)x + B(t): e5, e7 or e3poly."""
    if family == "e3poly":
        return families.e3_polynomials()[:2]
    if family in ("e5", "e7"):
        return families.tate_short_polys(int(family[1]))
    raise DomainError(f"unknown family {family!r}")


def avg_frobenius(family, p):
    """Averaged Frobenius trace over the fibers of one torsion family at p > 3."""
    if p <= 3:
        raise DomainError("need p > 3")
    return average_trace(*_family_polys(family), p)


def family_trace_bound(family):
    """3 deg(Delta) + deg(A) - 2 for the family, the uniform bound on |A_p|;
    Delta = 4A^3 + 27B^2 is the fibers' discriminant up to a constant."""
    A, B = _family_polys(family)
    delta = polys.add(polys.scale(polys.power(A, 3), 4), polys.scale(polys.mul(B, B), 27))
    return 3 * polys.degree(delta) + polys.degree(A) - 2


def certificate_density(X):
    """(certified, total) over the coprime pairs of `families.e2_window(X)`.

    total counts those whose 2-torsion is Z/2 (a^2 - 4b not a square);
    certified counts those admitting a local insolubility certificate, which
    forces rank <= omega(N) - 2 through the descent bound.  See
    `has_insolubility_certificate`.
    """
    if X < 2:
        raise DomainError("X must be >= 2")
    certified = 0
    total = 0
    for param in families.e2_window(X):
        a, b = param
        if gcd(a, b) != 1 or param.two_torsion != curves.Z2:
            continue
        total += 1
        if has_insolubility_certificate(a, b):
            certified += 1
    return certified, total


def has_insolubility_certificate(a, b):
    """Local certificate killing one F_2-dimension of a Selmer group.

    A prime p | b at which `descent2.nonresidues_insoluble(a, b, p)` holds
    makes every class d with (d/p) = -1 locally insoluble on the phi side;
    the certificate also needs a finite prime q | a^2 - 4b with (q/p) = -1
    so that the killed character is nontrivial away from the sign class.
    The same certificate on the dual pair (-2a, a^2 - 4b), with q | b, kills
    on the phi-hat side.  Combined with the either-or collapse of one sign
    class, either variant gives rank <= omega(N) - 2 for coprime pairs.
    A singular pair raises `SingularCurve`.
    """
    dual = families.E2Param(a, b).dual
    pb, pm = prime_divisors(b), prime_divisors(dual.b)  # each side reads both
    return any(descent2.nonresidues_insoluble(x, y, p) and any(legendre(q, p) == -1 for q in qs)
               for x, y, ps, qs in ((a, b, pb, pm), (dual.a, dual.b, pm, pb))
               for p in ps if p > 3 and x % p)
