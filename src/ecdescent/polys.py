"""Dense integer/rational polynomial helpers.

Coefficient lists are ascending: coeffs[i] is the coefficient of t^i.
Used for division polynomials, discriminant polynomials of the torsion
families, root counting mod p and p^2, and exact rational root finding.
"""

from fractions import Fraction
from math import gcd, lcm

from .arith import next_prime
from .errors import DomainError

# The least prime above 2^61.  f squarefree mod a prime that keeps its degree
# proves f squarefree over Q; one this large rarely divides lead(f) disc(f).
_SQUAREFREE_TEST_PRIME = 2**61 + 15


def normalize(coeffs):
    """Strip trailing zero coefficients; the zero polynomial becomes []."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def degree(coeffs):
    coeffs = normalize(coeffs)
    return len(coeffs) - 1 if coeffs else -1


def add(f, g):
    n = max(len(f), len(g))
    return normalize([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def sub(f, g):
    n = max(len(f), len(g))
    return normalize([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def scale(f, c):
    return normalize([c * a for a in f])


def power(f, e):
    out = [1]
    for _ in range(e):
        out = mul(out, f)
    return out


def evaluate(f, x):
    """Horner evaluation; exact for int or Fraction arguments."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def evaluate_mod(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def derivative(f):
    return normalize([i * f[i] for i in range(1, len(f))])


def content(f):
    """gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in f:
        g = gcd(g, abs(c))
    return g


def primitive(f):
    f = normalize(f)
    c = content(f)
    return [a // c for a in f] if c > 1 else list(f)


def homogeneous_value(f, a, b):
    """b^deg(f) * f(a/b) as an exact integer, for integers a, b with b != 0."""
    f = normalize(f)
    if not f:
        return 0
    d = len(f) - 1
    acc = 0
    for i, c in enumerate(f):
        acc += c * a**i * b ** (d - i)
    return acc


def _rem_mod(f, g, p):
    """f mod g in F_p[x] for monic g, with coefficients in [0, p)."""
    r = [c % p for c in f]
    d = len(g) - 1
    for i in range(len(r) - d - 1, -1, -1):
        c = r.pop()  # the coefficient of x^(i + d), cleared by subtracting c x^i g
        if c:
            for j in range(d):
                r[i + j] = (r[i + j] - c * g[j]) % p
    return normalize(r)


def gcd_mod(f, g, p):
    """gcd of f, g in F_p[x], monic unless g vanishes mod p."""
    f = normalize([c % p for c in f])
    g = normalize([c % p for c in g])
    while g:
        inv = pow(g[-1], -1, p)
        g = [c * inv % p for c in g]
        f, g = g, _rem_mod(f, g, p)
    return f


def xpow_mod(e, f, p):
    """x^e mod (f, p) in F_p[x] by square-and-multiply, for e >= 0.

    The leading coefficient of f must be a unit mod p.  The result is
    normalized, with coefficients in [0, p) and degree below deg(f).
    """
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f]
    out = [1]
    base = [0, 1]
    while e:
        if e & 1:
            out = _rem_mod(mul(out, base), monic, p)
        base = _rem_mod(mul(base, base), monic, p)
        e >>= 1
    return out


def _squarefree_mod(f, p):
    """Whether lead(f) is a unit mod p and f is squarefree mod p."""
    return f[-1] % p != 0 and len(gcd_mod(f, derivative(f), p)) == 1


def _divmod_q(f, g):
    """(q, r) with f = q g + r and deg r < deg g over Q, for nonzero g."""
    r = [Fraction(c) for c in normalize(f)]
    g = normalize(g)
    d = len(g) - 1
    q = [Fraction(0)] * max(len(r) - d, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d] / g[-1]
        for j in range(d):
            r[i + j] -= c * g[j]
    return normalize(q), normalize(r[:d])


def _integral(f):
    """The primitive integer polynomial that is a positive multiple of f over Q."""
    den = lcm(*(c.denominator for c in f))
    return primitive([int(c * den) for c in f])


def _rational_gcd(f, g):
    """gcd over Q, returned as a primitive integer polynomial."""
    f, g = normalize(f), normalize(g)
    while g:
        g = [Fraction(c) / g[-1] for c in g]
        f, g = g, _divmod_q(f, g)[1]
    return _integral(f)


def squarefree_part_poly(f):
    """f divided by gcd(f, f'), as a primitive integer polynomial."""
    f = primitive(f)
    g = _rational_gcd(f, derivative(f))
    if degree(g) <= 0:
        return f
    return _integral(_divmod_q(f, g)[0])


def rational_roots(coeffs):
    """All rational roots of an integer polynomial, exactly, without factoring.

    Roots are recovered by Hensel lifting the roots modulo a prime at which
    the (squarefree part of the) polynomial stays squarefree, then checking
    the centered lift exactly. Returns sorted distinct Fractions.
    """
    f = normalize(coeffs)
    if not f:
        raise DomainError("zero polynomial has every root")
    roots = set()
    # pull out t = 0
    shift = 0
    while f[0] == 0:
        shift += 1
        f = f[1:]
    if shift:
        roots.add(Fraction(0))
    if len(f) == 1:
        return sorted(roots)
    f = primitive(f)
    if len(f) == 2:
        roots.add(Fraction(-f[0], f[1]))
        return sorted(roots)
    if not _squarefree_mod(f, _SQUAREFREE_TEST_PRIME):
        # f may have a repeated factor; its squarefree part has the same roots
        f = squarefree_part_poly(f)
    # f is squarefree now, so every p not dividing lead(f) disc(f) will do
    p = 3
    while not _squarefree_mod(f, p):
        p = next_prime(p)
    lead = f[-1]
    # integer roots of F(y) = lead^(deg-1) f(y/lead) are lead * (rational roots of f)
    d = len(f) - 1
    big = [f[i] * lead ** (d - 1 - i) if i < d else 1 for i in range(d + 1)]
    bound = 2 * (1 + max(abs(c) for c in big))
    fp = derivative(big)
    modulus = p
    lifted = roots_mod_p(big, p)
    while modulus < bound:
        modulus = modulus * modulus
        new = []
        for r in lifted:
            fr = evaluate_mod(big, r, modulus)
            dr = evaluate_mod(fp, r, modulus)
            inv = pow(dr, -1, modulus)
            new.append((r - fr * inv) % modulus)
        lifted = new
    for r in lifted:
        cand = r if r <= modulus // 2 else r - modulus
        if evaluate(big, cand) == 0:
            roots.add(Fraction(cand, lead))
    return sorted(roots)


def roots_mod_p(f, p):
    """Roots of f in Z/pZ by exhaustive evaluation."""
    return [r for r in range(p) if evaluate_mod(f, r, p) == 0]


def resultant(f, g):
    """Res(f, g) over Z, exactly, by the Euclidean recurrence over Q.

    With m = deg f, n = deg g and r = f mod g,
    Res(f, g) = (-1)^(mn) lc(g)^(m - deg r) Res(g, r); a zero remainder
    gives 0, and Res(f, c) = c^m for a constant c.
    """
    f, g = normalize(f), normalize(g)
    if not f or not g:
        return 0
    res = Fraction(1)
    while len(g) > 1:
        r = _divmod_q(f, g)[1]
        if not r:
            return 0
        m, n = len(f) - 1, len(g) - 1
        res *= (-1) ** (m * n) * Fraction(g[-1]) ** (m - len(r) + 1)
        f, g = g, r
    return int(res * Fraction(g[0]) ** (len(f) - 1))
