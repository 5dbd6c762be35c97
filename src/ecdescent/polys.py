"""Dense integer/rational polynomial helpers.

Coefficient lists are ascending: coeffs[i] is the coefficient of t^i.
Used for division polynomials, discriminant polynomials of the torsion
families, root counting mod p and p^2, and exact rational root finding.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


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


def _poly_gcd_mod(f, g, p):
    """Monic gcd of f, g in F_p[x]; coefficient lists ascending."""
    f = [c % p for c in f]
    g = [c % p for c in g]
    f = normalize(f)
    g = normalize(g)
    while g:
        inv = pow(g[-1], -1, p)
        g_monic = [c * inv % p for c in g]
        # f mod g_monic
        r = list(f)
        while len(r) >= len(g_monic) and r:
            lead = r[-1]
            if lead:
                shift = len(r) - len(g_monic)
                for i, c in enumerate(g_monic):
                    r[shift + i] = (r[shift + i] - lead * c) % p
            r = normalize(r)
            if not r:
                break
        f, g = g_monic, normalize(r)
    return f


def xpow_mod(e, f, p):
    """x^e mod (f, p) in F_p[x] by square-and-multiply, for e >= 0.

    The leading coefficient of f must be a unit mod p.  The result is
    normalized, with coefficients in [0, p) and degree below deg(f).
    """
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f]
    d = len(monic) - 1

    def mulmod(u, v):
        w = [0] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    w[i + j] = (w[i + j] + ui * vj) % p
        for i in range(len(w) - 1, d - 1, -1):
            c = w[i]
            if c:
                shift = i - d
                for j in range(d + 1):
                    w[shift + j] = (w[shift + j] - c * monic[j]) % p
        return normalize(w[:d])

    out = [1]
    base = [0, 1]
    while e:
        if e & 1:
            out = mulmod(out, base)
        base = mulmod(base, base)
        e >>= 1
    return out


def _squarefree_good_prime(f, max_failures=200):
    """A prime p with lead(f) a unit and f squarefree mod p.

    For squarefree f such a prime always exists (any p not dividing the
    discriminant works); with max_failures=None the search is unbounded.
    """
    from .arith import next_prime

    fp = derivative(f)
    failures = 0
    p = 3
    while True:
        if f[-1] % p != 0:
            if len(_poly_gcd_mod(f, fp, p)) == 1:
                return p
            failures += 1
            if max_failures is not None and failures >= max_failures:
                return None
        p = next_prime(p)


def _rational_gcd(f, g):
    """gcd over Q, returned as a primitive integer polynomial."""
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    a = normalize(a)
    b = normalize(b)
    while b:
        lead = b[-1]
        bm = [c / lead for c in b]
        r = list(a)
        while r and len(r) >= len(bm):
            c = r[-1]
            shift = len(r) - len(bm)
            for i, q in enumerate(bm):
                r[shift + i] = r[shift + i] - c * q
            r = normalize(r)
        a, b = bm, r
    den = lcm(*(c.denominator for c in a))
    return primitive([int(c * den) for c in a])


def squarefree_part_poly(f):
    """f divided by gcd(f, f'), as a primitive integer polynomial."""
    f = primitive(f)
    g = _rational_gcd(f, derivative(f))
    if degree(g) <= 0:
        return f
    # exact division over Q
    num = [Fraction(c) for c in f]
    den = [Fraction(c) for c in g]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    r = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = r[len(den) - 1 + i] / den[-1]
        out[i] = c
        for j, q in enumerate(den):
            r[i + j] -= c * q
    d = lcm(*(c.denominator for c in out))
    return primitive([int(c * d) for c in out])


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
    p = _squarefree_good_prime(f)
    if p is None:
        # f has a repeated factor; its squarefree part has the same root set
        f = squarefree_part_poly(f)
        p = _squarefree_good_prime(f, max_failures=None)
    lead = f[-1]
    # integer roots of F(y) = lead^(deg-1) f(y/lead) are lead * (rational roots of f)
    d = len(f) - 1
    big = [f[i] * lead ** (d - 1 - i) if i < d else 1 for i in range(d + 1)]
    bound = 2 * (1 + max(abs(c) for c in big))
    fp = derivative(big)
    base_roots = [r for r in range(p) if evaluate_mod(big, r, p) == 0]
    modulus = p
    lifted = list(base_roots)
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
    """Res(f, g) over Z, as the Sylvester determinant (exact)."""
    f = normalize(f)
    g = normalize(g)
    if not f or not g:
        return 0
    m, n = len(f) - 1, len(g) - 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    # fraction-free Bareiss elimination
    mat = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, size):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]
