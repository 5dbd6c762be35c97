"""Exact integer number-theory kernel.

Factoring (trial division by the primes below 2^10 that a gcd with their
product shows to divide, exact integer roots for perfect powers, and Pollard
rho only for the other composites; primality by Miller-Rabin, which is
deterministic below _MR_BOUND and completed by a strong Lucas test, BPSW,
above), Legendre symbols, and the group of signed square-free classes:
its law `class_product`, the sorted span `class_span` of a basis (the
Selmer classes of descent2, and Q(T) on the primes T of n), and a number's
class `signed_kernel`.  `factor` is the one way into a number's prime
powers, so the distinct-prime count, square-free part, Moebius function and
square-free divisors read it and share its DomainError on zero.

Everything here is pure and exact; the only shared state is an optional
factorization memo keyed by absolute value, which is a cache and nothing more
(results are identical with it disabled).  It is emptied when it reaches
CACHE_BOUND entries, the bound of descent2's `_square_class` and
`_padic_soluble_cached` and of descent3's `r3_imaginary` too.
"""

from math import gcd, isqrt, prod

from .errors import DomainError

# Deterministic Miller-Rabin witness set, valid for all n < _MR_BOUND, the
# least strong pseudoprime to every one of these bases (psi_12, Jiang and
# Deng 2014; it is 399165290221 * 798330580441).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

_TRIAL_LIMIT = 1 << 20

# Entry bound of the factor memo, `_square_class`, `_padic_soluble_cached`
# and `r3_imaginary`; the benchmark commands stay below it (at most 7,553
# factor entries, from `stats normal-order`, and 3,734 class-group ones).
CACHE_BOUND = 1 << 16


def primes_up_to(n):
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(n + 1) if sieve[i]]


# Primes below 2^10; they seed trial division in `_factor_abs`, which divides
# by those that the gcd with their product (about 1,400 bits) shows to divide.
_SMALL_PRIMES = primes_up_to(1 << 10)
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def is_prime(n):
    """Trial division by the bases _MR_BASES, which decides n < 37^2, then
    Miller-Rabin to the same bases, proven below _MR_BOUND; from there on a
    strong Lucas test is added (Baillie-PSW, no known counterexample)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:  # a composite below 37^2 has a prime factor below 37
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def _jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of odd n > 2 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4.  Primes always pass."""
    r = isqrt(n)
    if r * r == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q  # U_1, V_1 and Q^1 for P = 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def iroot(n, k):
    """floor(n^(1/k)) for n >= 0 and k >= 1, by integer Newton iteration."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # above the root, so Newton descends to it
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n):
    """(r, j) with n = r^j for a prime j, or None; n has no prime factor
    below 2^10, so r > 2^10 and only j with 2^(10 j) <= n can occur."""
    for j in _SMALL_PRIMES:
        if n >> (10 * j) == 0:
            return None
        r = iroot(n, j)
        if r**j == n:
            return r, j
    return None


def _pollard_rho(n):
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g, r, q = 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


_factor_cache = {}
_cache_enabled = True


def set_factor_cache(enabled):
    """Enable or disable the shared factorization memo (purely a cache)."""
    global _cache_enabled
    _cache_enabled = bool(enabled)
    if not enabled:
        _factor_cache.clear()


def _small_prime_divisors(n):
    """The primes below 2^10 that divide n, in increasing order."""
    g = gcd(n, _SMALL_PRODUCT)  # square-free, so once p^2 > g, g is 1 or prime
    out = []
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            out.append(p)
            g //= p
    if g > 1:
        out.append(g)
    return out


def _factor_abs(n):
    """Factor n >= 1 into its prime powers ((p, e), ...), p increasing.

    The memo holds that tuple, so a hit returns it as is."""
    if _cache_enabled and n in _factor_cache:
        return _factor_cache[n]
    m = n
    out = {}
    for p in _small_prime_divisors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        out[p] = e
    # m has no prime factor below 2^10, so every divisor of it below 2^20 is
    # prime; larger composites are perfect powers, split by exact roots, or
    # split by rho.  The stack holds (divisor, exponent) pairs.
    stack = [(m, 1)] if m > 1 else []
    while stack:
        k, e = stack.pop()
        if k < _TRIAL_LIMIT or is_prime(k):
            out[k] = out.get(k, 0) + e
            continue
        power = _perfect_power(k)
        if power:
            r, j = power
            stack.append((r, e * j))
            continue
        d = _pollard_rho(k)
        stack.append((d, e))
        stack.append((k // d, e))
    out = tuple(sorted(out.items()))
    if _cache_enabled:
        if len(_factor_cache) >= CACHE_BOUND:
            _factor_cache.clear()
        _factor_cache[n] = out
    return out


def factor(n):
    """Exact deterministic factorization of |n| for nonzero n: the prime powers
    ((p, e), ...) with strictly increasing p; () for n = +-1."""
    if n == 0:
        raise DomainError("cannot factor zero")
    return _factor_abs(abs(n))


def prime_divisors(n):
    """The distinct primes of |n| for nonzero n, increasing."""
    return [p for p, _ in factor(n)]


def omega(n):
    """Number of distinct prime factors of |n|."""
    return len(factor(n))


def squarefree_part(n):
    """s(n): the product of primes dividing |n| to an odd power."""
    return abs(signed_kernel(n, factor(n)))


def squarefree_kernel(n):
    """Signed square-free part: sign(n) * s(n); represents the square class."""
    return (1 if n > 0 else -1) * squarefree_part(n)


def signed_kernel(n, fac):
    """`squarefree_kernel(n)` read from n's prime powers `fac`, with nothing factored."""
    return (1 if n > 0 else -1) * prod(p for p, e in fac if e % 2)


def class_product(d, e):
    """The group law on signed square-free classes: d e with their common primes cancelled."""
    return d * e // gcd(d, e) ** 2


def class_span(basis):
    """The 2^k classes spanned by k square-free classes, sorted by (|d|, d < 0);
    a dependent basis repeats one and raises ArithmeticError."""
    out = [1]
    for s in basis:
        out += [class_product(d, s) for d in out]
    if len(set(out)) < len(out):
        raise ArithmeticError(f"Selmer basis {basis} is dependent")
    return sorted(out, key=lambda d: (abs(d), d < 0))


def is_squarefree(n):
    return n != 0 and all(e == 1 for _, e in factor(n))


def is_square(n):
    """True iff n is a perfect square (of an integer)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def valuation(n, p):
    """nu_p(n) for nonzero n.  nu_2(n) is the index of n's lowest set bit.
    At odd p, factors p are stripped one at a time up to 8, as many as the
    p-adic search mostly sees; past that, nu_p(n) = 2 nu_{p^2}(n) + (0 or 1),
    so nu_p(n) = v takes O(log v) divisions."""
    if n == 0:
        raise DomainError("valuation of zero is undefined")
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
        if v == 8:
            w = valuation(n, p * p)
            return v + 2 * w + (n // p ** (2 * w) % p == 0)
    return v


def mobius(n):
    """Moebius function of |n|."""
    fac = factor(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


def squarefree_divisors(n):
    """Signed square-free divisors of n (all square classes dividing rad(n))."""
    return class_span([-1, *prime_divisors(n)])


def unitary_squarefree_divisors(n):
    """Positive square-free unitary (Hall) divisors of n: products of primes with nu_p(n) = 1."""
    return class_span([p for p, e in factor(n) if e == 1])


def next_prime(n):
    """Least prime strictly greater than n."""
    m = n + 1
    if m <= 2:
        return 2
    if m % 2 == 0:
        m += 1
    while not is_prime(m):
        m += 2
    return m
