"""Exact integer and rational number-theory kernel.

Factorization (trial division + Pollard rho with deterministic Miller-Rabin),
distinct-prime counts, square-free parts, Legendre symbols, the Moebius
function, and signed square-free divisor class groups Q(T).

Everything here is pure and exact; the only shared state is an optional
factorization memo keyed by absolute value, which is a cache and nothing more
(results are identical with it disabled).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import DomainError

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1 << 20


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


# Primes below 2^10; they seed trial division in `_factor_abs`.
_SMALL_PRIMES = primes_up_to(1 << 10)


def is_prime(n):
    """Deterministic Miller-Rabin primality test (valid far beyond desk scale)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
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
    return True


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


@dataclass(frozen=True)
class Factorization:
    """Signed factorization: sign * prod(p^e) with strictly increasing primes."""

    sign: int
    factors: tuple  # ((prime, exponent), ...)

    def value(self):
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self):
        return [p for p, _ in self.factors]


_factor_cache = {}
_cache_enabled = True


def set_factor_cache(enabled):
    """Enable or disable the shared factorization memo (purely a cache)."""
    global _cache_enabled
    _cache_enabled = bool(enabled)
    if not enabled:
        _factor_cache.clear()


def _factor_abs(n):
    """Factor n >= 1 into a dict {prime: exponent}."""
    if _cache_enabled and n in _factor_cache:
        return _factor_cache[n]
    m = n
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        # m has no prime factor below 2^10, so below 2^20 it must be prime;
        # larger cofactors are split by rho with Miller-Rabin leaves.
        if m < _TRIAL_LIMIT or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                k = stack.pop()
                if is_prime(k):
                    out[k] = out.get(k, 0) + 1
                    continue
                d = _pollard_rho(k)
                stack.append(d)
                stack.append(k // d)
    if _cache_enabled:
        _factor_cache[n] = out
    return out


def factor(n):
    """Exact deterministic factorization of a nonzero integer."""
    if n == 0:
        raise DomainError("cannot factor zero")
    sign = 1 if n > 0 else -1
    fac = _factor_abs(abs(n))
    return Factorization(sign, tuple(sorted(fac.items())))


def omega(n):
    """Number of distinct prime factors of |n|."""
    if n == 0:
        raise DomainError("omega(0) is undefined")
    return len(_factor_abs(abs(n)))


def squarefree_part(n):
    """s(n): the product of primes dividing |n| to an odd power."""
    if n == 0:
        raise DomainError("squarefree part of zero is undefined")
    s = 1
    for p, e in _factor_abs(abs(n)).items():
        if e % 2 == 1:
            s *= p
    return s


def squarefree_kernel(n):
    """Signed square-free part: sign(n) * s(n); represents the square class."""
    if n == 0:
        raise DomainError("square class of zero is undefined")
    return (1 if n > 0 else -1) * squarefree_part(n)


def is_squarefree(n):
    if n == 0:
        return False
    return all(e == 1 for e in _factor_abs(abs(n)).values())


def is_square(n):
    """True iff n is a perfect square (of an integer)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def valuation(n, p):
    """nu_p(n) for nonzero n."""
    if n == 0:
        raise DomainError("valuation of zero is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def mobius(n):
    """Moebius function of |n|."""
    if n == 0:
        raise DomainError("mobius(0) is undefined")
    fac = _factor_abs(abs(n))
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def rational_stats(r):
    """(omega, squarefree part, denominator omega) of a nonzero rational.

    omega(a/b) = omega(a) + omega(b) and s(a/b) = s(a*b), taken in lowest
    terms; the third component is omega of the reduced denominator.
    """
    r = Fraction(r)
    if r == 0:
        raise DomainError("rational_stats(0) is undefined")
    num, den = r.numerator, r.denominator
    om_num = 0 if abs(num) == 1 else omega(num)
    om_den = 0 if den == 1 else omega(den)
    return om_num + om_den, squarefree_part(num * den), om_den


def rational_height(r):
    """h(a/b) = max(|a|, b) for a/b in lowest terms."""
    r = Fraction(r)
    return max(abs(r.numerator), r.denominator)


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else 1


@dataclass(frozen=True)
class DivisorClassGroup:
    """Q(T): square classes supported on a prime set T, optionally with the sign class."""

    support: tuple
    includes_infinity: bool
    representatives: tuple


def q_t_representatives(support, includes_infinity):
    """One signed square-free representative per class of Q(T).

    Cardinality is 2^(|T| + 1) with the infinite place, 2^|T| without; negative
    representatives appear only when the infinite place is included.
    """
    primes = sorted(set(support))
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
    reps = [1]
    for p in primes:
        reps += [r * p for r in reps]
    if includes_infinity:
        reps += [-r for r in reps]
    reps.sort(key=lambda d: (abs(d), d < 0))
    return DivisorClassGroup(tuple(primes), includes_infinity, tuple(reps))


def squarefree_divisors(n, signed=True):
    """Signed square-free divisors of n (all square classes dividing rad(n))."""
    if n == 0:
        raise DomainError("divisors of zero are undefined")
    reps = [1]
    for p in _factor_abs(abs(n)):
        reps += [r * p for r in reps]
    if signed:
        reps += [-r for r in reps]
    reps.sort(key=lambda d: (abs(d), d < 0))
    return reps


def unitary_squarefree_divisors(n):
    """Positive square-free unitary (Hall) divisors of n: products of primes with nu_p(n) = 1."""
    if n == 0:
        raise DomainError("divisors of zero are undefined")
    reps = [1]
    for p, e in _factor_abs(abs(n)).items():
        if e == 1:
            reps += [r * p for r in reps]
    return sorted(reps)


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
