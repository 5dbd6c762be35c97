import random
from math import prod

import pytest

from ecdescent import arith
from ecdescent.errors import DomainError


def trial_division(n):
    """Independent factorization oracle: plain trial division."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def reference_factor_abs(n):
    """The trial-division and rho loop that `_factor_abs` replaced: every
    prime below 2^10 is tried, and every composite cofactor goes to rho."""
    m = n
    out = {}
    for p in arith._SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < arith._TRIAL_LIMIT or arith.is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            stack = [m]
            while stack:
                k = stack.pop()
                if arith.is_prime(k):
                    out[k] = out.get(k, 0) + 1
                    continue
                d = arith._pollard_rho(k)
                stack.append(d)
                stack.append(k // d)
    return tuple(sorted(out.items()))


@pytest.fixture
def memo_off():
    arith.set_factor_cache(False)
    yield
    arith.set_factor_cache(True)


def test_factor_examples():
    assert arith.factor(12) == ((2, 2), (3, 1))
    assert arith.factor(-12) == ((2, 2), (3, 1))
    assert arith.factor(-1) == ()
    assert arith.factor(1) == ()
    assert arith.factor(10403) == ((101, 1), (103, 1))


def test_factor_zero_rejected():
    with pytest.raises(DomainError):
        arith.factor(0)
    with pytest.raises(DomainError):
        arith.omega(0)
    with pytest.raises(DomainError):
        arith.squarefree_part(0)
    with pytest.raises(DomainError):
        arith.mobius(0)


def test_factor_over_reads_the_given_primes(monkeypatch):
    """`factor_over(n, primes)` is `factor(n)` for any set of primes holding
    those of n, factors nothing, and raises on every prime left out."""
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    rng = random.Random(30)
    extra = {2, 3, 5, 7, 11, 13, 97, 1009}
    for n in [1, -1, 2**40, -(3**5) * 7, 2 * 1009**3, *(rng.randrange(-10**6, 10**6) or 1
                                                     for _ in range(300))]:
        fac = trial_division(n)
        primes = {p for p, _ in fac}
        calls.clear()
        assert arith.factor_over(n, primes, "n") == fac, n
        assert arith.factor_over(n, sorted(primes | extra), "n") == fac, n
        assert calls == []
        for p in primes:
            with pytest.raises(ArithmeticError, match=rf"^n {n} has a prime outside "):
                arith.factor_over(n, (primes | extra) - {p}, "n")
    with pytest.raises(DomainError):
        arith.factor_over(0, {2}, "n")


def test_factor_round_trip_small_range():
    for n in range(1, 2500):
        for s in (n, -n):
            assert prod(p**e for p, e in arith.factor(s)) == n


def test_factor_round_trip_random_large():
    rng = random.Random(20240814)
    for _ in range(60):
        n = rng.randrange(10**9, 10**13)
        f = arith.factor(n)
        assert prod(p**e for p, e in f) == n
        assert f == trial_division(n)
        assert all(arith.is_prime(p) for p, _ in f)


def test_factor_against_reference_loop(memo_off):
    # The twist discriminants D^3 and -432 D^6, then random values and prime
    # powers times cofactors.
    rng = random.Random(8)
    cases = [D**3 for D in range(1, 400)] + [432 * D**6 for D in range(1, 400)]
    cases += [rng.randrange(1, 10**15) for _ in range(300)]
    cases += [arith.next_prime(rng.randrange(1, 10**5)) ** rng.randrange(1, 8)
              * rng.randrange(1, 10**4) for _ in range(300)]
    for n in cases:
        assert arith.factor(n) == reference_factor_abs(n), n


def _powers(rng, lo, hi, count):
    return [arith.next_prime(rng.randrange(lo, hi)) ** rng.randrange(1, 8) for _ in range(count)]


def test_factor_prime_powers_against_sympy(memo_off):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    small = _powers(rng, 2**10, 2**20, 60)
    large = _powers(rng, 2**20, 2**24, 60)
    cases = small + large
    cases += [a * b for a, b in zip(small, reversed(large))]
    cases += [a * b for a, b in zip(small[:30], small[30:])]
    cases += [a * b for a, b in zip(large[:30], large[30:])]
    cases += [2 ** rng.randrange(0, 40) * 3 ** rng.randrange(0, 25) * q for q in small + large]
    for n in cases:
        assert dict(arith.factor(n)) == sympy.factorint(n), n
        assert dict(arith.factor(-n)) == sympy.factorint(n), n


def test_perfect_powers_split_without_rho(memo_off, monkeypatch):
    def no_rho(n):
        raise AssertionError(f"rho called on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", no_rho)
    mersenne = 2**61 - 1
    assert arith.factor(1031**3) == ((1031, 3),)
    assert arith.factor(-432 * 4999**6) == ((2, 4), (3, 3), (4999, 6))
    assert arith.factor(mersenne**2) == ((mersenne, 2),)
    assert arith.factor(6 * 1031**5) == ((2, 1), (3, 1), (1031, 5))


def test_iroot_exact():
    rng = random.Random(200)
    for k in (2, 3, 5, 7):
        for _ in range(20):
            r = rng.getrandbits(200) | (1 << 199)
            assert arith.iroot(r**k, k) == r
            assert arith.iroot(r**k - 1, k) == r - 1
    assert [arith.iroot(n, 3) for n in range(10)] == [0, 1, 1, 1, 1, 1, 1, 1, 2, 2]


def test_factor_semiprime():
    p, q = 1000003, 1000033
    assert arith.factor(p * q) == ((p, 1), (q, 1))


def test_omega():
    assert arith.omega(12) == 2
    assert arith.omega(1) == 0
    assert arith.omega(-1) == 0
    assert arith.omega(-90) == 3  # 2 * 3^2 * 5


def test_omega_multiplicativity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 40000)
        m = rng.randrange(1, 40000)
        assert arith.omega(n * m) <= arith.omega(n) + arith.omega(m)
        from math import gcd
        if gcd(n, m) == 1:
            assert arith.omega(n * m) == arith.omega(n) + arith.omega(m)


def test_squarefree_part():
    assert arith.squarefree_part(12) == 3
    assert arith.squarefree_part(49) == 1
    assert arith.squarefree_part(360) == 10
    assert arith.squarefree_part(-360) == 10


def test_squarefree_part_square_invariance():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 5000) * rng.choice((1, -1))
        m = rng.randrange(1, 60)
        assert arith.squarefree_part(n * m * m) == arith.squarefree_part(n)


def test_signed_kernel_and_class_product_match_squarefree_kernel():
    """On every pair of signed square-free |d|, |e| <= 60: the kernel of d e
    read from its prime powers, and the class product of d and e."""
    classes = [s * d for d in range(1, 61) if arith.is_squarefree(d) for s in (1, -1)]
    for d in classes:
        for e in classes:
            kernel = arith.squarefree_kernel(d * e)
            assert arith.signed_kernel(d * e, arith.factor(d * e)) == kernel, (d, e)
            assert arith.class_product(d, e) == kernel, (d, e)


def naive_valuation(n, p):
    """nu_p(n) by stripping one factor p at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_valuation_against_naive_loop():
    """Signed n = m p^v, v up to 3,000: around v = 8, 24, 56 and 248, where
    the search moves on from p to p^2, p^4 and p^32, and seeded at random."""
    rng = random.Random(2024)
    checked = 0
    for p in (2, 3, 5, 7, 101, 65537, 1000003):
        for v in [0, 1, 2, 7, 8, 9, 23, 24, 25, 55, 56, 57, 247, 248, 249, 3000] + [
                rng.randrange(3001) for _ in range(10)]:
            n = rng.randrange(1, 10**30) * rng.choice((1, -1)) * p**v
            assert arith.valuation(n, p) == naive_valuation(n, p), (n, p)
            checked += 1
    assert checked == 7 * 26
    with pytest.raises(DomainError):
        arith.valuation(0, 3)


def test_valuation_two_reads_the_lowest_set_bit():
    """nu_2 of n = +-u 2^e, u odd, e <= 300, against the division loop."""
    rng = random.Random(34)
    for e in range(301):
        for u in (1, 3, rng.randrange(1, 10**20, 2)):
            for n in (u << e, -(u << e)):
                assert arith.valuation(n, 2) == naive_valuation(n, 2) == e, (n, e)
    with pytest.raises(DomainError):
        arith.valuation(0, 2)


def test_mobius():
    assert arith.mobius(1) == 1
    assert arith.mobius(12) == 0
    assert arith.mobius(30) == -1
    assert arith.mobius(-30) == -1
    assert arith.mobius(6) == 1


def test_legendre_examples():
    assert arith.legendre(2, 7) == 1
    assert arith.legendre(0, 5) == 0
    assert arith.legendre(3, 5) == -1
    with pytest.raises(DomainError):
        arith.legendre(3, 9)
    with pytest.raises(DomainError):
        arith.legendre(3, 2)


def test_legendre_against_square_table():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert arith.legendre(a, p) == expect
            assert arith.legendre(a - p, p) == expect


def test_legendre_multiplicative():
    rng = random.Random(3)
    for p in (5, 13, 31, 97):
        for _ in range(50):
            a = rng.randrange(-200, 201)
            b = rng.randrange(-200, 201)
            assert arith.legendre(a * b, p) == arith.legendre(a, p) * arith.legendre(b, p)


def test_squarefree_divisors_classes():
    # one signed representative per class of Q(T), T the primes of n
    assert sorted(arith.squarefree_divisors(2)) == [-2, -1, 1, 2]
    assert [d for d in arith.squarefree_divisors(3) if d > 0] == [1, 3]
    assert [d for d in arith.squarefree_divisors(27) if d > 0] == [1, 3]
    assert sorted(arith.squarefree_divisors(1)) == [-1, 1]
    assert sorted(arith.squarefree_divisors(-18)) == [-6, -3, -2, -1, 1, 2, 3, 6]


def test_q_t_cardinality_and_inequivalence():
    for n, support, inf in ((12, (2, 3), True), (2 * 9 * 125, (2, 3, 5), False),
                            (-49, (7,), True)):
        reps = arith.squarefree_divisors(n)
        if not inf:
            reps = [d for d in reps if d > 0]
        assert len(reps) == 2 ** (len(support) + (1 if inf else 0))
        # pairwise inequivalent mod squares: d1/d2 square iff d1 == d2 here
        for i, d1 in enumerate(reps):
            for d2 in reps[i + 1 :]:
                assert arith.squarefree_kernel(d1 * d2) != 1
        if not inf:
            assert all(d > 0 for d in reps)


# The least strong pseudoprime to every base in arith._MR_BASES (psi_12), and
# the least one to the primes up to 41 (psi_13), which also fools all of them.
PSEUDOPRIME = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_is_prime_beyond_miller_rabin_bound():
    assert PSEUDOPRIME == arith._MR_BOUND == 318665857834031151167461
    assert PSI_13 == 3317044064679887385961981
    assert not arith.is_prime(PSEUDOPRIME)
    assert not arith.is_prime(PSI_13)
    assert arith.is_prime(3317044064679887385962123)  # the prime after psi_13


def test_factor_strong_pseudoprime():
    assert arith.factor(PSEUDOPRIME) == ((399165290221, 1), (798330580441, 1))
    assert arith.factor(PSI_13) == ((1287836182261, 1), (2575672364521, 1))


def test_strong_lucas_pseudoprimes():
    # The strong Lucas pseudoprimes below 10^5 (Selfridge parameters); every
    # other odd n > 2 passes exactly when it is prime.
    known = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439}
    for n in range(3, 10**5, 2):
        assert arith._strong_lucas(n) == (arith.is_prime(n) or n in known), n


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(17)
    hi = PSEUDOPRIME << 40
    cases = [PSEUDOPRIME, PSEUDOPRIME + 2, sympy.nextprime(PSEUDOPRIME), PSI_13]
    cases += [rng.randrange(PSEUDOPRIME, hi) | 1 for _ in range(300)]
    cases += [sympy.randprime(PSEUDOPRIME, hi) for _ in range(30)]
    cases += [sympy.randprime(2**40, 2**60) * sympy.randprime(2**40, 2**60) for _ in range(30)]
    for n in cases:
        assert arith.is_prime(n) == sympy.isprime(n), n


def test_unitary_squarefree_divisors():
    # 360 = 2^3 * 3^2 * 5: only 5 has exponent 1
    assert arith.unitary_squarefree_divisors(360) == [1, 5]
    assert arith.unitary_squarefree_divisors(-39) == [1, 3, 13, 39]


def test_cache_toggle_identical_results():
    arith.set_factor_cache(False)
    a = arith.factor(987654321)
    arith.set_factor_cache(True)
    b = arith.factor(987654321)
    assert a == b


def test_factor_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(arith, "CACHE_BOUND", 4)
    arith.set_factor_cache(False)
    arith.set_factor_cache(True)
    try:
        for n in range(1000, 1020):
            assert prod(p**e for p, e in arith.factor(n)) == n
            assert 1 <= len(arith._factor_cache) <= 4
        assert prod(p**e for p, e in arith.factor(1019)) == 1019  # a hit after the clears
    finally:
        arith.set_factor_cache(False)
        arith.set_factor_cache(True)


def test_is_prime_against_sieve():
    primes = set(arith.primes_up_to(10**5))
    for n in range(-2, 10**5):
        assert arith.is_prime(n) == (n in primes), n


def test_primes_up_to_and_next_prime():
    assert arith.primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert arith.next_prime(3) == 5
    assert arith.next_prime(13) == 17
    assert arith.next_prime(0) == 2
