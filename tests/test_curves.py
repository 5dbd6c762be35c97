import io
import random
from fractions import Fraction
from math import gcd

import pytest

from ecdescent import arith, cli, curves, families
from ecdescent.arith import factor, valuation
from ecdescent.curves import LongWeierstrass, ShortWeierstrass
from ecdescent.errors import DomainError, SingularCurve
from ecdescent.families import E2Param


def test_invariants_short_examples():
    assert curves.invariants(ShortWeierstrass(0, 1)).delta == -432
    assert curves.invariants(ShortWeierstrass(-1, 0)).delta == 64
    inv = curves.invariants(ShortWeierstrass(2, 3))
    assert inv.c4 == -96 and inv.c6 == -2592


def test_invariants_long_tate_normal():
    # Tate normal (b, c) = (2, 2): delta must equal 2^5 (4 - 22 - 1)
    model = LongWeierstrass(-1, -2, -2, 0, 0)
    assert curves.invariants(model).delta == -608


def test_invariant_identity_random_models():
    rng = random.Random(42)
    for _ in range(150):
        a1, a2, a3, a4, a6 = (rng.randrange(-8, 9) for _ in range(5))
        try:
            model = LongWeierstrass(a1, a2, a3, a4, a6)
        except SingularCurve:
            continue
        inv = curves.invariants(model)
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta
    for _ in range(150):
        A, B = rng.randrange(-50, 51), rng.randrange(-50, 51)
        try:
            E = ShortWeierstrass(A, B)
        except SingularCurve:
            continue
        inv = curves.invariants(E)
        assert inv.c4**3 - inv.c6**2 == 1728 * inv.delta


def test_singular_rejected():
    with pytest.raises(SingularCurve, match=r"^y\^2 = x\^3 \+ 0x \+ 0 is singular$"):
        ShortWeierstrass(0, 0)
    with pytest.raises(SingularCurve, match=r"^y\^2 = x\^3 \+ -3x \+ 2 is singular$"):
        ShortWeierstrass(-3, 2)  # 4*(-27) + 27*4 = 0
    with pytest.raises(SingularCurve, match="^long Weierstrass model is singular$"):
        LongWeierstrass(0, 0, 0, 0, 0)
    with pytest.raises(SingularCurve, match="^long Weierstrass model is singular$"):
        LongWeierstrass(Fraction(1, 2), 0, 0, 0, 0)  # Tate normal E(0, 1/2)
    with pytest.raises(SingularCurve, match=r"^y\^2 = x\^3 \+ 0x \+ 0 is singular$"):
        ShortWeierstrass(A=0, B=0)


def minimize(E):
    """`curves.minimize` with the primes of gcd(A, B), those it may divide out."""
    return curves.minimize(E, arith.prime_divisors(gcd(E.A, E.B)))


def is_minimal(E):
    """No prime p has p^4 | A and p^6 | B: `minimize` leaves E as it is."""
    return minimize(E) == E


def test_is_minimal():
    assert is_minimal(ShortWeierstrass(1, 1))
    assert not is_minimal(ShortWeierstrass(16, 64))
    assert not is_minimal(ShortWeierstrass(0, 64))
    assert is_minimal(ShortWeierstrass(0, 63))
    assert not is_minimal(ShortWeierstrass(16, 0))


def test_minimize():
    assert minimize(ShortWeierstrass(16, 64)) == ShortWeierstrass(1, 1)
    assert minimize(ShortWeierstrass(1, 2)) == ShortWeierstrass(1, 2)
    assert minimize(ShortWeierstrass(0, 3**12)) == ShortWeierstrass(0, 1)


def test_minimize_idempotent_and_minimal():
    rng = random.Random(17)
    for _ in range(100):
        A = rng.randrange(-30, 31) * rng.choice((1, 16, 81))
        B = rng.randrange(-30, 31) * rng.choice((1, 64, 729))
        try:
            E = ShortWeierstrass(A, B)
        except SingularCurve:
            continue
        m = minimize(E)
        assert is_minimal(m)
        # same curve up to (u^4, u^6) scaling: c4^3 / c6^2 preserved when both nonzero
        if m.A and m.B:
            ia, ib = curves.invariants(E), curves.invariants(m)
            assert ia.c4**3 * ib.c6**2 == ib.c4**3 * ia.c6**2


def _reducible_prime(A, B):
    """The retired `minimize` kernel: a prime p with p^4 | A and p^6 | B, or None."""
    if A == 0:
        return next((p for p, e in factor(B) if e >= 6), None)
    if B == 0:
        return next((p for p, e in factor(A) if e >= 4), None)
    for p, e in factor(gcd(abs(A), abs(B))):
        if e >= 4 and valuation(A, p) >= 4 and valuation(B, p) >= 6:
            return p
    return None


def oracle_minimize(E):
    """The retired loop: divide out one (p^4, p^6), then factor again."""
    A, B = E.A, E.B
    while (p := _reducible_prime(A, B)) is not None:
        A //= p**4
        B //= p**6
    return ShortWeierstrass(A, B)


def test_minimize_matches_retired_loop():
    rng = random.Random(1931)
    scales = (1, 2, 3, 5, 6, 10, 30, 4, 9, 7 * 11)
    seen = {"A = 0": 0, "B = 0": 0, "two or more primes": 0}
    for _ in range(3000):
        u = rng.choice(scales) ** rng.randrange(1, 3)
        A = rng.choice((0, rng.randrange(-50, 51))) * u**4 * rng.choice((1, 2, 3, 16))
        B = rng.choice((0, rng.randrange(-50, 51))) * u**6 * rng.choice((1, 2, 3, 64))
        try:
            E = ShortWeierstrass(A, B)
        except SingularCurve:
            continue
        assert minimize(E) == oracle_minimize(E), E
        seen["A = 0"] += A == 0
        seen["B = 0"] += B == 0
        seen["two or more primes"] += len(factor(u)) >= 2
    assert min(seen.values()) > 100, seen


def test_minimize_factors_nothing(monkeypatch):
    """The caller's primes are the only ones looked at: one left out stays in u."""
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    E = ShortWeierstrass(2**4 * 3**4 * 5**4, 2**6 * 3**6 * 5**6)
    assert curves.minimize(E, [2, 3, 5]) == ShortWeierstrass(1, 1)
    assert curves.minimize(E, {5, 7, 3}) == ShortWeierstrass(2**4, 2**6)
    assert calls == []


def test_height_leq():
    assert curves.height_leq(ShortWeierstrass(4, 8), 2)
    assert not curves.height_leq(ShortWeierstrass(5, 1), 2)
    assert curves.height_leq(ShortWeierstrass(0, 27), 3)
    # monotone in X
    E = ShortWeierstrass(12, -40)
    flags = [curves.height_leq(E, X) for X in range(1, 10)]
    assert flags == sorted(flags)


def test_conductor_support():
    for E, policy, count in ((ShortWeierstrass(0, -1), "include-small", 2),
                             (ShortWeierstrass(0, 1), "include-small", 2),
                             (ShortWeierstrass(-1, 0), "include-small", 1),
                             (ShortWeierstrass(0, -1), "exclude-23", 0)):
        out = curves.conductor_support(E, policy, {2, 3})
        assert type(out) is int
        assert out == count == len(oracle_conductor_support(E, policy)), (E, policy)
    assert oracle_conductor_support(ShortWeierstrass(0, -1), "include-small") == [2, 3]
    assert oracle_conductor_support(ShortWeierstrass(-1, 0), "include-small") == [2]


def oracle_conductor_support(E, policy):
    """The computation before callers passed their primes: minimize by the
    retired loop, factor the minimal discriminant and list its primes."""
    support = [p for p, _ in factor(curves.invariants(oracle_minimize(E)).delta)]
    if policy == "exclude-23":
        support = [p for p in support if p > 3]
    return support


# Each scan's rows, and the e2 rows of `watkins` (through `watkins.report`).
ROW_WINDOWS = (
    ("enumerate", "--family", "type1", "--height", "10"),
    ("enumerate", "--family", "twist-e0", "--range", "3000"),
    ("enumerate", "--family", "e2", "--height", "8"),
    ("watkins", "--family", "e2", "--height", "8"),
    ("enumerate", "--family", "e3", "--height", "6"),
    ("enumerate", "--family", "e5", "--height", "100"),
    ("enumerate", "--family", "e7", "--height", "1000"),
)


@pytest.mark.parametrize("policy", curves.POLICIES)
def test_row_primes_agree_with_the_factored_discriminant(monkeypatch, policy):
    """Every `minimize` and `conductor_support` call of every scan row, with
    the primes the row passes, agrees with the oracle that factors, and the
    model each row hands to `conductor_support` is minimal already."""
    minimize, conductor_support = curves.minimize, curves.conductor_support
    calls = []

    def checked_minimize(E, primes):
        out = minimize(E, primes)
        assert out == oracle_minimize(E), (E, primes)
        return out

    def checked_support(E, policy, primes):
        assert oracle_minimize(E) == E, E
        out = conductor_support(E, policy, primes)
        assert out == len(oracle_conductor_support(E, policy)), (E, policy, primes)
        calls.append(E)
        return out

    monkeypatch.setattr(curves, "minimize", checked_minimize)
    monkeypatch.setattr(curves, "conductor_support", checked_support)
    for argv in ROW_WINDOWS:
        calls.clear()
        assert cli.main(["--workers", "1", "--policy", policy, *argv], out=io.StringIO()) == 0
        assert calls, argv


def row_support(param, policy):
    """`conductor_support` as a scan row reaches it: an `E2Param` by
    `e2_primes` and `e2_curve`, an int a by `type1_primes` and one `minimize`
    of `type1(a)`."""
    if isinstance(param, E2Param):
        facs = families.e2_primes(param)
        primes = families.disc_primes(*facs)
        E = families.e2_curve(param, primes)
    else:
        primes = families.disc_primes(families.type1_primes(param))
        E = curves.minimize(families.type1(param), primes)
    return curves.conductor_support(E, policy, primes)


@pytest.mark.parametrize("policy", curves.POLICIES)
def test_conductor_support_raises_on_a_missing_prime(monkeypatch, policy):
    """A row whose factorization misses a prime power of its parameter raises,
    also one that divides only the scale u of a non-minimal model (5 in
    type1(2 5^6) = (0, 2 5^6)).  The rows of (0, 35), (0, 2 5^6), (-1, 0)
    = E_{0,-1} and (-8, 7) = E_{3,-5}; each prime power is dropped in turn."""
    factor = families.factor
    for param, E in ((35, ShortWeierstrass(0, 35)),
                     (2 * 5**6, ShortWeierstrass(0, 2 * 5**6)),
                     (E2Param(0, -1), ShortWeierstrass(-1, 0)),
                     (E2Param(3, -5), ShortWeierstrass(-8, 7))):
        assert row_support(param, policy) == len(oracle_conductor_support(E, policy))
        numbers = (param.b, param.disc_quadratic) if isinstance(param, E2Param) else (param,)
        powers = {pe for n in numbers for pe in factor(n)}
        assert powers
        for pe in powers:
            monkeypatch.setattr(families, "factor",
                                lambda n, pe=pe: tuple(q for q in factor(n) if q != pe))
            with pytest.raises(ArithmeticError, match="has a prime outside its prime powers"):
                row_support(param, policy)
        monkeypatch.setattr(families, "factor", factor)


def test_two_torsion_shape():
    assert curves.two_torsion_shape(ShortWeierstrass(0, -1)) == curves.Z2
    assert curves.two_torsion_shape(ShortWeierstrass(-1, 0)) == curves.Z2XZ2
    assert curves.two_torsion_shape(ShortWeierstrass(0, 2)) == curves.TRIVIAL


def test_division_polynomial_leading_terms():
    # psi_ell has degree (ell^2 - 1)/2 and leading coefficient ell
    for ell in (3, 5, 7):
        psi = curves.division_polynomial(ell, -4, 7)
        assert len(psi) - 1 == (ell * ell - 1) // 2
        assert psi[-1] == ell


def test_torsion_order_present():
    assert curves.torsion_order_present(ShortWeierstrass(1, 2), 2)
    assert curves.torsion_order_present(ShortWeierstrass(0, 4), 3)
    assert not curves.torsion_order_present(ShortWeierstrass(0, 1), 5)
    # y^2 = x^3 + 1 has torsion Z/6: orders 2 and 3 present, 5 and 7 absent
    E = ShortWeierstrass(0, 1)
    assert curves.torsion_order_present(E, 2)
    assert curves.torsion_order_present(E, 3)
    assert not curves.torsion_order_present(E, 7)


def test_shape_matches_two_torsion_presence():
    rng = random.Random(23)
    for _ in range(200):
        try:
            E = ShortWeierstrass(rng.randrange(-20, 21), rng.randrange(-20, 21))
        except SingularCurve:
            continue
        has2 = curves.torsion_order_present(E, 2)
        shape = curves.two_torsion_shape(E)
        assert has2 == (shape in (curves.Z2, curves.Z2XZ2))


def brute_force_trace(A, B, p):
    """Affine point enumeration over F_p x F_p, the O(p^2) oracle."""
    count = 1  # point at infinity
    for x in range(p):
        for y in range(p):
            if (y * y - (x**3 + A * x + B)) % p == 0:
                count += 1
    return p + 1 - count


def test_frobenius_trace_examples():
    assert curves.frobenius_trace(ShortWeierstrass(0, 1), 5) == 0
    assert curves.frobenius_trace(ShortWeierstrass(0, 1), 7) == -4
    E = ShortWeierstrass(-1, 0)
    ap = curves.frobenius_trace(E, 5)
    assert abs(ap) <= 4
    assert ap == brute_force_trace(-1, 0, 5)


def test_frobenius_trace_hasse_bound_raises(monkeypatch):
    monkeypatch.setattr(curves, "trace_from_coefficients", lambda A, B, p, chi: 2 * p)
    with pytest.raises(ArithmeticError, match="Hasse bound"):
        curves.frobenius_trace(ShortWeierstrass(0, 1), 5)


def test_frobenius_trace_against_oracle():
    rng = random.Random(5)
    for _ in range(30):
        try:
            E = ShortWeierstrass(rng.randrange(-10, 11), rng.randrange(-10, 11))
        except SingularCurve:
            continue
        for p in (5, 7, 11, 13):
            try:
                ap = curves.frobenius_trace(E, p)
            except DomainError:
                continue
            assert ap == brute_force_trace(E.A, E.B, p)
            assert ap * ap <= 4 * p


def test_frobenius_bad_reduction():
    with pytest.raises(DomainError, match="not a prime > 3"):
        curves.frobenius_trace(ShortWeierstrass(0, 1), 3)
    with pytest.raises(DomainError, match="not a prime > 3"):
        curves.frobenius_trace(ShortWeierstrass(-1, 0), 2)
    # (0, 5) has delta = -2^4 3^3 5^2: bad at 5
    with pytest.raises(DomainError, match="bad reduction at 5"):
        curves.frobenius_trace(ShortWeierstrass(0, 5), 5)
    # (0, 1) has delta = -432 = -2^4 3^3: good at 5
    curves.frobenius_trace(ShortWeierstrass(0, 1), 5)


def test_short_model_from_rational_long():
    t = Fraction(3, 2)
    model = LongWeierstrass(1 - t, -t, -t, 0, 0)
    E = curves.short_model(model)
    assert is_minimal(E)
    assert curves.torsion_order_present(E, 5)


def test_e2_param_of():
    assert curves.e2_param_of(ShortWeierstrass(4, 0)) == (0, 4)
    assert curves.e2_param_of(ShortWeierstrass(-35, -98)) == (21, 112)
    assert curves.e2_param_of(ShortWeierstrass(-16, 16)) is None  # trivial torsion
