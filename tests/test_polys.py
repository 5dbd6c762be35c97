import random
from fractions import Fraction

import pytest

from ecdescent import polys
from ecdescent.errors import DomainError


def test_mul_add_roundtrip():
    f = [1, 2, 3]
    g = [4, 0, -1]
    assert polys.mul(f, g) == [4, 8, 11, -2, -3]
    assert polys.add(polys.sub(f, g), g) == f


def test_evaluate_matches_homogeneous():
    f = [-1, -11, 1]
    assert polys.evaluate(f, 3) == 9 - 33 - 1
    assert polys.homogeneous_value(f, 3, 2) == 4 * (Fraction(9, 4) - Fraction(33, 2) - 1)
    assert polys.homogeneous_value(f, 3, 1) == polys.evaluate(f, 3)


def test_rational_roots_constructed():
    from math import gcd

    rng = random.Random(99)
    for _ in range(40):
        roots = set()
        f = [rng.choice((1, 2, 3, 5))]
        for _ in range(rng.randrange(1, 4)):
            num = rng.randrange(-12, 13)
            den = rng.choice((1, 2, 3))
            g = gcd(abs(num), den)
            num, den = num // g, den // g
            f = polys.mul(f, [-num, den])
            roots.add(Fraction(num, den))
        if rng.random() < 0.5:
            f = polys.mul(f, [1, 0, 1])  # irrational quadratic factor
        assert set(polys.rational_roots(f)) == roots


def test_rational_roots_exact_sets():
    assert polys.rational_roots([0, -1, 0, 1]) == [-1, 0, 1]
    assert polys.rational_roots([1, -5, 6]) == [Fraction(1, 3), Fraction(1, 2)]
    assert polys.rational_roots([1, 0, 1]) == []
    # repeated factors
    f = polys.mul(polys.mul([-3, 1], [-3, 1]), [5, 2])
    assert polys.rational_roots(f) == [Fraction(-5, 2), 3]


@pytest.mark.parametrize("f, roots", [
    ([1, 0, 2, 0, 1], []),  # (x^2 + 1)^2: squarefree mod no prime
    ([45, -12, -7, 2], [Fraction(-5, 2), 3]),  # (x - 3)^2 (2x + 5)
])
def test_rational_roots_repeated_factor_gcd_calls(monkeypatch, f, roots):
    """One gcd mod a large prime finds the repeated factor, one more finds a
    good prime for the squarefree part; the search never gives up early."""
    calls = []
    gcd_mod = polys.gcd_mod
    monkeypatch.setattr(polys, "gcd_mod", lambda *args: calls.append(args[2]) or gcd_mod(*args))
    assert polys.rational_roots(f) == roots
    assert len(calls) <= 2, calls


def test_rational_roots_huge_coefficients():
    big = 10**30
    f = polys.mul([-big, 1], [1, 7])
    assert polys.rational_roots(f) == [Fraction(-1, 7), big]


def test_roots_mod_p():
    assert polys.roots_mod_p([-1, 0, 1], 7) == [1, 6]
    assert polys.roots_mod_p([1, 0, 1], 7) == []


def test_resultant_known_values():
    f = [-1, -11, 1]
    assert polys.resultant(f, polys.derivative(f)) == -125
    g = [1, 5, -8, 1]
    assert polys.resultant(g, polys.derivative(g)) == -2401
    # Res(x - a, x - b) = b - a... via definition lc^.. (a - b): check sign convention
    assert abs(polys.resultant([-2, 1], [-5, 1])) == 3
    # common factor gives 0
    assert polys.resultant([0, 1], [0, 0, 1]) == 0


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(5)
    for _ in range(20):
        f = [rng.randrange(-5, 6) for _ in range(3)] + [rng.choice((1, 2))]
        g = [rng.randrange(-5, 6) for _ in range(2)] + [rng.choice((1, 3))]
        h = [rng.randrange(-5, 6), rng.choice((1, 2))]
        lhs = polys.resultant(polys.mul(f, h), g)
        rhs = polys.resultant(f, g) * polys.resultant(h, g)
        assert lhs == rhs


def test_resultant_against_sympy_sylvester():
    """The Sylvester determinant defines Res.  `sympy.resultant` is no
    oracle: sympy 1.14 gets the sign of the last fixed pair below wrong."""
    sympy = pytest.importorskip("sympy")
    sylvester = pytest.importorskip("sympy.polys.subresultants_qq_zz").sylvester
    x = sympy.Symbol("x")
    rng = random.Random(2024)

    def poly(deg):
        return [rng.randrange(-9, 10) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2, 5))]

    assert polys.resultant([], [1, 2]) == polys.resultant([3], [0]) == 0
    pairs = [([3], [-2]), ([5], [1, 0, 2]), ([1, 0, 2], [-2]),
             ([0, 0, 1], [0, 1]), ([-4, 9, 0, -1], [4, -1, 8, -2, 6, 1])]
    for _ in range(60):
        f, g = poly(rng.randrange(0, 7)), poly(rng.randrange(0, 7))
        pairs.append((f, g))
        h = poly(rng.randrange(1, 3))
        pairs.append((polys.mul(f, h), polys.mul(g, h)))  # common factor: 0
    for f, g in pairs:
        expected = sylvester(sympy.Poly(f[::-1], x).as_expr(),
                             sympy.Poly(g[::-1], x).as_expr(), x).det()
        assert polys.resultant(f, g) == expected, (f, g)


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        polys.rational_roots([0, 0])


def oracle_xpow_mod(e, f, p):
    """x^e mod (f, p) by e multiplications by x, each reduced by one step."""
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f]
    d = len(f) - 1
    out = [1]
    for _ in range(e):
        out = polys.mul(out, [0, 1])
        if len(out) > d:
            top = out[d]
            out = [(out[i] - top * monic[i]) % p for i in range(d)]
    return polys.normalize([c % p for c in out])


def test_xpow_mod_matches_repeated_multiplication():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11, 13, 101))
        f = [rng.randrange(-20, 21) for _ in range(rng.randrange(1, 6))]
        f.append(rng.choice([c for c in range(1, 20) if c % p]))
        e = rng.randrange(0, 300)
        assert polys.xpow_mod(e, f, p) == oracle_xpow_mod(e, f, p), (e, f, p)


def test_divmod_q_identity():
    rng = random.Random(32)
    for _ in range(200):
        if rng.random() < 0.5:
            coeff = lambda: rng.randrange(-50, 51)
        else:
            coeff = lambda: Fraction(rng.randrange(-50, 51), rng.randrange(1, 10))
        f = polys.normalize([coeff() for _ in range(rng.randrange(0, 8))])
        lead = rng.choice((-3, 1, 2, Fraction(5, 7)))
        g = polys.normalize([coeff() for _ in range(rng.randrange(0, 5))] + [lead])
        q, r = polys._divmod_q(f, g)
        assert polys.add(polys.mul(q, g), r) == f, (f, g)
        assert polys.degree(r) < polys.degree(g), (f, g)


def test_gcd_mod_divides_both_arguments():
    """f mod h is checked by integer long division: h is monic over Z."""
    rng = random.Random(33)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        common = [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 3))] + [1]
        f = polys.mul(common, [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))] + [1])
        g = polys.mul(common, [rng.randrange(-9, 10) for _ in range(rng.randrange(0, 4))] + [p + 1])
        h = polys.gcd_mod(f, g, p)
        assert h[-1] == 1 and polys.degree(h) >= polys.degree(common), (f, g, p)
        for u in (f, g):
            _, r = polys._divmod_q(u, h)
            assert all(c.denominator == 1 and c % p == 0 for c in r), (u, h, p)
