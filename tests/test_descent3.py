import io
import os
import subprocess
import sys
from math import gcd, isqrt

import pytest

from ecdescent import arith, cli, descent3
from ecdescent.arith import is_squarefree
from ecdescent.errors import DomainError
from ecdescent.families import type1_primes


def rank_upper_type1(a):
    """`descent3.rank_upper_type1` with the primes it reads."""
    return descent3.rank_upper_type1(a, type1_primes(a))


def s_set(a):
    return descent3.s_set(arith.factor_over(a, type1_primes(a), "a"))


def identity_form(D):
    if D % 2 == 0:
        return (1, 0, -D // 4)
    return (1, 1, (1 - D) // 4)


def reference_reduced_forms(D):
    """The retired enumeration: every b up to sqrt(|D|/3), a stepped by a while loop."""
    out = []
    bmax = isqrt(-D // 3)
    for b in range(bmax + 1):
        if (b - D) % 2 != 0:
            continue
        ac4 = b * b - D
        if ac4 % 4 != 0:
            continue
        ac = ac4 // 4
        a = max(b, 1)
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                if gcd(gcd(a, b), c) == 1:
                    out.append((a, b, c))
                    if b and b != a and a != c:
                        out.append((a, -b, c))
            a += 1
    return sorted(out)


def reference_r3_imaginary(D):
    """The retired 3-rank: one composition per reduced form, no shortcut."""
    cubes = 0
    for a, b, c in reference_reduced_forms(D):
        if descent3.compose((a, b, c), (a, b, c), D) == descent3.reduce_form(a, -b, c):
            cubes += 1
    r3 = 0
    while 3**r3 < cubes:
        r3 += 1
    assert 3**r3 == cubes, (D, cubes)
    return r3


def test_s_set():
    assert s_set(196) == (2, 3, 7)  # 196 = 2^2 7^2, (-3/7) = 1
    assert s_set(1) == (2, 3)
    assert s_set(-1) == (2, 3)
    # nu_p = 2 but (-3/p) = -1 keeps p out: p = 5
    assert s_set(25) == (2, 3)
    # nu_p = 6 keeps p out even with (-3/p) = 1
    assert s_set(7**6) == (2, 3)
    with pytest.raises(DomainError):
        descent3.s_set(arith.factor_over(0, {2, 3}, "a"))


def test_s_set_isogeny_invariance():
    for a in range(1, 51):
        for s in (a, -a):
            assert len(s_set(s)) == len(s_set(-27 * s))


def test_reduced_forms_and_class_numbers():
    # classical class numbers for small discriminants
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
             -24: 2, -31: 3, -47: 5, -71: 7, -84: 4, -95: 8, -3321607: 567}
    for D, h in known.items():
        assert len(descent3.reduced_forms(D)) == h, D


def test_r3_cache_is_bounded():
    assert descent3.r3_imaginary.cache_info().maxsize == arith.CACHE_BOUND == 1 << 16


def test_r3_imaginary():
    assert descent3.r3_imaginary(-4) == 0
    assert descent3.r3_imaginary(-3) == 0
    assert descent3.r3_imaginary(-23) == 1
    assert descent3.r3_imaginary(-31) == 1
    assert descent3.r3_imaginary(-47) == 0  # h = 5
    # first discriminant of 3-rank 2
    assert descent3.r3_imaginary(-3299) == 2
    assert descent3.r3_imaginary(-3321607) == 3  # h = 567 = 3^4 * 7
    with pytest.raises(DomainError):
        descent3.r3_imaginary(-5)  # not a discriminant
    with pytest.raises(DomainError):
        descent3.r3_imaginary(4)


def test_reduced_forms_and_r3_against_reference():
    # -3..-10000 and -49128 (the largest |D| of `enumerate --family type1
    # --height 16`) read b from the table; the two edges have
    # isqrt(|D|/3) = ROOTS_BOUND, the last table side, and ROOTS_BOUND + 1,
    # the first divisor side, as does -3321607.  The reference is the
    # retired per-b loop, which tries every a by trial division.
    bound = descent3.ROOTS_BOUND
    edges = (-3 * bound * bound, -3 * (bound + 1) ** 2)
    assert [isqrt(-D // 3) for D in edges] == [bound, bound + 1]
    assert all(D % 4 in (0, 1) for D in edges)
    for D in (*range(-3, -10001, -1), -49128, *edges, -3321607):
        if D % 4 not in (0, 1):
            continue
        assert descent3.reduced_forms(D) == reference_reduced_forms(D), D
        assert descent3.r3_imaginary.__wrapped__(D) == reference_r3_imaginary(D), D


def test_roots_table_is_lazy_and_bounded():
    # the CLI import builds no table; past ROOTS_BOUND a comes from the
    # divisors of (b^2 - D)/4 and the table stops growing
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import ecdescent.cli; "
            "from ecdescent import descent3; print(len(descent3._ROOTS))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
    bound = descent3.ROOTS_BOUND
    descent3.reduced_forms(-3 * bound * bound)
    descent3.reduced_forms(-3 * (bound + 1) ** 2)
    descent3.reduced_forms(-3321607)
    assert sorted(descent3._ROOTS) == list(range(1, bound + 1))


def test_r3_imaginary_skips_composition_when_3_does_not_divide_h(monkeypatch):
    """Nothing is composed unless 9 | h(D): v_3(h) <= 1 is the 3-rank."""
    def no_compose(f1, f2, D):
        raise AssertionError("composed although 9 does not divide h(D)")

    discs = [D for D in range(-3, -2001, -1)
             if D % 4 in (0, 1) and len(descent3.reduced_forms(D)) % 9]
    expected = {D: reference_r3_imaginary(D) for D in discs}
    assert set(expected.values()) == {0, 1}
    monkeypatch.setattr(descent3, "compose", no_compose)
    for D, h in ((-47, 5), (-71, 7), (-95, 8)):
        assert len(descent3.reduced_forms(D)) == h
        assert descent3.r3_imaginary.__wrapped__(D) == 0, D
    for D in discs:
        assert descent3.r3_imaginary.__wrapped__(D) == expected[D], D


def test_r3_imaginary_composes_once_per_inverse_pair(monkeypatch):
    calls = []
    compose = descent3.compose

    def counted(f1, f2, D):
        calls.append(f1)
        return compose(f1, f2, D)

    monkeypatch.setattr(descent3, "compose", counted)
    # h = 3: the 3-part is Z/3, so nothing is composed
    assert descent3.r3_imaginary.__wrapped__(-23) == 1
    assert calls == []
    for D, r3 in ((-3299, 2), (-3321607, 3)):  # h = 27 and 567 = 3^4 7
        h = len(descent3.reduced_forms(D))
        calls.clear()
        assert descent3.r3_imaginary.__wrapped__(D) == r3
        assert 0 < len(calls) <= (h - 1) // 2, (D, h, len(calls))


def test_r3_imaginary_raises_without_order_three(monkeypatch, capsys):
    """9 | h(D) but no composition gives an inverse: the count stays 1, which
    Cauchy forbids, so it raises rather than read as r3 = 0."""
    def non_inverse(f1, f2, D):
        return identity_form(D)

    monkeypatch.setattr(descent3, "compose", non_inverse)
    for D in (-3299, -3321607):
        with pytest.raises(ArithmeticError, match=rf"^3-torsion count 1 .* for D={D}$"):
            descent3.r3_imaginary.__wrapped__(D)
    # on the CLI: both fields of a = -3299 have 3-rank r3(-3299); exit 1
    descent3.r3_imaginary.cache_clear()
    out = io.StringIO()
    assert cli.main(["descent3", "--a", "-3299"], out) == 1
    assert out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith("error: 3-torsion count 1 ") and err.count("\n") == 1, err


def kronecker(D, n):
    """The Kronecker symbol (D/n) for n >= 1, by hand: (D/2) from D mod 8,
    then the Jacobi symbol (D/m) of the odd part m by reciprocity."""
    out = 1
    while n % 2 == 0:
        if D % 2 == 0:
            return 0
        out *= 1 if D % 8 in (1, 7) else -1
        n //= 2
    a, m = D % n, n
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                out = -out
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            out = -out
        a %= m
    return out if m == 1 else 0


def analytic_class_number(D):
    """h(D) = (w/2) sum_{1 <= n <= |D|/2} (D/n) / (2 - (D/2)) for a fundamental
    D < 0, with w = 6, 4 and 2 units for D = -3, -4 and D < -4."""
    w = {-3: 6, -4: 4}.get(D, 2)
    total = sum(kronecker(D, n) for n in range(1, -D // 2 + 1)) * w // 2
    q, r = divmod(total, 2 - kronecker(D, 2))
    assert r == 0, D
    return q


def fundamental(D):
    """D < 0 is a fundamental discriminant."""
    if D % 4 == 1:
        return is_squarefree(-D)
    return D % 16 in (8, 12) and is_squarefree(-D // 4)


def test_class_number_against_analytic_formula():
    """`reduced_forms` against the analytic class number formula, which shares
    no code with the forms: every fundamental D with |D| <= 3000 (the table
    side) and the first two past the switch (the divisor side)."""
    discs = [D for D in range(-3, -3001, -1) if fundamental(D)]
    assert len(discs) == 2 + 909  # -3, -4 and the 909 below -4
    first = -3 * (descent3.ROOTS_BOUND + 1) ** 2
    past = [D for D in range(first, first - 20, -1) if fundamental(D)][:2]
    assert len(past) == 2 and isqrt(-first // 3) == descent3.ROOTS_BOUND + 1
    for D in (*discs, *past):
        assert len(descent3.reduced_forms(D)) == analytic_class_number(D), D
    # K_a of `descent3 --a 100000001`: h = 3 2^10, so r3 = v_3(h) = 1
    assert len(descent3.reduced_forms(-300000003)) == 3072
    assert descent3.r3_imaginary.__wrapped__(-300000003) == 1


def test_r3_imaginary_against_cubing():
    # reference: count the forms whose cube is the identity
    for D in range(-3, -4000, -1):
        if D % 4 not in (0, 1):
            continue
        ident = identity_form(D)
        cubes = sum(1 for f in descent3.reduced_forms(D)
                    if descent3.compose(f, descent3.compose(f, f, D), D) == ident)
        assert cubes == 3 ** descent3.r3_imaginary(D), D


def test_three_torsion_divides_class_number():
    for D in (-23, -31, -84, -120, -231, -255, -452, -999):
        if D % 4 not in (0, 1):
            continue
        h = len(descent3.reduced_forms(D))
        assert h % 3 ** descent3.r3_imaginary(D) == 0


def test_composition_group_axioms():
    for D in (-23, -84, -104, -231):
        forms = descent3.reduced_forms(D)
        ident = identity_form(D)
        assert ident in forms
        for f in forms:
            assert descent3.compose(ident, f, D) == f
            # inverse: (a, -b, c) reduced
            inv = descent3.reduce_form(f[0], -f[1], f[2])
            assert descent3.compose(f, inv, D) == ident
            sq = descent3.compose(f, f, D)
            cube = descent3.compose(sq, f, D)
            assert cube == descent3.compose(f, sq, D)  # associativity smoke test


def test_class_bound():
    assert descent3.class_bound(1) == descent3.ClassGroup3(1, 0, "rational-trivial", 0)
    assert descent3.class_bound(-3) == descent3.ClassGroup3(-3, 0, "exact-imaginary", 1)
    cb = descent3.class_bound(79)
    assert cb.method == "scholz-bound"
    assert cb.field_kernel == 79
    # the partner is Q(sqrt(-237)): an exact upper bound for r3(Q(sqrt(79)))
    assert cb.r3 == descent3.r3_imaginary(descent3.fundamental_discriminant(-237))
    with pytest.raises(DomainError):
        descent3.class_bound(0)


def reference_unit_3dim(d):
    """The retired `descent3.unit_3dim`: dim_F3 of units modulo cubes."""
    if d == 0:
        raise DomainError("square class of zero is undefined")
    k = arith.squarefree_kernel(d)
    if k > 1:
        return 1  # fundamental unit
    if k == -3:
        return 1  # sixth roots of unity
    return 0


def test_unit_3dim():
    assert descent3.class_bound(-1).unit == 0
    assert descent3.class_bound(-3).unit == 1
    assert descent3.class_bound(5).unit == 1
    assert descent3.class_bound(1).unit == 0
    assert descent3.class_bound(2).unit == 1  # real
    for d in range(-3000, 3001):
        if d:
            k = arith.squarefree_kernel(d)
            assert descent3.class_bound(k).unit == reference_unit_3dim(d), d


def test_fundamental_discriminant():
    assert descent3.fundamental_discriminant(-3) == -3
    assert descent3.fundamental_discriminant(-1) == -4
    assert descent3.fundamental_discriminant(5) == 5
    assert descent3.fundamental_discriminant(2) == 8
    assert descent3.fundamental_discriminant(-6) == -24


def test_rank_upper_type1_a1():
    bound, comp = rank_upper_type1(1)
    assert bound == 5
    assert comp._fields == ("class_a", "class_m27a", "s_a")
    assert comp.class_a.field_kernel == -3 and comp.class_a.r3 == 0
    assert comp.class_a.unit == 1
    assert comp.class_m27a.field_kernel == 1 and comp.class_m27a.unit == 0
    assert comp.s_a == 2
    with pytest.raises(DomainError):
        descent3.rank_upper_type1(0, {2, 3})


def test_rank_upper_type1_components_are_bounds():
    for a in (2, -2, 5, 12, 100, -45):
        bound, comp = rank_upper_type1(a)
        # S_{-27a} = S_a, so #S_a counts twice
        assert bound == (comp.class_a.r3 + comp.class_a.unit + comp.class_m27a.r3
                         + comp.class_m27a.unit + 2 * comp.s_a)
        assert bound >= 0


def test_rank_upper_type1_factors_nothing(monkeypatch):
    """The caller's primes are the only ones read: both fields' kernels, the
    Scholz partner and S_a come from a's prime powers at them, by gcd
    arithmetic, and nothing is factored; a prime of them that does not
    divide a changes nothing."""
    cases = [(a, type1_primes(a)) for a in (1, -1, 2, -12, 3**7 * 5, -(2**6) * 3, 5**6, 196)]
    expected = [rank_upper_type1(a) for a, _ in cases]
    calls = []
    factor_abs = arith._factor_abs
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    for (a, primes), bound in zip(cases, expected):
        assert descent3.rank_upper_type1(a, primes) == bound, a
        assert descent3.rank_upper_type1(a, sorted(primes | {11})) == bound, a
    assert calls == []


def test_rank_upper_type1_raises_on_a_missing_prime():
    """Each prime of a left out of `primes` raises."""
    for a in (-50, 2 * 3**7, 5**6, 196, -432):
        primes = type1_primes(a)
        for p in arith.prime_divisors(a):
            with pytest.raises(ArithmeticError, match=rf"^a {a} has a prime outside "):
                descent3.rank_upper_type1(a, primes - {p})


def reference_class_bound(d):
    """The class bound of Q(sqrt(d)) before kernels came from `factor(a)`:
    d and the Scholz partner -3k each went through `squarefree_kernel`."""
    k = arith.squarefree_kernel(d)
    if k == 1:
        return descent3.ClassGroup3(descent3.RATIONAL, 0, descent3.RATIONAL_TRIVIAL, 0)
    if k < 0:
        r3 = descent3.r3_imaginary(descent3.fundamental_discriminant(k))
        return descent3.ClassGroup3(k, r3, descent3.EXACT_IMAGINARY, 1 if k == -3 else 0)
    partner = arith.squarefree_kernel(-3 * k)
    r3 = descent3.r3_imaginary(descent3.fundamental_discriminant(partner))
    return descent3.ClassGroup3(k, r3, descent3.SCHOLZ_BOUND, 1)


def test_rank_upper_type1_kernels_match_squarefree_kernel():
    """Every 1 <= |a| <= 5000 and the edge cases of the -3k / gcd(3, k)^2
    kernel, with both signs: a unit, odd powers of 3 alone and with a
    cofactor (3, 27, 3^7 5), and sixth powers that leave the kernel 3 or 1
    (2^6 3, 5^6)."""
    edges = [1, 3, 27, 3**7 * 5, 2**6 * 3, 5**6]
    for n in [*range(1, 5001), *edges]:
        for a in (n, -n):
            comp = descent3.Type1Bound(reference_class_bound(-3 * a), reference_class_bound(a),
                                       len(s_set(a)))
            assert rank_upper_type1(a) == (
                comp.class_unit_total + 2 * comp.s_a, comp), a


def test_square_family_class_unit_constancy():
    values = set()
    for n in range(1, 80):
        if not is_squarefree(n) or n % 3 == 0:
            continue
        _, comp = rank_upper_type1(n * n)
        values.add(comp.class_unit_total)
    assert values == {1}


def test_fixed_k_square_family_takes_few_values():
    # for a = k n^2 the two quadratic fields depend only on k
    for k in (2, 5, -7):
        values = set()
        for n in range(1, 40):
            if not is_squarefree(n) or n % 3 == 0 or n % (3 * abs(k)) == 0:
                continue
            from math import gcd

            if gcd(n, 3 * abs(k)) != 1:
                continue
            _, comp = rank_upper_type1(k * n * n)
            values.add(comp.class_unit_total)
        assert len(values) <= 2, (k, values)
