import hashlib
import io
import random
import sys
import tracemalloc
from collections import Counter
from functools import lru_cache
from fractions import Fraction
from math import gcd, prod

import pytest

from ecdescent import arith, cli, descent2, polys
from ecdescent.arith import (
    factor,
    legendre,
    prime_divisors,
    primes_up_to,
    squarefree_divisors,
    squarefree_kernel,
    unitary_squarefree_divisors,
    valuation,
)
from ecdescent.descent2 import HomogeneousSpace
from ecdescent.errors import DomainError
from ecdescent.families import E2Param, e2_primes, e2_window


def rank_upper(param):
    """`descent2.rank_upper` with the primes it reads."""
    return descent2.rank_upper(param, e2_primes(param))


def sel_phi(param):
    return descent2.sel_phi(param, e2_primes(param))


def sel_phihat(param):
    return descent2.sel_phihat(param, e2_primes(param))


def local_primes(param):
    """The places of both sides of the descent, factored here: 2 and the
    primes of b (a^2 - 4b)."""
    return sorted({2, *prime_divisors(param.b), *prime_divisors(param.disc_quadratic)})


def test_space_validation():
    with pytest.raises(DomainError, match="^degenerate quartic space$"):
        HomogeneousSpace(0, 1, 2)
    with pytest.raises(DomainError, match="^degenerate quartic space$"):
        HomogeneousSpace(1, 2, 0)
    with pytest.raises(DomainError, match="^degenerate quartic space$"):
        HomogeneousSpace(1, 2, 1)  # F^2 = 4 d1 d2
    with pytest.raises(DomainError, match="^degenerate quartic space$"):
        HomogeneousSpace(d1=-1, F=2, d2=-1)  # F^2 = 4 d1 d2 with d1, d2 < 0


def test_real_soluble():
    assert not descent2.real_soluble(HomogeneousSpace(-1, 0, -4))
    assert descent2.real_soluble(HomogeneousSpace(1, 3, 7))
    assert descent2.real_soluble(HomogeneousSpace(-1, 5, -1))
    assert not descent2.real_soluble(HomogeneousSpace(-1, 3, -7))
    assert descent2.real_soluble(HomogeneousSpace(-3, 0, 5))


def test_padic_soluble_examples():
    assert descent2.padic_soluble(HomogeneousSpace(2, 0, 2), 2)
    assert not descent2.padic_soluble(HomogeneousSpace(3, -2, -13), 5)
    for p in (2, 3, 5, 7, 11):
        assert descent2.padic_soluble(HomogeneousSpace(1, 0, -1), p)


def test_padic_vs_naive_search():
    """Spaces with a small rational point must be locally soluble everywhere."""
    rng = random.Random(31)
    found = 0
    while found < 25:
        d1 = rng.randrange(-9, 10)
        F = rng.randrange(-9, 10)
        d2 = rng.randrange(-9, 10)
        try:
            space = HomogeneousSpace(d1, F, d2)
        except DomainError:
            continue
        point = None
        for u in range(4):
            for v in range(4):
                if (u, v) == (0, 0):
                    continue
                val = d1 * u**4 + F * u * u * v * v + d2 * v**4
                if val >= 0 and (val**0.5) == int(val**0.5):
                    point = (u, v)
        if point is None:
            continue
        found += 1
        for p in (2, 3, 5, 7, 13):
            assert descent2.padic_soluble(space, p), (space, p)


def _worklist_decide_zp(c4, c2, c0, p, cap):
    """The first retired search: every expanded class puts all p of its
    children on one list, and the search starts from all p residues."""
    undecided = False
    stack = [(r, 1) for r in range(p)]
    while stack:
        r, k = stack.pop()
        t = c4 * r**4 + c2 * r * r + c0
        if t == 0:
            return True
        v = valuation(t, p)
        if (v <= k - 3) if p == 2 else (v < k):
            if v % 2 == 0:
                u = t // p**v
                if (u % 8 == 1) if p == 2 else (legendre(u, p) == 1):
                    return True
            continue
        if k >= cap:
            undecided = True
            continue
        step = p**k
        stack.extend((r + j * step, k + 1) for j in range(p))
    return None if undecided else False


def _depth_first_decide_zp(c4, c2, c0, p, cap, first):
    """The second retired search: the same closing rule, depth first with one
    lazy digit iterator per depth.  A class x = r mod p^k is closed only once
    v = nu_p(g(r)) < k (odd p) or v <= k - 3 (p = 2), when the value's
    valuation and unit class are constant on it; otherwise all p children
    are opened."""
    undecided = False
    stack = [iter(first)]
    while stack:
        if (r := next(stack[-1], None)) is None:
            stack.pop()
            continue
        k = len(stack)
        t = c4 * r**4 + c2 * r * r + c0
        if t == 0:
            return True
        # a child of an unresolved class has nu_p(t) >= known: divide once
        known = max(k - 3, 0) if p == 2 else k - 1
        if known:
            t //= p**known
        v = known + valuation(t, p)
        if (v <= k - 3) if p == 2 else (v < k):  # then v = known
            if v % 2 == 0:
                if p == 2:
                    if t % 8 == 1:
                        return True
                elif pow(t, (p - 1) // 2, p) == 1:
                    return True
            continue
        if k >= cap:
            undecided = True
            continue
        step = p**k
        stack.append(iter(range(r + (p - 1) * step, r - 1, -step)))
    return None if undecided else False


def _reference_cap(space, p, depth_margin):
    d1, F, d2 = space.d1, space.F, space.d2
    cap = valuation(4 * d1 * d2 * (F * F - 4 * d1 * d2), p) + depth_margin
    return cap + 2 if p == 2 else cap


def _two_charts(first, second):
    if first is True or second is True:
        return True
    return "Undecided" if None in (first, second) else False


def worklist_padic_soluble(space, p, depth_margin):
    """The first retired driver: x = U/V and x = V/U both over all of Z_p."""
    d1, F, d2 = space.d1, space.F, space.d2
    cap = _reference_cap(space, p, depth_margin)
    first = _worklist_decide_zp(d1, F, d2, p, cap)
    return _two_charts(first, first or _worklist_decide_zp(d2, F, d1, p, cap))


def reference_padic_soluble(space, p, depth_margin):
    """The second retired driver: x = U/V over Z_p, x = V/U over pZ_p."""
    d1, F, d2 = space.d1, space.F, space.d2
    cap = _reference_cap(space, p, depth_margin)
    first = _depth_first_decide_zp(d1, F, d2, p, cap, range(p - 1, -1, -1))
    return _two_charts(first, first or _depth_first_decide_zp(d2, F, d1, p, cap, (0,)))


def check_against_reference(space, p, margin):
    """The outcome kind: the search's answer equals the reference's where the
    reference decides at this margin, and the reference's answer at margin 12
    where it hits its cap."""
    want = reference_padic_soluble(space, p, margin)
    kind = want
    if want == "Undecided":
        want = reference_padic_soluble(space, p, 12)
        kind = f"Undecided at {margin}"
    assert want != "Undecided", (space, p)
    assert descent2.padic_soluble(space, p) == want, (space, p, margin)
    return kind


def test_padic_soluble_against_reference_box():
    """Every phi and phi-hat space of |a| <= 6, |b| <= 16 at every local
    prime: the search, which has no cap, gives the reference's True/False,
    also where the reference hits its cap at margin 0 or 1."""
    tally = Counter()
    for a in range(-6, 7):
        for b in range(-16, 17):
            n = a * a - 4 * b
            if b * n == 0:
                continue
            primes = {2} | {p for p, _ in factor(b * n)}
            spaces = [HomogeneousSpace(d, -2 * a, n // d) for d in squarefree_divisors(n)]
            spaces += [HomogeneousSpace(d, a, b // d) for d in squarefree_divisors(b)]
            for space in spaces:
                for p in primes:
                    for margin in (0, 1, 2, 5):
                        tally[check_against_reference(space, p, margin)] += 1
    kinds = (True, False, "Undecided at 0", "Undecided at 1")
    assert min(tally[kind] for kind in kinds) > 200, tally


def test_reference_searches_agree():
    """The two retired searches give the same True/False/Undecided."""
    for a in range(-4, 5):
        for b in range(-8, 9):
            n = a * a - 4 * b
            if b * n == 0:
                continue
            primes = {2} | {p for p, _ in factor(b * n)}
            for d in squarefree_divisors(n):
                space = HomogeneousSpace(d, -2 * a, n // d)
                for p in primes:
                    for margin in (0, 1, 5):
                        assert (worklist_padic_soluble(space, p, margin)
                                == reference_padic_soluble(space, p, margin)), (space, p)


def test_padic_soluble_against_reference_random():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(-200, 200).filter(bool)
    tally = Counter()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(coeff, st.integers(-200, 200), coeff,
                      st.sampled_from(primes_up_to(50)), st.sampled_from((0, 1, 2, 5)))
    def check(d1, F, d2, p, margin):
        hypothesis.assume(F * F != 4 * d1 * d2)
        tally[check_against_reference(HomogeneousSpace(d1, F, d2), p, margin)] += 1

    check()
    assert tally[True] > 100 and tally[False] > 10, tally


def test_big_prime_is_decided_at_the_root(monkeypatch):
    """At p = 1000003, g = (x^2 - 1)^2 mod p.  The retired closing rule
    opened all p children of x = -1 mod p, over 10^6 valuation calls,
    before it tried another residue."""
    calls = Counter()

    def counting(n, p):
        calls[p] += 1
        return valuation(n, p)

    monkeypatch.setattr(descent2, "valuation", counting)
    est = rank_upper(E2Param(1, 3000009))
    assert 1 in est.phi_classes and 1 in est.phihat_classes
    assert sum(calls.values()) < 1000, calls


def test_selmer_loop_does_not_recheck_primes(monkeypatch):
    """The local primes come from the caller's, which `e2_primes` factored."""
    def no_call(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(descent2, "is_prime", no_call)
    est = rank_upper(E2Param(1, 3000009))
    assert 1 in est.phi_classes and 1 in est.phihat_classes


def test_children_keep_one_of_each_pair():
    """Of the p children of r mod p^k, all stay unless the class is its own
    negative; then the kept ones and their negatives are all the children,
    and no two kept ones are negatives of each other."""
    for p in (2, 3, 5, 7):
        for k in range(4):
            step, top = p**k, p ** (k + 1)
            for r in range(step):
                kept = [c % top for c in descent2._children(r, step, p)]
                every = {r + j * step for j in range(p)}
                if 2 * r % step:
                    assert sorted(kept) == sorted(every), (p, k, r)
                    continue
                assert set(kept) | {-c % top for c in kept} == every, (p, k, r)
                assert len({frozenset((c, -c % top)) for c in kept}) == len(kept), (p, k, r)


def test_insoluble_wide_search_visits_half_the_residues(monkeypatch):
    """g = -(x^2 - 1)^2 + p with p = 3 mod 4: every unit value is a
    non-square, and x = +-1 mod p gives nu_p(g) = 1, so the search visits
    every residue class mod p up to sign, (p + 1) / 2 of them, and the class
    0 mod p of the second chart."""
    p = 21067
    calls = 0

    def counting(n, q):
        nonlocal calls
        calls += 1
        return valuation(n, q)

    monkeypatch.setattr(descent2, "valuation", counting)
    descent2._padic_soluble_cached.cache_clear()
    try:
        assert not descent2._padic_soluble_cached(-1, 2, p - 1, p)
    finally:
        descent2._padic_soluble_cached.cache_clear()
    assert calls <= (p + 1) // 2 + 2, calls


def test_padic_search_memory_does_not_grow_with_p():
    descent2._padic_soluble_cached.cache_clear()
    tracemalloc.start()
    try:
        assert descent2.padic_soluble(HomogeneousSpace(3, -2, -13), 181499)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_padic_soluble_rejects_composite_p_every_call():
    space = HomogeneousSpace(1, 0, -1)
    for _ in range(2):  # the DomainError is not cached
        with pytest.raises(DomainError):
            descent2.padic_soluble(space, 9)


def test_padic_search_is_not_recursive(monkeypatch):
    """g = 2 (x^2 - 6)^2 + 5^2400, and 2 is a non-residue mod 5, so every
    class x = sqrt(6) mod 5^k with k < 1200 splits: the search goes deeper
    than Python's recursion limit, reading the depth off the caller's `k`.
    sqrt(6) in Z_5 is no integer, so no residue digit is an exact root that
    would end the search early, whatever order the digits come in."""
    depth = 0

    def spying(n, p):
        nonlocal depth
        depth = max(depth, sys._getframe(1).f_locals["k"])
        return valuation(n, p)

    monkeypatch.setattr(descent2, "valuation", spying)
    descent2._padic_soluble_cached.cache_clear()
    try:
        assert descent2.padic_soluble(HomogeneousSpace(2, -24, 72 + 5**2400), 5)
    finally:
        descent2._padic_soluble_cached.cache_clear()
    assert depth > sys.getrecursionlimit(), depth


def test_quartic_resultant_closed_form():
    """Res(g, g') = 16 c4^2 c0 (c2^2 - 4 c4 c0)^2, the bound behind the
    search's depth invariant, against `polys.resultant`, in both charts (c4
    and c0 swap)."""
    checked = 0
    for d1 in range(-6, 7):
        for F in range(-8, 9):
            for d2 in range(-6, 7):
                if d1 * d2 * (F * F - 4 * d1 * d2) == 0:
                    continue
                for c4, c0 in ((d1, d2), (d2, d1)):
                    g = [c0, 0, F, 0, c4]
                    assert (descent2.quartic_resultant(c4, F, c0)
                            == polys.resultant(g, polys.derivative(g))), (c4, F, c0)
                checked += 1
    assert checked == 2424


def test_split_past_the_resultant_raises(monkeypatch):
    """g = -4 x^4 - 6 x^2 - 81 splits the class 0 mod 9; with a resultant
    of 3-adic valuation 1 that split breaks the invariant."""
    c4, c2, c0 = -4, -6, -81
    assert descent2.quartic_resultant(c4, c2, c0) % 9 == 0
    assert descent2._decide_zp(c4, c2, c0, 3, range(2, -1, -1)) is False
    monkeypatch.setattr(descent2, "quartic_resultant", lambda *coeffs: 3)
    with pytest.raises(ArithmeticError, match=r"class 0 mod 3\^2 .* splits past nu_3"):
        descent2._decide_zp(c4, c2, c0, 3, range(2, -1, -1))


def test_padic_cache_is_bounded():
    assert descent2._padic_soluble_cached.cache_info().maxsize == arith.CACHE_BOUND == 1 << 16


def test_rank_upper_leaves_the_padic_cache_empty():
    """The Selmer loop keeps its decisions in a dict of its own call; only
    the public `padic_soluble` fills the process-wide cache."""
    descent2._padic_soluble_cached.cache_clear()
    for param in (E2Param(1, 30), E2Param(-3, 210), E2Param(2, -7)):
        rank_upper(param)
        assert descent2._padic_soluble_cached.cache_info().currsize == 0, param


def test_rank_upper_factors_nothing(monkeypatch):
    """The caller's primes are the only ones read: both Selmer sets come from
    them, a prime of them that divides neither b nor a^2 - 4b (3 and 5
    below) is no place, and nothing is factored."""
    cases = [(E2Param(-3, 210), [2, 3, 5, 7, 277], {2, 3, 5, 7, 277}),
             (E2Param(1, -7), {2, 3, 7, 29}, {2, 7, 29}),
             (E2Param(0, -1), {5, 2, 3}, {2})]
    expected = [rank_upper(param) for param, _, _ in cases]
    calls, read = [], set()
    factor_abs, square_class = arith._factor_abs, descent2._square_class
    monkeypatch.setattr(arith, "_factor_abs", lambda n: calls.append(n) or factor_abs(n))
    monkeypatch.setattr(descent2, "_square_class", lambda d, p: read.add(p) or square_class(d, p))
    for (param, primes, places), est in zip(cases, expected):
        read.clear()
        assert descent2.rank_upper(param, primes) == est, param
        assert read == places, (param, read)
    assert calls == []


def test_rank_upper_raises_on_a_missing_prime():
    """Each odd prime of b and of a^2 - 4b left out of `primes` raises; 2 is
    a place of every descent, so it need not be given."""
    for param in (E2Param(-3, 210), E2Param(1, 15), E2Param(2, -7 * 11**3), E2Param(4, 3)):
        primes = e2_primes(param)
        assert descent2.rank_upper(param, primes - {2}) == rank_upper(param)
        missing = set(local_primes(param)) - {2}
        assert missing
        for p in missing:
            with pytest.raises(ArithmeticError, match="has a prime outside"):
                descent2.rank_upper(param, primes - {p})


def test_many_prime_descent_decides_each_square_class_once(monkeypatch):
    """b = -152125131763605 = -3 * 5 * ... * 41 has 12 primes and a^2 - 4b
    two more: 15 local primes and 2^13 classes on the phi-hat side.  Each
    side decides at most 8 square classes at p = 2 and 4 at each odd p."""
    param = E2Param(1, -152125131763605)
    local = local_primes(param)
    assert len(local) == 15 and len(squarefree_divisors(param.b)) == 8192
    calls = 0
    qp_soluble = descent2._qp_soluble

    def counting(*args):
        nonlocal calls
        calls += 1
        return qp_soluble(*args)

    monkeypatch.setattr(descent2, "_qp_soluble", counting)
    est = rank_upper(param)
    assert (est.dim_phi, est.dim_phihat) == (1, 12)
    assert calls <= 2 * (8 + 4 * 14), calls


def _class_at(n, p):
    """The class of nonzero n in Q_p*/Q_p*^2: (nu_p(n) mod 2, unit part's
    residue mod 8 at p = 2 or Legendre symbol at odd p)."""
    v = valuation(n, p)
    u = n // p**v
    return v % 2, u % 8 if p == 2 else legendre(u, p)


@pytest.mark.parametrize("side", ["phi", "phihat"])
def test_solubility_depends_only_on_the_square_class(side):
    """At every local p, classes d with the same nu_p(d) and the same unit
    part mod squares (Legendre symbol at odd p, residue mod 8 at p = 2) get
    the same `_qp_soluble` answer, and the soluble classes form a subgroup
    W_p holding the classes of 1 and b (the images of O and T), so every
    coset of W_p decides alike: the lemmas behind the Selmer loop's `good`
    set and its `span` of insoluble classes."""
    spaces = pairs = 0
    for a in range(-8, 9):
        for b in range(-64, 65):
            if b * (a * a - 4 * b) == 0:
                continue
            param = E2Param(a, b)
            sa, sb = param.dual if side == "phi" else param
            for p in local_primes(param):
                answers, reps = {}, {}
                for d in squarefree_divisors(sb):
                    key = _class_at(d, p)
                    soluble = descent2._qp_soluble(d, sa, sb // d, p)
                    assert answers.setdefault(key, soluble) == soluble, (param, side, p, d)
                    reps.setdefault(key, d)
                    spaces += 1
                good = [key for key, soluble in answers.items() if soluble]
                assert _class_at(1, p) in good and _class_at(sb, p) in good, (param, side, p)
                for g in good:
                    for key, soluble in answers.items():
                        product = _class_at(reps[g] * reps[key], p)
                        assert answers.get(product, soluble) == soluble, (param, side, p, g, key)
                pairs += 1
    assert spaces > 20000 and pairs == 7012, (spaces, pairs)


def _selmer_per_class_memo(side, local):
    """The retired Selmer loop: one search per (p, square class), each answer
    kept for that class alone.  The reference for the basis loop."""
    a, b = side
    negative_ok = descent2.real_soluble(HomogeneousSpace(-1, a, -b))
    decided = {}
    out = []
    for d in squarefree_divisors(b):
        if d < 0 and not negative_ok:
            continue
        e = b // d
        for p in local:
            q, r = divmod(d, p)
            u = d if r else q
            key = (p, r == 0, u % 8 if p == 2 else pow(u, (p - 1) // 2, p))
            if key not in decided:
                decided[key] = descent2._qp_soluble(d, a, e, p)
            if not decided[key]:
                break
        else:
            out.append(d)
    return out


def _selmer_coset_loop(side, local):
    """The retired Selmer loop over all 2^(k+1) signed divisors of b: at each
    p, `good` (the known part of W_p) starts as the classes of 1 and b, `bad`
    is the union of its cosets found insoluble, and a class in neither is
    searched once.  The reference for the basis loop."""
    a, b = side
    negative_ok = descent2.real_soluble(HomogeneousSpace(-1, a, -b))
    t = squarefree_kernel(b)
    states = [(p, {0, descent2._square_class(t, p)}, set()) for p in local]
    out = []
    for d in squarefree_divisors(b):
        if d < 0 and not negative_ok:
            continue
        for p, good, bad in states:
            c = descent2._square_class(d, p)
            if c in good:
                continue
            if c in bad:
                break
            coset = {c ^ g for g in good}
            if descent2._qp_soluble(d, a, b // d, p):
                good |= coset
                bad |= {x ^ g for x in bad for g in coset}
            else:
                bad |= coset
                break
        else:
            out.append(d)
    return out


def _odd_prime_product(k):
    return prod(primes_up_to(100)[1:k + 1])


def test_selmer_matches_the_coset_loop():
    """On both sides of y^2 = x^3 + x^2 - n x for n the product of the first k
    odd primes, k = 12 ... 16 (up to 2^17 classes).  The small-height box is
    `test_selmer_matches_the_per_class_memo`'s, whose reference agrees with
    this loop there.  At k = 17 the coset loop takes 7 s; the sha256 pinned
    below is that of its output."""
    for k in range(12, 17):
        param = E2Param(1, -_odd_prime_product(k))
        local, est = local_primes(param), rank_upper(param)
        assert est.phi_classes == _selmer_coset_loop(param.dual, local), k
        assert est.phihat_classes == _selmer_coset_loop(param, local), k


def test_seventeen_prime_descent_reads_few_square_classes(monkeypatch):
    """b = -3 * 5 * ... * 61, the product of the first 17 odd primes, has
    2^18 signed divisors.  The basis loop reads the square classes of its
    basis elements at each local prime, under 1,000 of them (the divisor
    loop read 2,621,516), and the output keeps the sha256 of that loop."""
    calls = 0
    square_class = descent2._square_class

    def counting(d, p):
        nonlocal calls
        calls += 1
        return square_class(d, p)

    monkeypatch.setattr(descent2, "_square_class", counting)
    out = io.StringIO()
    assert _odd_prime_product(17) == 58644190679703485491635
    assert cli.main(["descent", "--a", "1", "--b", "-58644190679703485491635"], out=out) == 0
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == "d482d11686a71aa789b10940d2ffef04d113935c3dcc03b413bc214630815425")
    assert calls < 1000, calls


def test_selmer_matches_the_per_class_memo():
    curves = 0
    for param in e2_window(12):
        local, est = local_primes(param), rank_upper(param)
        assert est.phi_classes == _selmer_per_class_memo(param.dual, local), param
        assert est.phihat_classes == _selmer_per_class_memo(param, local), param
        curves += 1
    assert curves == 7188, curves


def _selmer_unpruned(side, local):
    """The retired basis loop, which searched every class that `good` and
    `span` left open, with no annihilator from the other side: the reference
    for the pruned one, whose bases must be the same ints in the same order."""
    a, b = side
    fac = arith.factor_over(b, local, side)
    t = (1 if b > 0 else -1) * prod(p for p, e in fac if e % 2)
    basis = [p for p, _ in fac]
    if descent2.real_soluble(HomogeneousSpace(-1, a, -b)):
        basis.append(-1)
    for p in local:
        good, span, kept = {0, descent2._square_class(t, p)}, {0: 1}, []
        for s in basis:
            if (c := descent2._square_class(s, p)) in good:
                kept.append(s)
                continue
            y = next((y for y in span if c ^ y in good), None)
            if y is None:
                for y, e in span.items():
                    if descent2._qp_soluble(d := arith.class_product(s, e), a, b // d, p):
                        good |= {c ^ y ^ g for g in good}
                        break
                else:
                    span.update({c ^ x: arith.class_product(s, e) for x, e in span.items()})
                    continue
            kept.append(arith.class_product(s, span[y]))
        basis = kept
    return basis


def test_pruned_selmer_matches_the_unpruned_reference():
    """Every curve with |a| <= 12 and |b| <= 144, both sides: the classes
    that duality rules out change no basis element and no order."""
    curves = 0
    for param in e2_window(12):
        local, est = local_primes(param), rank_upper(param)
        assert list(est.phi_basis) == _selmer_unpruned(param.dual, local), param
        assert list(est.phihat_basis) == _selmer_unpruned(param, local), param
        curves += 1
    assert curves == 7188, curves


def _count_searches(monkeypatch, params):
    """`rank_upper` of each of params and the `_qp_soluble` calls made."""
    calls = 0
    qp_soluble = descent2._qp_soluble

    def counting(*args):
        nonlocal calls
        calls += 1
        return qp_soluble(*args)

    monkeypatch.setattr(descent2, "_qp_soluble", counting)
    bases = [rank_upper(param) for param in params]
    monkeypatch.setattr(descent2, "_qp_soluble", qp_soluble)
    return bases, calls


def test_duality_pruning_is_active_and_only_prunes(monkeypatch):
    """Over the height-8 window, with every class allowed, the cut makes the
    unpruned loop's 7,972 searches, 3,304 more than with the annihilators,
    and finds the same bases."""
    params = list(e2_window(8))
    pruned, calls = _count_searches(monkeypatch, params)
    monkeypatch.setattr(descent2, "_annihilator", lambda q, group: frozenset(range(8)))
    unpruned, unpruned_calls = _count_searches(monkeypatch, params)
    assert (calls, unpruned_calls) == (4668, 7972)
    assert pruned == unpruned


def test_selmer_searches_only_unsettled_classes(monkeypatch):
    """Over the height-8 window the basis loop makes at most 5,000 searches
    (4,668 with the other side's annihilator, 7,972 without it; the coset
    loop made 8,056, the per-class memo 36,865), and none for a class of 1
    or b, which start out known soluble."""
    calls = 0
    qp_soluble = descent2._qp_soluble

    def counting(d1, F, d2, p):
        nonlocal calls
        calls += 1
        assert _class_at(d1, p) not in (_class_at(1, p), _class_at(d1 * d2, p)), (d1, F, d2, p)
        return qp_soluble(d1, F, d2, p)

    monkeypatch.setattr(descent2, "_qp_soluble", counting)
    for param in e2_window(8):
        rank_upper(param)
    assert calls <= 5000, calls


def test_real_solubility_depends_only_on_the_sign():
    """Over R the space (d, a, b/d) of a square-free d | b decides as that of
    its sign class (sign d, a, sign d * b): the lemma behind `_selmer`
    deciding the real place once per side."""
    classes = 0
    for a in range(-20, 21):
        for b in range(-200, 201):
            if b * (a * a - 4 * b) == 0:
                continue
            param = E2Param(a, b)
            for sa, sb in (param.dual, param):
                for d in squarefree_divisors(sb):
                    s = 1 if d > 0 else -1
                    assert (descent2.real_soluble(HomogeneousSpace(d, sa, sb // d))
                            == descent2.real_soluble(HomogeneousSpace(s, sa, s * sb))), (
                        param, (sa, sb), d)
                    classes += 1
    assert classes > 250000, classes


def test_rank_upper_of_the_dual_swaps_the_sides():
    """The isogenous curve's descent is the same descent read the other way:
    dim_phi and dim_phihat swap and the bound stays."""
    curves = 0
    for a in range(-6, 7):
        for b in range(-40, 41):
            if b * (a * a - 4 * b) == 0:
                continue
            param = E2Param(a, b)
            est, dual = rank_upper(param), rank_upper(param.dual)
            assert (dual.dim_phi, dual.dim_phihat) == (est.dim_phihat, est.dim_phi), param
            assert dual.rank_upper == est.rank_upper, param
            curves += 1
    assert curves == 1034


def fastpath(a, b, d, p):
    """The closed-form insolubility rule of `stats.has_insolubility_certificate`
    for the phi-space of class d at p (acceptance criterion 05)."""
    return legendre(d, p) == -1 and descent2.nonresidues_insoluble(a, b, p)


def test_fastpath_examples():
    assert fastpath(1, 10, 3, 5)
    assert not fastpath(1, 10, -1, 5)
    # odd-valuation branch: (7/5) = -1, nu_5(15) = 1, (2/5) = -1
    assert fastpath(2, 15, 7, 5)


def test_fastpath_agrees_with_solver_small():
    checked = 0
    for a in range(-12, 13):
        for b in range(-12, 13):
            if b == 0:
                continue
            n = a * a - 4 * b
            if n == 0:
                continue
            for p in (5, 7, 11, 13):
                if b % p or a % p == 0:
                    continue
                for d0 in unitary_squarefree_divisors(n):
                    for d in (d0, -d0):
                        soluble = descent2.padic_soluble(HomogeneousSpace(d, -2 * a, n // d), p)
                        assert fastpath(a, b, d, p) == (not soluble), (a, b, d, p)
                        checked += 1
    assert checked > 100


def _survivors_ref(param, quartic_of, classes):
    """Classes whose own space is soluble over R and at every local prime,
    each tested class by class: the oracle for the Selmer loop's decisions
    per square class, the sign class at the real place included."""
    local = local_primes(param)
    out = []
    for d in classes:
        space = quartic_of(d)
        if not descent2.real_soluble(space):
            continue
        if all(descent2.padic_soluble(space, p) for p in local):
            out.append(d)
    return out


def sel_phi_ref(param):
    """The phi side built from its own spaces, before it became the phi-hat
    side of the dual."""
    n = param.disc_quadratic
    classes = squarefree_divisors(n)
    quartic = lambda d: HomogeneousSpace(d, -2 * param.a, n // d)
    return _survivors_ref(param, quartic, classes)


def sel_phihat_ref(param):
    classes = squarefree_divisors(param.b)
    quartic = lambda d: HomogeneousSpace(d, param.a, param.b // d)
    return _survivors_ref(param, quartic, classes)


def test_selmer_sides_match_reference():
    checked = 0
    for a in range(-8, 9):
        for b in range(-64, 65):
            if b * (a * a - 4 * b) == 0:
                continue
            param = E2Param(a, b)
            assert sel_phi(param) == sel_phi_ref(param), param
            assert sel_phihat(param) == sel_phihat_ref(param), param
            checked += 1
    assert checked == 2168


def test_sel_phi_examples():
    assert sel_phi(E2Param(0, -1)) == [1, 2]
    assert sel_phihat(E2Param(0, -1)) == [1, -1]
    assert sel_phi(E2Param(0, 1)) == [1, -1, 2, -2]
    assert sel_phihat(E2Param(0, 1)) == [1]
    assert 1 in sel_phihat(E2Param(0, 4))
    assert len(sel_phi(E2Param(3, 3))) == 2


def test_rank_upper_examples():
    for ab in ((0, -1), (0, 1), (3, 3)):
        est = rank_upper(E2Param(*ab))
        assert est.rank_upper == 0, ab
        assert 1 in est.phi_classes and 1 in est.phihat_classes
        assert est.rank_upper == max(est.dim_phi + est.dim_phihat - 2, 0)


def test_rank_upper_clamp():
    # b and a^2 - 4b both perfect squares force tiny Selmer sets; the torsion
    # images alone give dim_phi + dim_phihat >= 2, so no bound needs a clamp
    est = rank_upper(E2Param(5, 4))
    assert "clamped" not in est._fields
    assert est.rank_upper == est.dim_phi + est.dim_phihat - 2 >= 0
    for param in e2_window(4):
        est = rank_upper(param)
        assert est.dim_phi + est.dim_phihat >= 2, param


def test_rank_upper_below_torsion_images_raises(monkeypatch):
    monkeypatch.setattr(descent2, "_selmer",
                        lambda side, fac, t, other: ([], {p: frozenset({0}) for p in other}))
    with pytest.raises(ArithmeticError, match=r"^Selmer dimensions 0 \+ 0 are below"):
        rank_upper(E2Param(0, -1))


def test_rank_upper_scaling_invariance():
    rng = random.Random(12)
    done = 0
    while done < 15:
        a = rng.randrange(-8, 9)
        b = rng.randrange(-8, 9)
        if b * (a * a - 4 * b) == 0:
            continue
        base = rank_upper(E2Param(a, b)).rank_upper
        for u in (2, 3):
            scaled = rank_upper(E2Param(u * u * a, u**4 * b)).rank_upper
            assert scaled == base, (a, b, u)
        done += 1


def test_either_or_small_box():
    """At least one of the two Selmer sets has no negative class."""
    for a in range(-10, 11):
        for b in range(-10, 11):
            if b * (a * a - 4 * b) == 0:
                continue
            est = rank_upper(E2Param(a, b))
            assert min(est.phi_classes) > 0 or min(est.phihat_classes) > 0, (a, b)


def test_group_closure():
    """Surviving classes form a subgroup of Q(T) modulo squares."""
    rng = random.Random(77)
    done = 0
    while done < 20:
        a = rng.randrange(-12, 13)
        b = rng.randrange(-12, 13)
        if b * (a * a - 4 * b) == 0:
            continue
        done += 1
        for classes in (sel_phi(E2Param(a, b)), sel_phihat(E2Param(a, b))):
            group = set(classes)
            assert len(group) & (len(group) - 1) == 0  # power of 2
            for d1 in group:
                for d2 in group:
                    assert squarefree_kernel(d1 * d2) in group, (a, b, d1, d2)


def search_points(a, b, bound=60):
    """Naive rational points on y^2 = x^3 + ax^2 + bx with x = u/v, height <= bound."""
    pts = []
    for v in range(1, bound + 1):
        for u in range(-bound, bound + 1):
            if gcd(abs(u), v) != 1 or u == 0:
                continue
            x = Fraction(u, v)
            y2 = x**3 + a * x * x + b * x
            if y2 < 0:
                continue
            ynum = y2.numerator
            yden = y2.denominator
            from math import isqrt

            if isqrt(ynum) ** 2 == ynum and isqrt(yden) ** 2 == yden:
                pts.append(x)
    return pts


def test_global_point_soundness():
    """Square classes of x-coordinates of rational points survive.

    Points of E_{a,b} land in the phi-hat Selmer set (spaces built from b);
    points of the dual curve E_{-2a, a^2-4b} land in the phi Selmer set.
    """
    for a, b in ((0, -1), (1, -1), (3, 2), (-2, -3), (0, 2), (1, 4)):
        if b * (a * a - 4 * b) == 0:
            continue
        param = E2Param(a, b)
        phihat = set(sel_phihat(param))
        for x in search_points(a, b):
            d = squarefree_kernel(x.numerator * x.denominator)
            assert d in phihat, (a, b, x)
        phi = set(sel_phi(param))
        for x in search_points(-2 * a, a * a - 4 * b):
            d = squarefree_kernel(x.numerator * x.denominator)
            assert d in phi, (a, b, x)


def _dependent(on, extra):
    """`_selmer` with extra(basis) appended to the basis of side `on`."""
    selmer = descent2._selmer

    def injected(side, *args):
        basis, goods = selmer(side, *args)
        return [*basis, extra(basis)] if side == on else basis, goods

    return injected


def test_selmer_invariants_raise(monkeypatch):
    """A dependent basis spans fewer than 2^k classes: its span repeats one.
    Here the product of the first two elements is appended."""
    assert descent2._span([2, -1]) == [1, -1, 2, -2]
    with pytest.raises(ArithmeticError, match=r"^Selmer basis \[2, -1, -2\] is dependent$"):
        descent2._span([2, -1, -2])
    param = E2Param(0, 1)
    assert rank_upper(param).dim_phi == 2
    product = lambda basis: arith.class_product(*basis[:2])
    monkeypatch.setattr(descent2, "_selmer", _dependent(param.dual, product))
    with pytest.raises(ArithmeticError, match="is dependent"):
        rank_upper(param)


@pytest.mark.parametrize("param, side", [(E2Param(0, -1), "phihat"), (E2Param(0, 1), "phi")])
def test_rank_upper_lost_torsion_class_raises(monkeypatch, param, side):
    """The torsion class -1 (b/d, or (a^2 - 4b)/d on the phi side, a square)
    is swapped for 7, which keeps the sets' sizes and the trivial class."""
    selmer = descent2._selmer
    lose_on = param if side == "phihat" else param.dual

    def losing(found_side, *args):
        found, goods = selmer(found_side, *args)
        return [7 if d == -1 else d for d in found] if found_side == lose_on else found, goods

    monkeypatch.setattr(descent2, "_selmer", losing)
    with pytest.raises(ArithmeticError, match="torsion class must survive"):
        rank_upper(param)


def test_rank_upper_dependent_basis_raises(monkeypatch):
    """The trivial class as a basis element, the empty product of the others,
    is the smallest dependent basis."""
    param = E2Param(0, -1)
    monkeypatch.setattr(descent2, "_selmer", _dependent(param, lambda basis: 1))
    with pytest.raises(ArithmeticError, match=r"^Selmer basis \[-1, 1\] is dependent$"):
        rank_upper(param)


def _serre_hilbert(x, y, p):
    """(x, y)_p for nonzero integers as +1 or -1, written out from Serre, A
    Course in Arithmetic, III.1.2, Theorem 1: with x = p^al u, y = p^be v,
    (-1)^(al be eps(p)) (u/p)^be (v/p)^al at odd p and
    (-1)^(eps(u) eps(v) + al omega(v) + be omega(u)) at p = 2, where
    eps(z) = (z - 1)/2 and omega(z) = (z^2 - 1)/8 mod 2."""
    al, be = valuation(x, p), valuation(y, p)
    u, v = x // p**al, y // p**be
    if p == 2:
        eps = lambda z: (z - 1) // 2 % 2
        omega = lambda z: (z * z - 1) // 8 % 2
        return (-1) ** (eps(u) * eps(v) + al * omega(v) + be * omega(u))
    return (-1) ** (al * be * ((p - 1) // 2)) * legendre(u, p) ** be * legendre(v, p) ** al


def test_hilbert_matches_serre():
    """`_hilbert` on square-class codes against Serre's formula, on every
    pair of signed square-free |d| <= 60 at every p <= 13."""
    classes = [s * d for d in range(1, 61) if squarefree_kernel(d) == d for s in (1, -1)]
    pairs = 0
    for p in (2, 3, 5, 7, 11, 13):
        for x in classes:
            for y in classes:
                code = descent2._hilbert(descent2._square_class(x, p),
                                         descent2._square_class(y, p), p)
                assert (-1) ** code == _serre_hilbert(x, y, p), (x, y, p)
                pairs += 1
    assert pairs == 32856, pairs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hilbert_is_a_nondegenerate_symmetric_bilinear_form(p):
    """On Q_p*/Q_p*^2 (8 codes at p = 2, 4 at odd p, one p of each class mod
    4): symmetric, additive in each argument, and nondegenerate, so that an
    annihilator of a subgroup G has order |Q_p*/Q_p*^2| / |G| and its own
    annihilator is G again."""
    codes = range(8 if p == 2 else 4)
    h = lambda x, y: descent2._hilbert(x, y, p)
    for x in codes:
        assert any(h(x, y) for y in codes) == (x != 0), (p, x)
        for y in codes:
            assert h(x, y) == h(y, x), (p, x, y)
            for z in codes:
                assert h(x ^ z, y) == h(x, y) ^ h(z, y), (p, x, y, z)
    groups = {frozenset({0, x, y, x ^ y}) for x in codes for y in codes}
    groups |= {frozenset({0, x, y, x ^ y, z, x ^ z, y ^ z, x ^ y ^ z})
               for x in codes for y in codes for z in codes}
    for group in groups:
        ann = descent2._annihilator(p % 4, group)
        assert len(ann) * len(group) == len(codes), (p, group)
        assert descent2._annihilator(p % 4, ann) == group, (p, group)


def test_square_class_cache_is_bounded(monkeypatch):
    """`_square_class` is a cache of at most `CACHE_BOUND` entries; rebuilt at
    a bound of 4, it stays there over a window and the bounds do not move."""
    assert descent2._square_class.cache_info().maxsize == arith.CACHE_BOUND == 1 << 16
    params = list(e2_window(4))
    expected = [rank_upper(param) for param in params]
    monkeypatch.setattr(arith, "CACHE_BOUND", 4)
    small = lru_cache(maxsize=arith.CACHE_BOUND)(descent2._square_class.__wrapped__)
    monkeypatch.setattr(descent2, "_square_class", small)
    assert [rank_upper(param) for param in params] == expected
    info = small.cache_info()
    assert info.currsize == 4 and info.misses > 4, info


@pytest.fixture
def clear_annihilators():
    """The annihilators are cached; a patched `_hilbert` must fill no entry
    that a later test reads."""
    descent2._annihilator.cache_clear()
    yield
    descent2._annihilator.cache_clear()


def test_descent_with_a_wrong_hilbert_symbol_exits_1(clear_annihilators, monkeypatch, capsys):
    """A symbol that pairs everything to -1 breaks the first duality check:
    the torsion classes 1 and -1 of y^2 = x^3 - x (on the phi side, that of
    (0, 4), and on the phi-hat side) must pair to +1 at 2."""
    monkeypatch.setattr(descent2, "_hilbert", lambda x, y, p: 1)
    out = io.StringIO()
    assert cli.main(["descent", "--a", "0", "--b", "-1"], out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == ("error: torsion class 1 of (0, 4) pairs to -1 with the "
                                       "other side's local image at 2\n")


def test_phi_image_off_the_torsion_annihilator_raises(monkeypatch):
    """A phi side that reports 3 (code 2 at p = 2) soluble at 2, where
    (3, -1)_2 = -1, puts t' = -1 outside the annihilator the phi-hat side
    searches in."""
    param = E2Param(0, -1)
    selmer = descent2._selmer

    def widened(side, *args):
        basis, goods = selmer(side, *args)
        return basis, {**goods, 2: goods[2] | {2}} if side == param.dual else goods

    monkeypatch.setattr(descent2, "_selmer", widened)
    with pytest.raises(ArithmeticError, match=r"^torsion class -1 of \(0, -1\) pairs to -1 "):
        rank_upper(param)
