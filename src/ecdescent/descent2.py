"""Full descent via 2-isogeny for y^2 = x^3 + ax^2 + bx.

Signed square-free divisor classes d of b index quartic homogeneous spaces
Z^2 = d U^4 + a U^2 V^2 + (b/d) V^4, which survive into the phi-hat Selmer
set when soluble over R and over Q_p for every p | 2b(a^2 - 4b); the phi set
is that of the dual E_{-2a, a^2-4b} at the same primes.  The rank bound is
dim_phi + dim_phihat - 2.

p-adic solubility is decided exactly: (U, V) is scaled primitive and the
residue classes x + p^k Z_p of P^1(Z_p) are searched depth first.  The
quartic g(x) = d1 x^4 + F x^2 + d2 is even, so the classes of x and -x
decide alike and only one of each pair is searched.  Each class is
decided from lam = nu_p(g(x)) and mu = nu_p(g'(x)) by Lemmas 6 (odd p) and
7 (p = 2) of Birch and Swinnerton-Dyer, Notes on elliptic curves I, J. reine
angew. Math. 212 (1963); Cremona, Algorithms for Modular Elliptic Curves,
3.6, states them as lemma6/lemma7/zpsol.  A class is split only when
k <= min(lam, mu) (or k = 1 at p = 2), and Res(g, g') lies in (g, g') Z[x],
so the depth is bounded by nu_p(Res(g, g')) + 1 with
Res = 16 d1^2 d2 (F^2 - 4 d1 d2)^2 != 0 (d1 and d2 swap in the chart
x = V/U).  The search has no cap of its own: a split at depth k >= 2 with
p^k not dividing Res raises ArithmeticError.

Solubility at p depends only on the class of d in Q_p*/Q_p*^2 (V -> s V,
Z -> s Z carry d to d s^2), of which there are 4 at odd p and 8 at p = 2.
The soluble classes are W_p, the image of E(Q_p) under the connecting map
(Silverman, AEC X.4; Cremona, Algorithms, 3.6): a subgroup that holds the
classes of 1 and b, the images of O and T = (0, 0).  So a Selmer set is a
group, cut from a basis by F_2 linear algebra place by place, and one search
settles a whole coset of W_p.  Over R the classes are the signs: d > 0 is
soluble (at V = 0), and every d < 0 decides as -1: (d, a, b/d) has no real
point iff b > 0 and (a <= 0 or a^2 < 4b).

The two sides' local images are each other's annihilators under the
Hilbert symbol (local Tate duality: Cassels, Lectures on Elliptic Curves;
Schaefer and Stoll, Trans. AMS 356, 2004).  So the phi side searches only
classes that pair to +1 with the phi-hat torsion class, and the phi-hat side
only classes that pair to +1 with every class the phi side found soluble;
any other class is insoluble with no search.  A `SelmerEstimate` keeps the
two bases; their 2^k classes are expanded only for `descent` output."""

from collections import namedtuple
from functools import lru_cache
from itertools import chain

from .arith import (CACHE_BOUND, class_product, factor_over, is_prime, legendre, signed_kernel,
                    valuation)
from .errors import DomainError


class HomogeneousSpace(namedtuple("HomogeneousSpace", "d1 F d2")):
    """Z^2 = d1 U^4 + F U^2 V^2 + d2 V^4 with d1 d2 (F^2 - 4 d1 d2) != 0."""

    __slots__ = ()

    def __new__(cls, d1, F, d2):
        if d1 * d2 * (F * F - 4 * d1 * d2) == 0:
            raise DomainError("degenerate quartic space")
        return super().__new__(cls, d1, F, d2)


class SelmerEstimate(namedtuple("SelmerEstimate", "phi_basis phihat_basis")):
    """Both sides' Selmer bases, k square-free integers each with k the
    side's F_2-dimension; the 2^k classes of a side are expanded only when
    asked for."""

    __slots__ = ()

    @property
    def rank_upper(self):
        return len(self.phi_basis) + len(self.phihat_basis) - 2

    @property
    def dim_phi(self):
        return len(self.phi_basis)

    @property
    def dim_phihat(self):
        return len(self.phihat_basis)

    @property
    def phi_classes(self):
        return _span(self.phi_basis)

    @property
    def phihat_classes(self):
        return _span(self.phihat_basis)


def real_soluble(space):
    """Whether the quartic takes a square value on R^2 away from the origin.

    Insoluble exactly when d1 < 0, d2 < 0 and the middle term cannot rescue:
    F <= 0 or F^2 < 4 d1 d2.
    """
    d1, F, d2 = space.d1, space.F, space.d2
    if d1 > 0 or d2 > 0:
        return True
    return F > 0 and F * F >= 4 * d1 * d2


def quartic_resultant(c4, c2, c0):
    """Res(g, g') for g = c4 x^4 + c2 x^2 + c0."""
    return 16 * c4 * c4 * c0 * (c2 * c2 - 4 * c4 * c0) ** 2


def _decide_zp(c4, c2, c0, p, first):
    """Does g(x) = c4 x^4 + c2 x^2 + c0 take a square value (or 0) on Z_p?

    Depth first over residue classes x = r + p^k Z_p from the digits
    `first` at k = 1, one lazy digit iterator per depth.  A class is decided
    from lam = nu_p(g(r)) and mu = nu_p(g'(r)) by Lemmas 6 (odd p) and 7
    (p = 2) of Birch and Swinnerton-Dyer, Notes on elliptic curves I (1963),
    as in Cremona, Algorithms for Modular Elliptic Curves, 3.6:
      soluble if g(r) is a square, or mu < k <= lam - mu (Hensel); at p = 2
      also if mu < k, lam even and lam = mu + k - 1, or lam = mu + k - 2
      with g(r) / 2^lam = 1 mod 4;
      split into its p children if mu >= k and lam >= 2k; at p = 2 also if
      mu >= k, lam = 2k - 2 and g(r) / 2^lam = 1 mod 4;
      insoluble otherwise.
    A split opens the children that `_children` keeps.  A split at k >= 2
    has min(lam, mu) >= k, so p^k | Res(g, g'), computed at the first such
    split of the search (it is nonzero); one that breaks this bound raises
    ArithmeticError.
    """
    stack, res = [iter(first)], None
    while stack:
        if (r := next(stack[-1], None)) is None:
            stack.pop()
            continue
        k = len(stack)
        t = c4 * r**4 + c2 * r * r + c0
        if t == 0:
            return True  # exact zero of the quartic: a point with Z = 0
        lam = valuation(t, p)
        u = t // p**lam
        if lam % 2 == 0 and ((u % 8 == 1) if p == 2 else pow(u, (p - 1) // 2, p) == 1):
            return True
        if lam < (k - 2 if p == 2 else k):
            continue  # below every soluble and splitting case
        dg = 2 * r * (2 * c4 * r * r + c2)
        mu = valuation(dg, p) if dg else k  # any mu >= k decides alike
        if mu < k:  # g maps the class onto g(r) + p^(mu+k) Z_p
            if lam >= mu + k or p == 2 and lam % 2 == 0 and (
                    lam == mu + k - 1 or lam == mu + k - 2 and u % 4 == 1):
                return True
            continue
        if not (lam >= 2 * k or p == 2 and lam == 2 * k - 2 and u % 4 == 1):
            continue  # g(class) lies in g(r) + p^(2k) Z_p: no square
        step = p**k
        if k >= 2 and (res := res or quartic_resultant(c4, c2, c0)) % step:
            raise ArithmeticError(
                f"class {r} mod {p}^{k} of ({c4},{c2},{c0}) splits past nu_{p}(Res(g, g'))")
        stack.append(iter(_children(r, step, p)))
    return False


def _children(r, step, p):
    """The digits r + j step, j = p - 1 down to 0, of the classes below r mod
    step, less the second of each pair x, -x.  Only a class that is its own
    negative holds such pairs: r = 0 at odd p (child 0 is its own pair and
    comes last) and r = step / 2 at p = 2 (its two children pair up)."""
    top = r + (p - 1) * step
    if p > 2 and r == 0:
        return chain(range(top, (p - 1) // 2 * step, -step), (0,))
    if p == 2 and 2 * r == step:
        return (top,)
    return range(top, r - 1, -step)


def _qp_soluble(d1, F, d2, p):
    """`padic_soluble` for a prime p, without the primality check or the cache."""
    return _decide_zp(d1, F, d2, p, _children(0, 1, p)) or _decide_zp(d2, F, d1, p, (0,))


_padic_soluble_cached = lru_cache(maxsize=CACHE_BOUND)(_qp_soluble)


def padic_soluble(space, p):
    """Exact Q_p-solubility of the quartic space, (U, V) != (0, 0).

    Primitive (U, V) has V a unit (chart x = U/V in Z_p) or U a unit and V
    in pZ_p (chart x = V/U in pZ_p: class 0 mod p only).
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _padic_soluble_cached(space.d1, space.F, space.d2, p)


def nonresidues_insoluble(a, b, p):
    """For a prime p > 3 with p | b and p coprime to a: are the phi-spaces of
    all classes d with (d/p) = -1 insoluble at p?  For d a square-free
    unitary divisor of a^2 - 4b, the space (d, -2a, (a^2 - 4b)/d) has no
    Q_p-point iff (d/p) = -1 and this holds (acceptance criterion 05)."""
    return valuation(b, p) % 2 == 1 or legendre(a, p) == 1


@lru_cache(maxsize=CACHE_BOUND)
def _square_class(d, p):
    """The class of a square-free d in Q_p*/Q_p*^2 as an int whose XOR is the
    group law: bit 0 is p | d, the higher bits the unit part u's Euler symbol
    (0 for a residue) at odd p, or (u mod 8) >> 1 at p = 2."""
    q, r = divmod(d, p)
    u = d if r else q
    return (r == 0) | ((u % 8) >> 1 if p == 2 else pow(u, (p - 1) // 2, p) != 1) << 1


def _hilbert(x, y, p):
    """The Hilbert symbol (x, y)_p of two `_square_class` codes, 0 for +1 and
    1 for -1: with x = p^al u and y = p^be v, the exponent of -1 is
    al be eps(p) + be [u nonresidue] + al [v nonresidue] at odd p, and
    eps(u) eps(v) + al omega(v) + be omega(u) at p = 2, where
    eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 mod 2 (Serre, A Course in
    Arithmetic, III.1.2, Theorem 1).  It reads only p mod 4."""
    al, u, be, v = x & 1, x >> 1, y & 1, y >> 1
    if p == 2:
        return (u & v ^ al & (v ^ v >> 1) ^ be & (u ^ u >> 1)) & 1
    return (al & be & p >> 1 ^ be & u ^ al & v) & 1


@lru_cache(maxsize=CACHE_BOUND)
def _annihilator(q, group):
    """The codes y with (x, y)_p = +1 for every code x in the frozenset
    `group`, at a prime p = q mod 4: 8 classes to try at p = 2, 4 at odd p."""
    return frozenset(y for y in range(8 if q == 2 else 4)
                     if not any(_hilbert(x, y, q) for x in group))


def _selmer(side, fac, t, other):
    """A basis of the classes d | b of side = (a, b) whose space (d, a, b/d) is
    soluble over R and over Q_p for every place p of `other`, with the known
    part of each W_p: k square-free integers, k the F_2-dimension, and
    {p: frozenset of the soluble codes found at p}.

    They form a group, cut place by place from a `basis`: the primes of b (its
    prime powers `fac`), and -1 if soluble over R.  At p, `good`, the known
    part of W_p, starts as the classes of 1 and t, b's signed square-free
    kernel; `span` maps the class of each product of rejected elements to it,
    and its classes but 0 lie outside W_p: no insoluble set is kept.  One pass
    keeps each s in `good`, and any other s times a span member carrying it
    into `good`, or else tries s times each member: one soluble is kept and
    widens `good`, or s joins the span.  other[p] is a frozenset of codes
    known to lie in the other side's local image, so W_p lies in its
    annihilator `ok`: a class outside `ok` counts as insoluble without a
    search, and a t outside it raises ArithmeticError."""
    a, b = side
    basis = [p for p, _ in fac]
    if real_soluble(HomogeneousSpace(-1, a, -b)):
        basis.append(-1)
    goods = {}
    for p, known in other.items():
        ok = _annihilator(p % 4, known)
        if (ct := _square_class(t, p)) not in ok:
            raise ArithmeticError(f"torsion class {t} of ({a}, {b}) pairs to -1 with "
                                  f"the other side's local image at {p}")
        good, span, kept = frozenset((0, ct)), {0: 1}, []
        for s in basis:
            if (c := _square_class(s, p)) in good:
                kept.append(s)
                continue
            y = next((y for y in span if c ^ y in good), None) if len(span) > 1 else None
            if y is None:
                for y, e in span.items():
                    if c ^ y in ok and _qp_soluble(d := class_product(s, e), a, b // d, p):
                        good |= {c ^ y ^ g for g in good}
                        break
                else:
                    span.update({c ^ x: class_product(s, e) for x, e in span.items()})
                    continue
            kept.append(class_product(s, span[y]))
        basis, goods[p] = kept, good
    return basis, goods


def _span(basis):
    """The 2^k classes spanned by k square-free classes, sorted by (|d|, d < 0);
    a dependent basis repeats one and raises ArithmeticError."""
    out = [1]
    for s in basis:
        out += [class_product(d, s) for d in out]
    if len(set(out)) < len(out):
        raise ArithmeticError(f"Selmer basis {basis} is dependent")
    return sorted(out, key=lambda d: (abs(d), d < 0))


def _check_basis(basis, t, local):
    """Raise ArithmeticError unless the torsion class t lies in the span of
    `basis` and `basis` is independent, by F_2 elimination on the classes as
    bit masks: bit 0 the sign, bit i + 1 whether local[i] divides."""
    rows = []  # distinct leading bits, descending
    for d in (*basis, t):
        m, bit = d < 0, 2
        for p in local:
            if d % p == 0:
                m |= bit
            bit <<= 1
        for r in rows:
            m = min(m, m ^ r)
        if m:
            rows.append(m)
            rows.sort(reverse=True)
    if m:  # what is left of t
        raise ArithmeticError(f"torsion class must survive, got {t} outside the span of {basis}")
    if len(rows) < len(basis):
        raise ArithmeticError(f"Selmer basis {basis} is dependent")


def sel_phi(param, primes):
    """Surviving classes d in Q(T1), T1 = primes(a^2 - 4b) and infinity.

    These are the phi-hat classes of `param.dual`: the space for class d is
    Z^2 = d U^4 - 2a U^2 V^2 + ((a^2-4b)/d) V^4.
    """
    return rank_upper(param, primes).phi_classes


def sel_phihat(param, primes):
    """Surviving classes d in Q(T2), T2 = primes(b) and infinity.

    The space for class d is Z^2 = d U^4 + a U^2 V^2 + (b/d) V^4.
    """
    return rank_upper(param, primes).phihat_classes


def rank_upper(param, primes):
    """Selmer bases for both isogeny directions and the rank bound.  `primes`
    (`families.e2_primes(param)`) must hold every odd prime of b and of
    a^2 - 4b; the places of both sides are 2 and the primes of b (a^2 - 4b).

    rank(E_{a,b}(Q)) <= dim_phi + dim_phihat - 2, each dimension the length
    of its side's `_selmer` basis.  Each Selmer set holds the image of its
    side's Kummer map, and |alpha(E(Q))| |alpha'(E'(Q))| = 2^(rank + 2)
    (Silverman, AEC X.6), so a sum below 2 raises ArithmeticError.  So does a
    set without the image of T = (0, 0), the signed square-free kernel t of
    a^2 - 4b on the phi side and t' of b on the phi-hat side, or a dependent
    basis.

    The two sides cut each other: W'_p, the phi-hat local image, is exactly
    the annihilator of W_p, the phi one, under the Hilbert symbol (local Tate
    duality: Cassels, Lectures on Elliptic Curves; Schaefer and Stoll, Trans.
    AMS 356, 2004).  t' lies in W'_p, so the phi side searches only inside
    the annihilator of {1, t'}, and the phi-hat side only inside that of the
    part of W_p the phi side found.  The duality is also checked, since
    `_selmer` raises ArithmeticError on a torsion class outside the
    annihilator it searches in: t and t' must pair to +1 at every place, and
    t' must lie in the annihilator of the phi side's known W_p.
    """
    dual, primes = param.dual, {2, *primes}
    n, b = dual.b, param.b
    fac, fac_hat = factor_over(n, primes, dual), factor_over(b, primes, param)
    local = sorted({2, *dict(fac), *dict(fac_hat)})
    t, t_hat = signed_kernel(n, fac), signed_kernel(b, fac_hat)
    phi_basis, goods = _selmer(dual, fac, t, {
        p: frozenset((0, _square_class(t_hat, p))) for p in local})
    phihat_basis, _ = _selmer(param, fac_hat, t_hat, goods)
    est = SelmerEstimate(tuple(phi_basis), tuple(phihat_basis))
    if est.rank_upper < 0:
        raise ArithmeticError(f"Selmer dimensions {est.dim_phi} + {est.dim_phihat} are below "
                              "the 2 that the torsion images give")
    _check_basis(phi_basis, t, local)
    _check_basis(phihat_basis, t_hat, local)
    return est
