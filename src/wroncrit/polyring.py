"""Dense univariate polynomials over the exact rings of field.py.

Coefficient index i holds the coefficient of x^i; the stored tuple never has
trailing zeros, so its length determines the degree (zero polynomial has
degree -1). "Monic" means the leading coefficient is invertible in the ring
and normalized to 1; over the dual ring a nilpotent leading coefficient is
not invertible and division by such a polynomial is refused.

Over QQ, products, division and Taylor passes run on integer numerators
over one denominator and build Fractions only for the result.  Over a
number field Q(a) they run on the integer coordinate rows of the
coefficients over one denominator: each coefficient of a result is folded
back through the field's table of powers once and built as one ExtElem.
The dual ring and CC go through the generic loops over ring elements.

gcd_monic proves a coprime pair over QQ or Q(a) by one gcd of its images
modulo a prime.  With F and G the integer rows of f and g and phi a ring
map into F_p (reduction mod p, and over Q(a) the generator sent to a root
of the minimal polynomial mod p): if phi keeps both leading coefficients
and gcd(phi F, phi G) = 1, then phi(Res(F, G)) = Res(phi F, phi G) != 0,
so gcd(f, g) = 1.  Any other pair runs the remainder sequence; xgcd and
divisibility stay exact.
Results of ring arithmetic are wrapped by ``Poly._of``, which does not
coerce what is already in the ring.

The Wronskian of f_1..f_k is the k x k determinant whose rows are the
derivatives in descending order (order k-1 at the top, the functions at the
bottom), so the two-argument form is Wr(f, g) = f'g - fg'. The determinant is
expanded by cofactors (division free), which keeps it valid over the dual
ring. It is multilinear and antisymmetric in the functions. Its minor on the
bottom i rows and the first i columns is Wr(f_1..f_i), so partial_wronskians
reads every prefix of a flag off the one expansion, and wronskian is its last
entry.  Over QQ and Q(a) that expansion runs on integer rows: each
derivative entry is converted once to integers over its column's
denominator, a minor is one integer cofactor sum (over Q(a) folded once per
coefficient), and Fractions or ExtElems are built only for each returned
Wr(f_1..f_i).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import field as field_mod
from .errors import (
    MixedFields,
    NotDivisible,
    NotMonic,
    ParseError,
    ZeroInputs,
    ZeroPolynomial,
)
from .field import DualRing, NumberField, RationalField, Scalar

_ZERO = Fraction(0)


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable):
        _trimmed(self, ring, [ring.coerce(c) for c in coeffs])

    @classmethod
    def _of(cls, ring, coeffs: list) -> "Poly":
        """The polynomial of a list of coefficients that are already elements
        of ``ring``, as ring arithmetic returns them: no coercion."""
        self = object.__new__(cls)
        _trimmed(self, ring, coeffs)
        return self

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "Poly":
        return cls._of(ring, [])

    @classmethod
    def one(cls, ring) -> "Poly":
        return cls._of(ring, [ring.one()])

    @classmethod
    def x(cls, ring) -> "Poly":
        return cls._of(ring, [ring.zero(), ring.one()])

    @classmethod
    def constant(cls, ring, c) -> "Poly":
        return cls(ring, [c])

    @classmethod
    def from_roots(cls, ring, roots: Iterable) -> "Poly":
        """Monic product of (x - r) over the given roots (repeats allowed).

        One in-place pass per root: multiplying by x - r appends the leading
        1 and sets c_k <- c_{k-1} - r c_k from the top down.
        """
        c = [ring.one()]
        for r in roots:
            r = ring.coerce(r)
            c.append(c[-1])
            for k in range(len(c) - 2, 0, -1):
                c[k] = c[k - 1] - r * c[k]
            c[0] = -r * c[0]
        return cls._of(ring, c)

    # -- basic queries -------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Scalar:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ring.one()

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        lead = self.coeffs[-1]
        if not self.ring.invertible(lead):
            raise NotMonic(f"leading coefficient {lead!r} is not invertible")
        inv = self.ring.inv(lead)
        return Poly._of(self.ring, [c * inv for c in self.coeffs])

    # -- ring operations -----------------------------------------------------

    def _match(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise MixedFields("polynomials over different rings")
            return other
        return Poly(self.ring, [other])

    def __add__(self, other):
        a, b = self.coeffs, self._match(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly._of(self.ring, [u + v for u, v in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.coerce(other)
            return Poly._of(self.ring, [a * c for a in self.coeffs])
        o = self._match(other)
        if self.is_zero() or o.is_zero():
            return Poly.zero(self.ring)
        if isinstance(self.ring, RationalField):
            # integer numerators over each factor's lcm denominator
            (a, da), (b, db) = _numerators(self.coeffs), _numerators(o.coeffs)
            out = [0] * (len(a) + len(b) - 1)
            b_terms = tuple(enumerate(b))
            for i, u in enumerate(a):
                if u:
                    for j, v in b_terms:
                        out[i + j] += u * v
            return Poly._of(self.ring, _over(out, da * db))
        if isinstance(self.ring, NumberField):
            return Poly._of(self.ring, _mul_nf(self.ring, self.coeffs, o.coeffs))
        out = [self.ring.zero()] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly._of(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # no inverse: a negative power is refused
        return field_mod._power(self, n, Poly.one(self.ring))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ring == other.ring and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    # -- calculus and evaluation ---------------------------------------------

    def deriv(self, k: int = 1) -> "Poly":
        out = self
        for _ in range(k):
            out = Poly._of(out.ring, [c * i for i, c in enumerate(out.coeffs)][1:])
        return out

    def antideriv(self) -> "Poly":
        """Antiderivative with zero constant term (characteristic zero)."""
        return Poly._of(self.ring, [self.ring.zero()] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def __call__(self, z):
        return self.eval(z)

    def eval(self, z):
        try:
            zc = self.ring.coerce(z)
            acc = self.ring.zero()
            for c in reversed(self.coeffs):
                acc = acc * zc + c
            return acc
        except MixedFields:
            # rational polynomial evaluated at a larger-ring scalar
            target = field_mod.ring_of(z)
            if isinstance(self.ring, RationalField):
                return self.to_ring(target).eval(z)
            raise

    def _taylor(self, z):
        """Taylor coefficients of f at z, by synthetic division (Ruffini-Horner).

        Pass i divides c[i:] by x - z in place, from the top down: the
        remainder lands in c[i], the i-th Taylor coefficient of f at z, and
        the quotient stays above it; c[i] is yielded as its pass ends.
        Over QQ and Q(a) the passes run on integers (see _taylor_qq and
        _taylor_nf).
        """
        zc = self.ring.coerce(z)
        if isinstance(self.ring, RationalField):
            yield from _taylor_qq(self.coeffs, zc)
            return
        if isinstance(self.ring, NumberField):
            yield from _taylor_nf(self.coeffs, zc)
            return
        c = list(self.coeffs)
        for i in range(len(c)):
            if zc:
                for j in range(len(c) - 2, i - 1, -1):
                    c[j] = c[j] + zc * c[j + 1]
            yield c[i]

    def shift(self, z) -> "Poly":
        """g with g(x) = f(x + z): the Taylor coefficients of f at z."""
        return Poly._of(self.ring, list(self._taylor(z)))

    def to_ring(self, ring) -> "Poly":
        if ring == self.ring:
            return self
        return Poly._of(ring, [ring.coerce(c) for c in self.coeffs])

    def __repr__(self):
        return format_poly(self)


def _trimmed(self: Poly, ring, cs: list) -> None:
    while cs and not cs[-1]:
        cs.pop()
    object.__setattr__(self, "ring", ring)
    object.__setattr__(self, "coeffs", tuple(cs))


def _numerators(cs) -> tuple[list[int], int]:
    """Integer numerators of rational coefficients over their lcm denominator."""
    den = math.lcm(*[c.denominator for c in cs])
    if den == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (den // c.denominator) for c in cs], den


def _taylor_qq(cs, z: Fraction):
    """The Taylor passes of _taylor over QQ, on integers.

    With f = C / D (integer C) of degree n and z = p / q, the integers
    a_k = C_k q^(n-k) are the coefficients of g(x) = D q^n f(x / q), whose
    Taylor coefficient b_j at the integer p gives f's at z as
    b_j / (D q^(n-j)); Ruffini by p keeps every b_j an integer.
    """
    a, D = _numerators(cs)
    p, q = z.numerator, z.denominator
    n = len(a) - 1
    qpow = [1]
    for _ in range(n):
        qpow.append(qpow[-1] * q)
    if q != 1:
        a = [c * qpow[n - k] for k, c in enumerate(a)]
    for i in range(n + 1):
        if p:
            for j in range(n - 1, i - 1, -1):
                a[j] += p * a[j + 1]
        yield Fraction(a[i], D * qpow[n - i])


def _over(nums: list[int], den: int) -> list[Fraction]:
    """The rationals nums[i] / den."""
    if den == 1:
        return [Fraction(c) for c in nums]
    return [Fraction(c, den) for c in nums]


# Over Q(a) = Q[a]/(p) of degree n a coefficient is a row of n integer
# coordinates (ExtElem.num), and a polynomial is its rows over their lcm
# denominator.  A product of two rows convolves them into 2n-1 integers, and
# NumberField._fold maps those to the n coordinates of the product times the
# field's _den (1 when p has integer coefficients).

def _rows(cs) -> tuple[list[tuple[int, ...]], int]:
    """Integer coordinate rows of number-field coefficients over their lcm
    denominator."""
    den = math.lcm(*[c.den for c in cs])
    if den == 1:
        return [c.num for c in cs], 1
    return [tuple([v * (den // c.den) for v in c.num]) for c in cs], den


def _terms(row, shift: int = 0) -> list[tuple[int, int]]:
    """The nonzero entries of a row as (shift + index, value)."""
    return [(shift + t, v) for t, v in enumerate(row) if v]


def _mul_nf(K: NumberField, a, b) -> list:
    """The coefficients of the product of two nonzero polynomials over K.

    With each coordinate t of coefficient i at the flat index i (2n-1) + t,
    the product is one integer convolution of the flat rows: the coordinates
    of a product of two coefficients sum to at most 2n-2, so no index
    carries into the next coefficient.  Each coefficient of the result is
    then folded and brought to lowest terms once.
    """
    (A, da), (B, db) = _rows(a), _rows(b)
    w = 2 * K.degree - 1
    at = [term for i, row in enumerate(A) for term in _terms(row, i * w)]
    bt = [term for j, row in enumerate(B) for term in _terms(row, j * w)]
    out = [0] * ((len(A) + len(B) - 1) * w)
    for i, u in at:
        for j, v in bt:
            out[i + j] += u * v
    den = da * db * K._den
    return [field_mod._lowest(K, tuple(K._fold(out[k:k + w])), den)
            for k in range(0, len(out), w)]


def _times_row(K: NumberField, terms, row) -> list[int]:
    """The coordinates, over K._den, of the product of the integer row whose
    nonzero entries are ``terms`` (from _terms) and ``row``."""
    prod = [0] * (2 * K.degree - 1)
    for t, v in terms:
        for s, u in enumerate(row):
            prod[s + t] += u * v
    return K._fold(prod)


def _taylor_nf(cs, z):
    """The Taylor passes of _taylor over a number field K, on integers.

    With f = R / D (integer rows R) of degree m and z = Z / q, put
    s = q K._den.  Multiplying an integer row by w = s z is the integer fold
    of its convolution with Z, so the Ruffini passes of
    g(x) = D s^m f(x / s), whose coefficients R_k s^(m-k) are integer rows,
    run by w on integers, and g's Taylor coefficient b_j at w gives f's at
    z as b_j / (D s^(m-j)), as in _taylor_qq.
    """
    K = z.field
    R, D = _rows(cs)
    s = z.den * K._den
    m = len(R) - 1
    spow = [1]
    for _ in range(m):
        spow.append(spow[-1] * s)
    if s != 1:
        R = [[c * spow[m - k] for c in row] for k, row in enumerate(R)]
    zt = _terms(z.num)
    for i in range(m + 1):
        if zt:
            for j in range(m - 1, i - 1, -1):
                R[j] = [a + b for a, b in zip(R[j], _times_row(K, zt, R[j + 1]))]
        yield field_mod._lowest(K, tuple(R[i]), D * spow[m - i])


# ---------------------------------------------------------------------------
# division, gcd

def div_rem(f: Poly, y: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by y; y must have an invertible leading
    coefficient (over the dual ring a nilpotent lead is refused)."""
    y = f._match(y)
    if y.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    if not f.ring.invertible(y.lead()):
        raise NotMonic(f"divisor lead {y.lead()!r} is not invertible")
    if isinstance(f.ring, RationalField):
        return _div_rem_qq(f, y)
    if isinstance(f.ring, NumberField):
        return _div_rem_nf(f, y)
    inv = None if y.lead() == f.ring.one() else f.ring.inv(y.lead())
    rem = list(f.coeffs)
    dy = y.degree()
    qlen = max(0, len(rem) - dy)
    q = [f.ring.zero()] * qlen
    for k in range(qlen - 1, -1, -1):
        c = rem[k + dy] if inv is None else rem[k + dy] * inv
        if c:
            q[k] = c
            for i, yc in enumerate(y.coeffs):
                rem[k + i] = rem[k + i] - c * yc
    return Poly._of(f.ring, q), Poly._of(f.ring, rem[:dy])


def _div_rem_qq(f: Poly, y: Poly) -> tuple[Poly, Poly]:
    """div_rem over QQ on integer numerators.

    The remainder is R / D with integer R and one running denominator D > 0,
    and y = Y / e with integer Y of leading coefficient L.  Taking the
    quotient term c x^k with c = R[k+dy] e / (D L) leaves
    (|L| R - sign(L) R[k+dy] x^k Y) / (D |L|); one gcd per step removes the
    content of that fraction.
    """
    R, D = _numerators(f.coeffs)
    Y, e = _numerators(y.coeffs)
    dy = len(Y) - 1
    L = Y[-1]
    La, sign = abs(L), (1 if L > 0 else -1)
    qlen = max(0, len(R) - dy)
    q = [_ZERO] * qlen
    for k in range(qlen - 1, -1, -1):
        top = R.pop()
        if top:
            q[k] = Fraction(sign * top * e, D * La)
            c = sign * top
            if La != 1:
                R = [La * r for r in R]
                D *= La
            for i in range(dy):
                R[k + i] -= c * Y[i]
            g = math.gcd(D, *R)
            if g != 1:
                R = [r // g for r in R]
                D //= g
    return Poly._of(f.ring, q), Poly._of(f.ring, _over(R, D))


def _div_rem_nf(f: Poly, y: Poly) -> tuple[Poly, Poly]:
    """div_rem over a number field K on integer rows.

    A non-monic divisor is made monic by one inverse of its lead, and each
    quotient term by the monic divisor is multiplied by that inverse; a
    monic divisor takes none.  Then y = Y / e with Y's lead row (e, 0, ..., 0), and the
    remainder is R / D with integer rows R and one running denominator D.
    The quotient term c x^k with c = R[k+dy] / D leaves
    (s R - x^k fold(R[k+dy] * Y)) / (D s), s = e K._den; when s is not 1,
    one gcd per step removes the content of that fraction.
    """
    K = f.ring
    inv = None if y.lead() == K.one() else K.inv(y.lead())
    if inv is not None:
        y = y * inv
    R, D = _rows(f.coeffs)
    R = [list(row) for row in R]
    Y, e = _rows(y.coeffs)
    dy = len(Y) - 1
    s = e * K._den
    qlen = max(0, len(R) - dy)
    q = [K.zero()] * qlen
    for k in range(qlen - 1, -1, -1):
        top = R.pop()
        tt = _terms(top)
        if tt:
            if inv is None:
                q[k] = field_mod._lowest(K, tuple(top), D)
            else:
                q[k] = field_mod._lowest(K, tuple(_times_row(K, tt, inv.num)),
                                         D * inv.den * K._den)
            if s != 1:
                R = [[c * s for c in row] for row in R]
                D *= s
            for i in range(dy):
                R[k + i] = [r - v for r, v in zip(R[k + i], _times_row(K, tt, Y[i]))]
            if s != 1:
                g = math.gcd(D, *[c for row in R for c in row])
                if g != 1:
                    R = [[c // g for c in row] for row in R]
                    D //= g
    return Poly._of(K, q), Poly._of(K, [field_mod._lowest(K, tuple(row), D) for row in R])


def divides(y: Poly, f: Poly) -> bool:
    return div_rem(f, y)[1].is_zero()


def exact_div(f: Poly, y: Poly) -> Poly:
    q, r = div_rem(f, y)
    if not r.is_zero():
        raise NotDivisible(f"{y!r} does not divide {f!r} exactly")
    return q


def _gcd_args(f: Poly, g: Poly) -> Poly:
    # field coefficients only: the dual ring has zero divisors
    if isinstance(f.ring, DualRing):
        raise NotMonic("gcd is not offered over the dual ring")
    g = f._match(g)
    if f.is_zero() and g.is_zero():
        raise ZeroInputs("gcd(0, 0) is undefined")
    return g


def xgcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic gcd with Bezout cofactors: gcd = c*f + d*g. Field coefficients
    only; the dual ring is refused.

    The remainder sequence carries the cofactor of f alone: every remainder
    is r = s*f + t*g, so the cofactor of g is the exact quotient
    (r - s*f) / g of the last one, and 0 when g is 0."""
    g = _gcd_args(f, g)
    r0, r1 = f, g
    s0, s1 = Poly.one(f.ring), Poly.zero(f.ring)
    while not r1.is_zero():
        q, r = div_rem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    t0 = Poly.zero(f.ring) if g.is_zero() else exact_div(r0 - s0 * f, g)
    lead = r0.lead()
    inv = f.ring.inv(lead)
    return r0 * inv, s0 * inv, t0 * inv


def gcd_monic(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the remainder sequence alone (no cofactors); same guards
    as xgcd.

    Over QQ and Q(a) a coprime pair is first tried modulo a prime, and a
    pair proved coprime there returns 1 without the remainder sequence.
    Scale f and g to integer rows F and G (over QQ the numerators, over
    Q(a) the coordinate rows over one denominator, as in _rows), and let
    phi be a ring map into F_p: reduction mod p over QQ; over Q(a),
    reduction mod p with a -> r, r a root of the minimal polynomial mod p,
    p not dividing its denominator.  If phi(lc F) != 0, phi(lc G) != 0 and
    gcd(phi F, phi G) = 1 in F_p[x], then
    phi(Res(F, G)) = Res(phi F, phi G) != 0, so Res(F, G) != 0 and
    gcd(f, g) = 1.  The lead check is needed: (p x - 1)(x - 2) and
    (p x - 1)(x - 3) share the root 1/p, yet their images, of lower
    degree, are coprime.  The converse is not claimed: a pair whose image
    gcd is not 1 takes the remainder sequence, so the prime changes only
    how often that runs, never the answer.
    """
    g = _gcd_args(f, g)
    if _coprime_mod_p(f, g):
        return Poly.one(f.ring)
    while not g.is_zero():
        f, g = g, div_rem(f, g)[1]
    return f.monic()


# ---------------------------------------------------------------------------
# coprimality modulo a prime (the certificate of gcd_monic)
#
# A polynomial over F_p is the list of its residues in [0, p), lowest degree
# first, without trailing zeros.

# the primes tried, in order: over QQ the first; over Q(a) the first that does
# not divide the minimal polynomial's denominator and has a root of it
_PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121,
           1000133, 1000151, 1000159, 1000171, 1000183, 1000187, 1000193, 1000199)

# minimal polynomial -> (p, (1, r, .., r^(n-1)) mod p) for a root r of it mod
# p, or None when no prime of _PRIMES has one; filled on the first gcd over
# each field
_ROOTS_MOD_P: dict[tuple, tuple[int, tuple[int, ...]] | None] = {}


def _trim_mod(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _sub_mod(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
    return _trim_mod([(u - v) % p for u, v in zip(a, b)])


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b over F_p, b nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a.pop() * inv % p
        if c:
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return _trim_mod(a)


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b over F_p, not made monic."""
    while b:
        a, b = b, _rem_mod(a, b, p)
    return a


def _pow_mod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m over F_p, by square and multiply; a is reduced mod m and m
    has degree at least 1."""
    def mul(u, v):
        if not u or not v:
            return []
        out = [0] * (len(u) + len(v) - 1)
        for i, s in enumerate(u):
            if s:
                for j, t in enumerate(v):
                    out[i + j] += s * t
        return _rem_mod([c % p for c in out], m, p)

    out = [1]
    while e:
        if e & 1:
            out = mul(out, a)
        a = mul(a, a)
        e >>= 1
    return out


def _root_mod(m: list[int], p: int) -> int | None:
    """A root in F_p (p odd) of m, or None when m has none.

    h = gcd(x^p - x, m) is the product of m's distinct linear factors;
    gcd((x + t)^((p-1)/2) - 1, h) for t = 0, 1, 2, .. splits h (Cantor and
    Zassenhaus) until one linear factor is left.  Two roots r != s are
    split by every t at which r + t and s + t differ in quadratic
    character, and some t in F_p is one, so the loop ends.
    """
    x = [0, 1]
    h = _gcd_mod(m, _sub_mod(_pow_mod(x, p, m, p), x, p), p)
    if len(h) < 2:
        return None
    t = 0
    while len(h) > 2:
        g = _gcd_mod(h, _sub_mod(_pow_mod([t, 1], (p - 1) // 2, h, p), [1], p), p)
        if 1 < len(g) < len(h):
            h = g
        t += 1
    return -h[0] * pow(h[1], -1, p) % p


def _field_root(K: NumberField) -> tuple[int, tuple[int, ...]] | None:
    """(p, the powers 1, r, .., r^(n-1) mod p) for the first prime p of
    _PRIMES at which K's minimal polynomial has a root r, found once per
    minimal polynomial; None when there is none."""
    if K.minpoly not in _ROOTS_MOD_P:
        found = None
        for p in _PRIMES:
            if K._mp_den % p == 0:
                continue
            dinv = pow(K._mp_den, -1, p)
            r = _root_mod([c * dinv % p for c in K._mp_num] + [1], p)
            if r is not None:
                found = (p, tuple(pow(r, t, p) for t in range(K.degree)))
                break
        _ROOTS_MOD_P[K.minpoly] = found
    return _ROOTS_MOD_P[K.minpoly]


def _coprime_mod_p(f: Poly, g: Poly) -> bool:
    """True when gcd(f, g) = 1 is proved by one gcd of their images in
    F_p[x] (see gcd_monic); False proves nothing."""
    K = f.ring
    if f.is_zero() or g.is_zero():
        return False
    if isinstance(K, RationalField):
        p = _PRIMES[0]
        F, G = ([c % p for c in _numerators(h.coeffs)[0]] for h in (f, g))
    elif isinstance(K, NumberField):
        root = _field_root(K)
        if root is None:
            return False
        p, rpow = root
        F, G = ([sum(v * w for v, w in zip(row, rpow)) % p for row in _rows(h.coeffs)[0]]
                for h in (f, g))
    else:
        return False
    # the lead check: the images keep the degrees of f and g
    return bool(F[-1] and G[-1]) and len(_gcd_mod(F, G, p)) == 1


def is_squarefree(f: Poly) -> bool:
    if f.is_zero():
        return False
    if f.degree() == 0:
        return True
    return gcd_monic(f, f.deriv()).degree() == 0


# ---------------------------------------------------------------------------
# Wronskians

def partial_wronskians(polys: Sequence[Poly]) -> tuple[Poly, ...]:
    """(Wr(f_1), Wr(f_1, f_2), ..., Wr(f_1..f_k)) from one cofactor expansion.

    The derivative matrix has its rows in descending derivative order (row 0
    holds the (k-1)-th derivatives, the last row the functions).  Its minor
    on the bottom i rows and the first i columns is Wr(f_1..f_i), so every
    prefix is a minor of the one memoized expansion along the top rows.
    Cofactor expansion only, so the dual ring is fine.

    Over QQ and Q(a) the entries are integer rows (see _int_entries) and a
    minor is one integer cofactor sum (_cofactor_sum); each Wr(f_1..f_i) is
    built as Fractions or ExtElems once, over the product of its columns'
    denominators.  CC and the dual ring expand on Polys."""
    polys = list(polys)
    if not polys:
        raise ZeroInputs("Wronskian of an empty family")
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise MixedFields("Wronskian arguments over different rings")
    k = len(polys)
    integer = isinstance(ring, (RationalField, NumberField))
    if integer:
        rows, dens, w = _int_entries(ring, polys)
        one = [(0, 1)]

        def cofactors(terms):
            return _cofactor_sum(ring, w, terms)
    else:
        rows = []
        for r in range(k):
            derivs = [p.deriv(k - 1 - r) for p in polys]
            rows.append([None if d.is_zero() else d for d in derivs])
        one = Poly.one(ring)

        def cofactors(terms):
            acc = Poly.zero(ring)
            for odd, entry, sub in terms:
                term = entry * sub
                acc = acc - term if odd else acc + term
            return acc
    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]):
        # the bottom len(cols) rows, expanded along the first of them; a zero
        # entry is None or an empty row, and its minor is not expanded
        if not cols:
            return one
        got = memo.get(cols)
        if got is None:
            r = k - len(cols)
            got = memo[cols] = cofactors(
                [(idx % 2, rows[r][c], minor(cols[:idx] + cols[idx + 1:]))
                 for idx, c in enumerate(cols) if rows[r][c]])
        return got

    wrs = [minor(tuple(range(i))) for i in range(2, k + 1)]
    if integer:
        # a minor of i columns is over its columns' denominators, and over Q(a)
        # over K._den^i more: one fold per row of the expansion
        fold = 1 if w == 1 else ring._den
        wrs = [_from_int(ring, w, W, math.prod(dens[:i]) * fold ** i)
               for i, W in enumerate(wrs, start=2)]
    return (polys[0],) + tuple(wrs)


# The integer kernel of partial_wronskians.  A polynomial is the sorted list
# of its nonzero terms (index, integer) on a flat row of stride w: over QQ,
# w = 1 and the term (i, v) is the numerator v of x^i; over Q(a) of degree
# n, w = 2n - 1 and coordinate t of the coefficient of x^i sits at index
# i w + t, as in _mul_nf, so a product of two terms never carries into the
# next coefficient.

def _int_entries(ring, polys) -> tuple[list[list[list]], list[int], int]:
    """The derivative matrix of partial_wronskians as integer term lists,
    with each column's denominator and the stride: column c holds the
    derivatives of f_c scaled by the lcm denominator of f_c's
    coefficients, rows in descending derivative order."""
    k = len(polys)
    w = 1 if isinstance(ring, RationalField) else 2 * ring.degree - 1
    cols, dens = [], []
    for p in polys:
        if w == 1:
            nums, den = _numerators(p.coeffs)
            terms = [(i, v) for i, v in enumerate(nums) if v]
        else:
            R, den = _rows(p.coeffs)
            terms = [term for i, row in enumerate(R) for term in _terms(row, i * w)]
        col = [terms]
        for _ in range(k - 1):
            # d/dx multiplies the coefficient of x^i by i and moves it to x^(i-1)
            terms = [(j - w, v * (j // w)) for j, v in terms if j >= w]
            col.append(terms)
        cols.append(col[::-1])
        dens.append(den)
    return [[col[r] for col in cols] for r in range(k)], dens, w


def _cofactor_sum(ring, w: int, terms) -> list[tuple[int, int]]:
    """The sum of the signed products +-entry * minor given as (odd, entry,
    minor) term lists of stride w.  Over Q(a) the sum is folded once per
    coefficient, so each product carries one factor K._den."""
    size = 0
    for _, e, s in terms:
        if s:
            size = max(size, e[-1][0] + s[-1][0] + 1)
    out = [0] * (-(-size // w) * w)
    for odd, e, s in terms:
        for i, u in e:
            if odd:
                u = -u
            for j, v in s:
                out[i + j] += u * v
    if w > 1:
        pad = [0] * (w - ring.degree)
        folded = []
        for k in range(0, len(out), w):
            folded += ring._fold(out[k:k + w])
            folded += pad
        out = folded
    return [(i, v) for i, v in enumerate(out) if v]


def _from_int(ring, w: int, terms, den: int) -> Poly:
    """The polynomial of an integer term list of stride w over den."""
    if not terms:
        return Poly.zero(ring)
    flat = [0] * (terms[-1][0] // w * w + w)
    for i, v in terms:
        flat[i] = v
    if w == 1:
        return Poly._of(ring, _over(flat, den))
    n = ring.degree
    return Poly._of(ring, [field_mod._lowest(ring, tuple(flat[k:k + n]), den)
                           for k in range(0, len(flat), w)])


def wronskian(polys: Sequence[Poly]) -> Poly:
    """Determinant of the derivative matrix: the last of partial_wronskians."""
    return partial_wronskians(polys)[-1]


def wronskian_pair(f: Poly, g: Poly) -> Poly:
    """Wr(f, g) = f'g - fg'."""
    return f.deriv() * g - f * g.deriv()


def ord_at(f: Poly, z) -> int:
    """Vanishing order of f at z: the index of its first nonzero Taylor
    coefficient there, so the Ruffini passes stop after ord + 1."""
    if f.is_zero():
        raise ZeroPolynomial("vanishing order of the zero polynomial")
    return next(k for k, c in enumerate(f._taylor(z)) if c)


# ---------------------------------------------------------------------------
# parsing and formatting: "c_k*x^k + ... + c_0", composite coefficients in
# parentheses, e.g. "(1+a)*x^2 - x + 1/2"

def parse_poly(s: str, ring) -> Poly:
    try:
        coeffs = field_mod._parse_symbol_poly(
            s, "x", lambda c: field_mod.parse_scalar(c, ring))
    except ParseError:
        raise
    except Exception as e:  # noqa: BLE001 - surface as a parse failure
        raise ParseError(f"cannot parse polynomial {s!r}") from e
    return Poly(ring, coeffs)


def _coeff_str(c) -> tuple[str, bool]:
    s = field_mod.format_scalar(c)
    tail = s[1:]
    neg = s.startswith("-") and "+" not in tail and "-" not in tail
    body = tail if neg else s
    if "+" in body or "-" in body or "eps" in s:
        return f"({s})", False
    return body, neg


def format_poly(f: Poly, var: str = "x") -> str:
    if f.is_zero():
        return "0"
    parts = []
    one = f.ring.one()
    minus_one = -one
    for k in range(f.degree(), -1, -1):
        c = f.coeffs[k]
        if not c:
            continue
        if k == 0:
            term, neg = _coeff_str(c)
        else:
            sym = var if k == 1 else f"{var}^{k}"
            if c == one:
                term, neg = sym, False
            elif c == minus_one:
                term, neg = sym, True
            else:
                body, neg = _coeff_str(c)
                term = f"{body}*{sym}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)
