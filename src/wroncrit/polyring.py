"""Dense univariate polynomials over the exact rings of field.py.

Coefficient index i holds the coefficient of x^i; the stored tuple never has
trailing zeros, so its length determines the degree (zero polynomial has
degree -1). "Monic" means the leading coefficient is invertible in the ring
and normalized to 1; over the dual ring a nilpotent leading coefficient is
not invertible and division by such a polynomial is refused.

The Wronskian of f_1..f_k is the k x k determinant whose rows are the
derivatives in descending order (order k-1 at the top, the functions at the
bottom), so the two-argument form is Wr(f, g) = f'g - fg'. The determinant is
expanded by cofactors (division free), which keeps it valid over the dual
ring. It is multilinear and antisymmetric in the functions.
"""

from __future__ import annotations

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
from .field import DualRing, RationalField, Scalar


class Poly:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not _nonzero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "Poly":
        return cls(ring, [])

    @classmethod
    def one(cls, ring) -> "Poly":
        return cls(ring, [ring.one()])

    @classmethod
    def x(cls, ring) -> "Poly":
        return cls(ring, [ring.zero(), ring.one()])

    @classmethod
    def constant(cls, ring, c) -> "Poly":
        return cls(ring, [c])

    @classmethod
    def monomial(cls, ring, c, k: int) -> "Poly":
        return cls(ring, [ring.zero()] * k + [c])

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
        return cls(ring, c)

    # -- basic queries -------------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ring.one()

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
        return Poly(self.ring, [c * inv for c in self.coeffs])

    # -- ring operations -----------------------------------------------------

    def _match(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise MixedFields("polynomials over different rings")
            return other
        return Poly(self.ring, [other])

    def __add__(self, other):
        o = self._match(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.ring, [self.coeff(i) + o.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.ring.coerce(other)
            return Poly(self.ring, [a * c for a in self.coeffs])
        o = self._match(other)
        if self.is_zero() or o.is_zero():
            return Poly.zero(self.ring)
        out = [self.ring.zero()] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if _nonzero(a):
                for j, b in enumerate(o.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

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
            out = Poly(out.ring, [c * i for i, c in enumerate(out.coeffs)][1:])
        return out

    def antideriv(self) -> "Poly":
        """Antiderivative with zero constant term (characteristic zero)."""
        return Poly(self.ring, [self.ring.zero()] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

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
        """
        zc = self.ring.coerce(z)
        c = list(self.coeffs)
        for i in range(len(c)):
            if _nonzero(zc):
                for j in range(len(c) - 2, i - 1, -1):
                    c[j] = c[j] + zc * c[j + 1]
            yield c[i]

    def shift(self, z) -> "Poly":
        """g with g(x) = f(x + z): the Taylor coefficients of f at z."""
        return Poly(self.ring, self._taylor(z))

    def to_ring(self, ring) -> "Poly":
        return Poly(ring, [ring.coerce(c) for c in self.coeffs])

    def __repr__(self):
        return format_poly(self)


def _nonzero(c) -> bool:
    if isinstance(c, Fraction):
        return c != 0
    return bool(c)


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
    # a monic divisor needs no inverse: over Q(a) each product by it is a
    # full number-field product
    inv = None if y.lead() == f.ring.one() else f.ring.inv(y.lead())
    rem = list(f.coeffs)
    dy = y.degree()
    qlen = max(0, len(rem) - dy)
    q = [f.ring.zero()] * qlen
    for k in range(qlen - 1, -1, -1):
        c = rem[k + dy] if inv is None else rem[k + dy] * inv
        if _nonzero(c):
            q[k] = c
            for i, yc in enumerate(y.coeffs):
                rem[k + i] = rem[k + i] - c * yc
    return Poly(f.ring, q), Poly(f.ring, rem[:dy])


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
    only; the dual ring is refused."""
    g = _gcd_args(f, g)
    r0, r1 = f, g
    s0, s1 = Poly.one(f.ring), Poly.zero(f.ring)
    t0, t1 = Poly.zero(f.ring), Poly.one(f.ring)
    while not r1.is_zero():
        q, r = div_rem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    lead = r0.lead()
    inv = f.ring.inv(lead)
    return r0 * inv, s0 * inv, t0 * inv


def gcd_monic(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the remainder sequence alone (no cofactors); same guards
    as xgcd."""
    g = _gcd_args(f, g)
    while not g.is_zero():
        f, g = g, div_rem(f, g)[1]
    return f.monic()


def is_squarefree(f: Poly) -> bool:
    if f.is_zero():
        return False
    if f.degree() == 0:
        return True
    return gcd_monic(f, f.deriv()).degree() == 0


# ---------------------------------------------------------------------------
# Wronskians

def wronskian(polys: Sequence[Poly]) -> Poly:
    """Determinant of the derivative matrix, rows in descending derivative
    order (row 0 holds the (k-1)-th derivatives, the last row the functions).
    Cofactor expansion only, so the dual ring is fine."""
    polys = list(polys)
    if not polys:
        raise ZeroInputs("Wronskian of an empty family")
    ring = polys[0].ring
    for p in polys[1:]:
        if p.ring != ring:
            raise MixedFields("Wronskian arguments over different rings")
    k = len(polys)
    if k == 1:
        return polys[0]
    rows = []
    for r in range(k):
        order = k - 1 - r
        rows.append([p.deriv(order) for p in polys])
    memo: dict[tuple[int, ...], Poly] = {}

    def minor(cols: tuple[int, ...]) -> Poly:
        r = k - len(cols)
        if not cols:
            return Poly.one(ring)
        got = memo.get(cols)
        if got is not None:
            return got
        acc = Poly.zero(ring)
        for idx, c in enumerate(cols):
            entry = rows[r][c]
            if entry.is_zero():
                continue
            term = entry * minor(cols[:idx] + cols[idx + 1 :])
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(k)))


def wronskian_pair(f: Poly, g: Poly) -> Poly:
    """Wr(f, g) = f'g - fg'."""
    return f.deriv() * g - f * g.deriv()


def ord_at(f: Poly, z) -> int:
    """Vanishing order of f at z: the index of its first nonzero Taylor
    coefficient there, so the Ruffini passes stop after ord + 1."""
    if f.is_zero():
        raise ZeroPolynomial("vanishing order of the zero polynomial")
    return next(k for k, c in enumerate(f._taylor(z)) if _nonzero(c))


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
    neg = s.startswith("-") and not any(op in s[1:] for op in "+-")
    composite = any(op in (s[1:] if neg else s) for op in "+-") or "eps" in s
    if composite:
        return f"({s})", False
    return (s[1:] if neg else s), neg


def format_poly(f: Poly, var: str = "x") -> str:
    if f.is_zero():
        return "0"
    parts = []
    one = f.ring.one()
    for k in range(f.degree(), -1, -1):
        c = f.coeff(k)
        if not _nonzero(c):
            continue
        body, neg = _coeff_str(c)
        if k == 0:
            term = body
        else:
            sym = var if k == 1 else f"{var}^{k}"
            if c == one:
                term, neg = sym, False
            elif c == -one:
                term, neg = sym, True
            else:
                term = f"{body}*{sym}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)
