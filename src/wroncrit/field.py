"""Exact coefficient arithmetic: rationals, simple extensions, dual numbers.

Three scalar kinds live here.

* Rationals are plain ``fractions.Fraction`` (already normalized and hashable).
* ``ExtElem`` is an element of Q[a]/(p(a)) for a monic irreducible p of degree
  at least 2, stored as the integer numerators of its coordinates in the
  generator ``a`` over one positive denominator, in lowest terms; its
  arithmetic runs on Python integers, and the Fraction coordinates are built
  only when read.  A rational factor or divisor scales the numerators or the
  denominator; ``NumberField._fold`` maps a convolution of two numerator
  rows back to coordinates, for ``ExtElem`` products and for the polynomial
  kernels of polyring alike.
* ``DualNum`` is a + b*eps with eps^2 = 0 over a base field, used to carry
  first-order deformations through polynomial algebra.

Ring descriptors (``QQ``, ``NumberField``, ``DualRing``) provide the small
protocol the polynomial layer needs: ``zero``, ``one``, ``coerce``,
``invertible``, ``inv`` and an ``is_field`` flag. All scalars are immutable
with structural equality.

``row_reduce`` is the one exact Gauss-Jordan elimination; rational rows are
reduced fraction free on integers (``_bareiss``), and ``NumberField.inv``
reads its solution from that reduction as integers over the last pivot.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Union

from .errors import MixedFields, NotIrreducible, NotMonic, ParseError, WroncritError

Scalar = Union[Fraction, "ExtElem", "DualNum"]


# ---------------------------------------------------------------------------
# rationals

class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    is_field = True

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise MixedFields(f"cannot coerce {v!r} into QQ")

    def invertible(self, a: Fraction) -> bool:
        return a != 0

    def inv(self, a: Fraction) -> Fraction:
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def _power(x, n: int, one, inv=None):
    """x**n by square and multiply, starting from the unit ``one``.

    A negative n raises inv(x) to -n; without ``inv`` it is refused.
    """
    if n < 0:
        if inv is None:
            raise ValueError(f"negative power {n} of a non-invertible element")
        x, n = inv(x), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


# ---------------------------------------------------------------------------
# exact row reduction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def row_reduce(rows) -> tuple[list[int], list[list]]:
    """Reduced row echelon form of ``rows`` over an exact field.

    Returns (pivot_columns, reduced_rows): one reduced row per pivot, in
    increasing pivot column, with a 1 at its pivot and 0 in every other
    pivot column; zero rows are dropped, so the rank is len(pivot_columns).
    Columns are scanned left to right and each takes the first remaining
    row that is nonzero there.

    Rows of ints and Fractions are reduced fraction free on integers (see
    _row_reduce_qq), and every entry of the reduced rows is a Fraction.
    Other rows are reduced on their own elements: each pivot is inverted
    once and its row is multiplied by that inverse; zero entries are
    skipped.  The reduced row echelon form is unique, so both give the same
    rows.
    """
    rows = [list(r) for r in rows]
    if all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        return _row_reduce_qq(rows)
    pivots: list[int] = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        if piv != 1:
            inv = _ONE / piv
            rows[r] = [v * inv if v else v for v in rows[r]]
        pivot_row = rows[r]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [u - f * v if v else u for u, v in zip(row, pivot_row)]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _row_reduce_qq(rows: list[list]) -> tuple[list[int], list[list]]:
    """row_reduce of rational rows: each row is scaled to integers by the
    lcm of its denominators and reduced fraction free by _bareiss."""
    m = []
    for row in rows:
        den = math.lcm(*[v.denominator for v in row])
        m.append([v.numerator * (den // v.denominator) for v in row])
    pivots, m, d = _bareiss(m)
    return pivots, [[Fraction(v, d) for v in row] for row in m]


def _bareiss(m: list[list[int]]) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free Gauss-Jordan (Bareiss) of integer rows, in place.

    A pivot p in row r updates every other row by
    row_i <- (p row_i - f row_r) / d, where f is row_i's entry in the pivot
    column and d the previous pivot (1 at the start).  By Sylvester's
    identity every entry stays an integer, a minor of the rows, and every
    pivot row carries the latest pivot at its pivot column.  Returns
    (pivot_columns, pivot_rows, d): the reduced rows of row_reduce are the
    pivot rows over the last pivot d, which may be negative (1 when there
    is no pivot).
    """
    pivots: list[int] = []
    d = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot_row = m[r]
        piv = pivot_row[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(piv * u - f * v) // d for u, v in zip(row, pivot_row)]
            elif piv != d:
                m[i] = [piv * u // d for u in row]
        d = piv
        pivots.append(c)
    return pivots, m[:len(pivots)], d


# ---------------------------------------------------------------------------
# simple extensions Q[a]/(p(a))

class ExtElem:
    """Element of a NumberField, reduced mod the minimal polynomial.

    Stored as integers: ``num`` holds ``field.degree`` numerators, the
    coordinates in the power basis 1, a, ..., a^(n-1) times ``den``, the one
    positive denominator, and the form is in lowest terms (gcd(den, *num) is
    1), so equal elements have equal ``num`` and ``den``.  ``coeffs`` is the
    tuple of Fraction coordinates: built on its first read and kept, or kept
    as given when the element is made by ``ExtElem(field, coeffs)``.
    """

    __slots__ = ("field", "num", "den", "_coeffs")

    def __init__(self, field: "NumberField", coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        n = field.degree
        if len(cs) > n:
            # Horner in the generator folds the powers a^n, a^(n+1), ... back
            x = field.zero()
            for c in reversed(cs):
                x = field._times_gen(x) + c
            _init(self, field, x.num, x.den, None)
            return
        cs += [_ZERO] * (n - len(cs))
        den = math.lcm(*[c.denominator for c in cs])
        # over the lcm of reduced denominators the numerators have gcd 1 with it
        _init(self, field, tuple([c.numerator * (den // c.denominator) for c in cs]),
              den, tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("ExtElem is immutable")

    @property
    def coeffs(self) -> tuple:
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple([Fraction(c, den) for c in self.num])
            _SET_COEFFS(self, cs)
        return cs

    def _lift(self, other) -> "ExtElem":
        if isinstance(other, ExtElem):
            if other.field is not self.field and other.field != self.field:
                raise MixedFields("elements of different extension fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field._scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return _lowest(self.field, tuple([a + b for a, b in zip(self.num, o.num)]), d)
        return _lowest(self.field, tuple([a * e + b * d for a, b in zip(self.num, o.num)]), d * e)

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.field, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return _lowest(self.field, tuple([a - b for a, b in zip(self.num, o.num)]), d)
        return _lowest(self.field, tuple([a * e - b * d for a, b in zip(self.num, o.num)]), d * e)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the numerators and the denominator
            return _lowest(self.field, tuple([c * other.numerator for c in self.num]),
                           self.den * other.denominator)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("division of an extension element by zero")
            if p < 0:
                p, q = -p, -q
            return _lowest(self.field, tuple([c * q for c in self.num]), self.den * p)
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * self.field.inv(o)

    def __rtruediv__(self, other):
        return self.field.inv(self) * other

    def __pow__(self, n: int):
        return _power(self, n, self.field.one(), self.field.inv)

    def _is_rational(self) -> bool:
        return not any(self.num[1:])

    def __eq__(self, other):
        if isinstance(other, ExtElem):
            return ((self.field is other.field or self.field == other.field)
                    and self.den == other.den and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self._is_rational())
        return NotImplemented

    def __hash__(self):
        # a rational element hashes as the rational it equals
        if self._is_rational():
            return hash(Fraction(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return format_scalar(self)


_new_elem = object.__new__
_SET_FIELD = ExtElem.field.__set__
_SET_NUM = ExtElem.num.__set__
_SET_DEN = ExtElem.den.__set__
_SET_COEFFS = ExtElem._coeffs.__set__


def _init(self: ExtElem, field, num: tuple, den: int, coeffs) -> None:
    _SET_FIELD(self, field)
    _SET_NUM(self, num)
    _SET_DEN(self, den)
    _SET_COEFFS(self, coeffs)


def _wrap(field, num: tuple, den: int) -> ExtElem:
    """The element num/den; num and den must already be in lowest terms."""
    self = _new_elem(ExtElem)
    _init(self, field, num, den, None)
    return self


def _lowest(field, num: tuple, den: int) -> ExtElem:
    """The element num/den, den > 0, brought to lowest terms by one gcd."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return _wrap(field, num, den)


class NumberField:
    """Q[a]/(p(a)) for monic irreducible p of degree >= 2.

    Build through make_extension, which also checks irreducibility.

    Elements are integer numerators over one denominator (see ExtElem).  A
    product convolves the two numerator tuples; its terms of degree
    n..2n-2 are folded back with the coordinates of a^n..a^(2n-2), computed
    once here as integer rows over their common denominator (1 when p has
    integer coefficients), and one gcd brings the result to lowest terms.
    """

    is_field = True

    def __init__(self, minpoly):
        mp = tuple(Fraction(c) for c in minpoly)
        if len(mp) < 3:
            raise WroncritError("extension degree must be at least 2")
        if mp[-1] != 1:
            raise NotMonic("minimal polynomial must be monic")
        self.minpoly = mp
        self.degree = n = len(mp) - 1
        self._hash = hash(("NumberField", mp))
        self._zeros = (0,) * (n - 1)
        # a^n = -(p_0 + p_1 a + ... + p_(n-1) a^(n-1)), where
        # p_i = _mp_num[i] / _mp_den with integer _mp_num[i] and _mp_den
        self._mp_den = math.lcm(*[c.denominator for c in mp])
        self._mp_num = tuple([c.numerator * (self._mp_den // c.denominator) for c in mp[:n]])
        power, powers = _wrap(self, self._zeros + (1,), 1), []
        for _ in range(n - 1):
            power = self._times_gen(power)
            powers.append(power)
        self._den = math.lcm(*[p.den for p in powers])
        self._powers = tuple(tuple([c * (self._den // p.den) for c in p.num]) for p in powers)
        self._zero = self._scalar(0)
        self._one = self._scalar(1)
        self._complex_gen: complex | None = None

    @property
    def gen(self) -> ExtElem:
        return ExtElem(self, [0, 1])

    def _scalar(self, c) -> ExtElem:
        """The rational c (an int or a Fraction, so in lowest terms)."""
        return _wrap(self, (c.numerator,) + self._zeros, c.denominator)

    def zero(self) -> ExtElem:
        return self._zero

    def one(self) -> ExtElem:
        return self._one

    def coerce(self, v) -> ExtElem:
        if isinstance(v, ExtElem):
            if v.field is not self and v.field != self:
                raise MixedFields("element of a different extension field")
            return v
        if isinstance(v, (int, Fraction)):
            return self._scalar(v)
        raise MixedFields(f"cannot coerce {v!r} into {self!r}")

    def _times_gen(self, v: ExtElem) -> ExtElem:
        """a * v."""
        top = v.num[-1]
        shifted = (0,) + v.num[:-1]
        if not top:
            return _wrap(self, shifted, v.den)
        d = self._mp_den
        return _lowest(self, tuple([s * d - top * m for s, m in zip(shifted, self._mp_num)]),
                       v.den * d)

    def _fold(self, prod: list) -> list:
        """The integer coordinates, over ``_den``, of the element
        prod[0] + prod[1] a + ... + prod[2n-2] a^(2n-2): the terms of degree
        n..2n-2 fold back through the rows of ``_powers``."""
        n = self.degree
        out = prod[:n]
        d = self._den
        if d != 1:
            out = [c * d for c in out]
        for c, row in zip(prod[n:], self._powers):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return out

    def _mul(self, x: ExtElem, y: ExtElem) -> ExtElem:
        """x * y: convolve the numerators, fold the high terms back."""
        prod = [0] * (2 * self.degree - 1)
        ys = tuple(enumerate(y.num))
        for i, xi in enumerate(x.num):
            if xi:
                for j, yj in ys:
                    prod[i + j] += xi * yj
        return _lowest(self, tuple(self._fold(prod)), x.den * y.den * self._den)

    def invertible(self, a: ExtElem) -> bool:
        return bool(self.coerce(a))

    def inv(self, a: ExtElem) -> ExtElem:
        """Solve M_a x = e_0, where column j of M_a holds the coordinates of
        a * a^j, by fraction-free row reduction of [M_a | e_0]: x is the last
        column of the pivot rows over the last pivot, read as integers.  A
        column of M_a without a pivot makes a a zero divisor, so the minimal
        polynomial factors."""
        a = self.coerce(a)
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        n = self.degree
        cols = [a]
        for _ in range(n - 1):
            cols.append(self._times_gen(cols[-1]))
        # M_a is an integer matrix M over one denominator d, and M_a x = e_0
        # is M x = d e_0: the columns' Fraction coordinates are never built
        d = math.lcm(*[col.den for col in cols])
        cols = [[c * (d // col.den) for c in col.num] for col in cols]
        pivots, rows, piv = _bareiss(
            [[col[i] for col in cols] + [d if i == 0 else 0] for i in range(n)])
        if pivots != list(range(n)):
            raise NotIrreducible("minimal polynomial is not irreducible (zero divisor found)")
        if piv < 0:
            return _lowest(self, tuple([-row[n] for row in rows]), -piv)
        return _lowest(self, tuple([row[n] for row in rows]), piv)

    def complex_gen(self) -> complex:
        """Deterministic complex embedding of the generator.

        Chooses the root of the minimal polynomial with the largest imaginary
        part, then the largest real part. x^2+x+1 maps a to exp(2*pi*i/3);
        x^2-2 maps a to +sqrt(2). Computed on the first call and kept, since
        every embedded extension scalar asks for it.
        """
        if self._complex_gen is None:
            import numpy as np

            rts = np.roots([float(c) for c in reversed(self.minpoly)])
            key = sorted(rts, key=lambda r: (r.imag, r.real))
            self._complex_gen = complex(key[-1])
        return self._complex_gen

    def __eq__(self, other):
        return other is self or (isinstance(other, NumberField) and self.minpoly == other.minpoly)

    def __hash__(self):
        return self._hash

    def _format_minpoly(self) -> str:
        """The minimal polynomial in the generator a, e.g. "a^2 + a + 1"."""
        from .polyring import Poly, format_poly

        return format_poly(Poly(QQ, self.minpoly), "a")

    def __repr__(self):
        return f"QQ[a]/({self._format_minpoly()})"


# ---------------------------------------------------------------------------
# irreducibility over Q by bounded integer trial factorization

_CANDIDATE_CAP = 2_000_000


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _to_monic_integer(mp: tuple[Fraction, ...]) -> list[int]:
    """Substitute x -> y/m and scale so the polynomial is monic with integer
    coefficients; irreducibility over Q is preserved."""
    n = len(mp) - 1
    m = 1
    for c in mp:
        m = m * c.denominator // math.gcd(m, c.denominator)
    return [int(mp[i] * m ** (n - i)) for i in range(n + 1)]


def is_irreducible(minpoly) -> bool:
    """Irreducibility over Q of a monic rational polynomial, by bounded trial
    factorization over candidate factor degrees. Desk scale: raises on inputs
    whose candidate enumeration would be enormous."""
    from .polyring import Poly, divides

    mp = tuple(Fraction(c) for c in minpoly)
    if mp[-1] != 1:
        raise NotMonic("irreducibility check expects a monic polynomial")
    n = len(mp) - 1
    if n == 1:
        return True
    g = _to_monic_integer(mp)
    if g[0] == 0:
        return False
    gq = Poly(QQ, g)
    bound = 1 + max(abs(c) for c in g[:-1])
    for k in range(1, n // 2 + 1):
        const_choices = [d * s for d in _int_divisors(g[0]) for s in (1, -1)]
        if k == 1:
            if any(sum(c * r ** i for i, c in enumerate(g)) == 0 for r in const_choices):
                return False
            continue
        ranges = []
        total = len(const_choices)
        for j in range(1, k):
            b = math.comb(k, k - j) * bound ** (k - j)
            total *= 2 * b + 1
            if total > _CANDIDATE_CAP:
                raise WroncritError(
                    "minimal polynomial exceeds the desk-scale irreducibility check")
            ranges.append(range(-b, b + 1))
        for c0 in const_choices:
            for rest in itertools.product(*ranges):
                if divides(Poly(QQ, [c0, *rest, 1]), gq):
                    return False
    return True


def _parse_minpoly_string(s: str) -> tuple:
    sym = next((ch for ch in s if ch.isalpha()), None)
    if sym is None:
        raise ParseError(f"no variable found in minimal polynomial {s!r}")
    return tuple(_parse_symbol_poly(s, sym, _parse_fraction))


def make_extension(minpoly) -> NumberField:
    """Build Q[a]/(p(a)). p must be monic of degree >= 2 and irreducible.

    minpoly is a coefficient sequence (ascending) or a string like
    "x^2+x+1" in any single symbol.
    """
    if isinstance(minpoly, str):
        minpoly = _parse_minpoly_string(minpoly)
    field = NumberField(minpoly)
    if not is_irreducible(field.minpoly):
        raise NotIrreducible(f"{field._format_minpoly()} factors over the rationals")
    return field


# ---------------------------------------------------------------------------
# dual numbers F[eps]/(eps^2)

class DualRing:
    """Base field adjoined a square-zero eps. Not a field: a + b*eps is
    invertible exactly when a is."""

    is_field = False

    def __init__(self, base):
        if not getattr(base, "is_field", False):
            raise WroncritError("dual ring needs a field as base")
        self.base = base

    def zero(self) -> "DualNum":
        return DualNum(self, self.base.zero(), self.base.zero())

    def one(self) -> "DualNum":
        return DualNum(self, self.base.one(), self.base.zero())

    @property
    def eps(self) -> "DualNum":
        return DualNum(self, self.base.zero(), self.base.one())

    def coerce(self, v) -> "DualNum":
        if isinstance(v, DualNum):
            if v.ring != self:
                raise MixedFields("dual number over a different base")
            return v
        return DualNum(self, self.base.coerce(v), self.base.zero())

    def invertible(self, d: "DualNum") -> bool:
        d = self.coerce(d)
        return self.base.invertible(d.a)

    def inv(self, d: "DualNum") -> "DualNum":
        d = self.coerce(d)
        ia = self.base.inv(d.a)
        return DualNum(self, ia, -d.b * ia * ia)

    def __eq__(self, other):
        return isinstance(other, DualRing) and self.base == other.base

    def __hash__(self):
        return hash(("DualRing", self.base))

    def __repr__(self):
        return f"{self.base!r}[eps]"


class DualNum:
    """a + b*eps with eps^2 = 0; (a+b eps)(c+d eps) = ac + (ad+bc) eps."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: DualRing, a, b):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "a", ring.base.coerce(a))
        object.__setattr__(self, "b", ring.base.coerce(b))

    def __setattr__(self, *a):
        raise AttributeError("DualNum is immutable")

    def _lift(self, other):
        if isinstance(other, DualNum):
            if other.ring != self.ring:
                raise MixedFields("dual numbers over different bases")
            return other
        try:
            return self.ring.coerce(other)
        except (MixedFields, TypeError):
            return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualNum(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return DualNum(self.ring, -self.a, -self.b)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualNum(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return DualNum(self.ring, self.a * o.a, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * self.ring.inv(o)

    def __rtruediv__(self, other):
        return self.ring.inv(self) * other

    def __pow__(self, n: int):
        return _power(self, n, self.ring.one(), self.ring.inv)

    def __eq__(self, other):
        if isinstance(other, DualNum):
            return self.ring == other.ring and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction, ExtElem)):
            return self.a == other and not self.b
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return format_scalar(self)


def dual_lift(a, b) -> DualNum:
    """Pair two base-field scalars into a + b*eps, inferring the base."""
    base = None
    for v in (a, b):
        if isinstance(v, ExtElem):
            if base is not None and base != v.field:
                raise MixedFields("components live in different fields")
            base = v.field
        elif isinstance(v, DualNum):
            raise MixedFields("components of a dual number must come from the base field")
    if base is None:
        base = QQ
    ring = DualRing(base)
    return DualNum(ring, base.coerce(a), base.coerce(b))


# ---------------------------------------------------------------------------
# floating complex scalars
#
# Used by the numeric paths (root finding, certification of floating
# candidates).  Not exact: equality of elements is bitwise, so callers
# compare against tolerances themselves.

class ComplexField:
    """Machine-precision complex numbers wearing the ring protocol."""

    is_field = True

    def zero(self) -> complex:
        return 0j

    def one(self) -> complex:
        return 1 + 0j

    def coerce(self, v) -> complex:
        if isinstance(v, (complex, float, int, Fraction)):
            return complex(v)
        if isinstance(v, ExtElem):
            return embed_scalar(v)
        raise MixedFields(f"cannot coerce {v!r} into CC")

    def invertible(self, a: complex) -> bool:
        return a != 0

    def inv(self, a: complex) -> complex:
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, ComplexField)

    def __hash__(self):
        return hash("CC")

    def __repr__(self):
        return "CC"


CC = ComplexField()


# ---------------------------------------------------------------------------
# scalar parsing and formatting
#
# Serialization forms: rationals "p/q" (q omitted when 1); extension elements
# "c0 + c1*a + c2*a^2" in the generator a; dual numbers "u + v*eps".

# a term without parentheses: a rational, then at most one power of a name,
# then at most one more power of a name joined by "*" (as in 2*a*x or a^2*x^2)
_TERM_RE = re.compile(r"^(?P<coeff>(?P<num>[0-9/]*)\*?(?P<name>[A-Za-z_][A-Za-z_0-9]*)?"
                      r"(?:\^(?P<pow>[0-9]+))?)"
                      r"(?:\*(?P<last>[A-Za-z_][A-Za-z_0-9]*)(?:\^(?P<lastpow>[0-9]+))?)?$")


def _split_terms(s: str) -> list[str]:
    """Split on top-level + and - (keeping signs), respecting parentheses."""
    out, depth, cur = [], 0, ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        if ch in "+-" and depth == 0 and cur.strip() and cur.strip()[-1] not in "+-*/^(":
            out.append(cur.strip())
            cur = ch
        else:
            cur += ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    if cur.strip():
        out.append(cur.strip())
    return out


def _split_term(t: str, symbol: str) -> tuple[str, int]:
    """(coefficient, power of symbol) of an unparenthesised, unsigned term.

    The coefficient is a rational times at most one power of another name,
    the way format_scalar prints a multiple of a generator: over Q(a) with
    symbol x, "3*a^2*x^2" splits into ("3*a^2", 2) and "a" into ("a", 0).
    """
    m = _TERM_RE.match(t)
    if m is not None:
        name, last = m.group("name"), m.group("last")
        if last is None and name == symbol:
            return m.group("num"), int(m.group("pow") or 1)
        if last is None and (name is not None or not m.group("pow")):
            return m.group("coeff"), 0
        if last == symbol and name not in (None, symbol):
            return m.group("coeff"), int(m.group("lastpow") or 1)
    raise ParseError(f"cannot parse term {t!r}")


def _parse_symbol_poly(s: str, symbol: str, coeff_parse) -> list:
    """Parse a sum of terms c*symbol^k into a coefficient list (index k).

    c is a parenthesised scalar, or a rational times at most one power of a
    name other than symbol, which coeff_parse reads.
    """
    coeffs: dict[int, object] = {}
    terms = _split_terms(s)
    if not terms:
        raise ParseError(f"empty scalar string {s!r}")
    for term in terms:
        t = term.replace(" ", "")
        sign = 1
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if not t:
            raise ParseError(f"dangling sign in {s!r}")
        if t.startswith("("):
            close = t.index(")")
            coeff_str = t[1:close]
            rest, power = _split_term(t[close + 1:].lstrip("*"), symbol)
            if rest:
                raise ParseError(f"cannot parse term {term!r}")
        else:
            coeff_str, power = _split_term(t, symbol)
        if coeff_str in ("", "+"):
            coeff_str = "1"
        coeff = coeff_parse(coeff_str)
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return out


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}") from e


def parse_scalar(s: str, ring) -> Scalar:
    """Parse a scalar string in the given ring (QQ, NumberField or DualRing)."""
    s = s.strip()
    if isinstance(ring, RationalField):
        return _parse_fraction(s)
    if isinstance(ring, NumberField):
        coeffs = _parse_symbol_poly(s, "a", lambda c: _parse_fraction(c))
        return ExtElem(ring, coeffs)
    if isinstance(ring, DualRing):
        coeffs = _parse_symbol_poly(s, "eps", lambda c: parse_scalar(c, ring.base))
        if len(coeffs) > 2:
            raise ParseError("eps^2 vanishes; dual numbers have only u + v*eps")
        a = coeffs[0] if coeffs else 0
        b = coeffs[1] if len(coeffs) > 1 else 0
        return DualNum(ring, a, b)
    raise ParseError(f"unknown ring {ring!r}")


def format_scalar(x: Scalar) -> str:
    # complex first: the float coordinates and coefficients of a report are
    # most of the calls, and isinstance against Fraction (an ABC) is slow
    if isinstance(x, complex):
        if x.imag == 0:
            return repr(x.real)
        return f"({x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j)"
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, ExtElem):
        parts = []
        for i, c in enumerate(x.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                sym = "a" if i == 1 else f"a^{i}"
                body = sym if abs(c) == 1 else f"{abs(c)}*{sym}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"
    if isinstance(x, DualNum):
        a_str = format_scalar(x.a)
        if not x.b:
            return a_str
        b_str = format_scalar(x.b)
        sign = "+"
        if b_str.startswith("-") and not any(op in b_str[1:] for op in "+-"):
            sign, b_str = "-", b_str[1:]
        if any(op in b_str for op in "+-"):
            b_str = f"({b_str})"
        eps_part = "eps" if b_str == "1" else f"{b_str}*eps"
        return f"{a_str} {sign} {eps_part}"
    raise ParseError(f"cannot format {x!r}")


def ring_of(x: Scalar):
    """Ring descriptor a scalar belongs to."""
    if isinstance(x, (int, Fraction)):
        return QQ
    if isinstance(x, (float, complex)):
        return CC
    if isinstance(x, ExtElem):
        return x.field
    if isinstance(x, DualNum):
        return x.ring
    raise MixedFields(f"not a scalar: {x!r}")


def common_ring(*xs):
    """Smallest ring descriptor containing all given scalars."""
    ring = QQ
    for x in xs:
        r = ring_of(x)
        if r == ring or isinstance(r, RationalField):
            continue
        if isinstance(ring, RationalField):
            ring = r
        elif ring != r:
            raise MixedFields("scalars from incompatible rings")
    return ring


def embed_scalar(x: Scalar) -> complex:
    """Numeric value of an exact scalar under the field's embedding
    (NumberField.complex_gen)."""
    if isinstance(x, (int, Fraction, float, complex)):
        return complex(x)
    if isinstance(x, ExtElem):
        gen = x.field.complex_gen()
        out = 0j
        # c / den is the correctly rounded float of the coordinate, as Fraction's
        for c in reversed(x.num):
            out = out * gen + c / x.den
        return out
    raise MixedFields(f"no complex embedding for {x!r}")
