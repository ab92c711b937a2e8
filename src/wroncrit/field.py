"""Exact coefficient arithmetic: rationals, simple extensions, dual numbers.

Three scalar kinds live here.

* Rationals are plain ``fractions.Fraction`` (already normalized and hashable).
* ``ExtElem`` is an element of Q[a]/(p(a)) for a monic irreducible p of degree
  at least 2, stored as a reduced coefficient vector in the generator ``a``.
* ``DualNum`` is a + b*eps with eps^2 = 0 over a base field, used to carry
  first-order deformations through polynomial algebra.

Ring descriptors (``QQ``, ``NumberField``, ``DualRing``) provide the small
protocol the polynomial layer needs: ``zero``, ``one``, ``coerce``,
``invertible``, ``inv`` and an ``is_field`` flag. All scalars are immutable
with structural equality.
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
# simple extensions Q[a]/(p(a))

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExtElem:
    """Element of a NumberField, reduced mod the minimal polynomial.

    ``coeffs`` holds exactly ``field.degree`` Fractions: the coordinates in
    the power basis 1, a, ..., a^(n-1).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if len(cs) > field.degree:
            cs = field._reduce(cs)
        cs += [_ZERO] * (field.degree - len(cs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _reduced(cls, field: "NumberField", coeffs: tuple) -> "ExtElem":
        """Wrap a tuple that already holds ``field.degree`` Fractions."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, *a):
        raise AttributeError("ExtElem is immutable")

    def _lift(self, other) -> "ExtElem":
        if isinstance(other, ExtElem):
            if other.field != self.field:
                raise MixedFields("elements of different extension fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field._scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElem._reduced(self.field, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return ExtElem._reduced(self.field, tuple([-a for a in self.coeffs]))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElem._reduced(self.field, tuple([a - b for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return ExtElem._reduced(self.field, self.field._mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self * self.field.inv(o)

    def __rtruediv__(self, other):
        return self.field.inv(self) * other

    def __pow__(self, n: int):
        return _power(self, n, self.field.one(), self.field.inv)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        if isinstance(other, ExtElem):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return format_scalar(self)


class NumberField:
    """Q[a]/(p(a)) for monic irreducible p of degree >= 2.

    Build through make_extension, which also checks irreducibility.

    Elements multiply by structure constants: a product is the convolution
    of two coordinate tuples, whose terms of degree n..2n-2 are folded back
    with the coordinates of a^n..a^(2n-2), computed once here.
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
        self._zeros = (_ZERO,) * (n - 1)
        powers = [tuple(-c for c in mp[:n])]
        for _ in range(n - 2):
            powers.append(self._times_gen(powers[-1]))
        self._powers = tuple(powers)
        self._complex_gen: complex | None = None

    @property
    def gen(self) -> ExtElem:
        return ExtElem(self, [0, 1])

    def _scalar(self, c) -> ExtElem:
        return ExtElem._reduced(self, (c if isinstance(c, Fraction) else Fraction(c),) + self._zeros)

    def zero(self) -> ExtElem:
        return self._scalar(_ZERO)

    def one(self) -> ExtElem:
        return self._scalar(_ONE)

    def coerce(self, v) -> ExtElem:
        if isinstance(v, ExtElem):
            if v.field != self:
                raise MixedFields("element of a different extension field")
            return v
        if isinstance(v, (int, Fraction)):
            return self._scalar(v)
        raise MixedFields(f"cannot coerce {v!r} into {self!r}")

    def _reduce(self, coeffs: list[Fraction]) -> list[Fraction]:
        coeffs = list(coeffs)
        n = self.degree
        for k in range(len(coeffs) - 1, n - 1, -1):
            c = coeffs[k]
            if c:
                coeffs[k] = _ZERO
                for i in range(n):
                    coeffs[k - n + i] -= c * self.minpoly[i]
        return coeffs[:n]

    def _times_gen(self, v: tuple) -> tuple:
        """Coordinates of a*v, for v given by its coordinates."""
        shifted = (_ZERO, *v[:-1])
        top = v[-1]
        if not top:
            return shifted
        return tuple([s - top * m for s, m in zip(shifted, self.minpoly)])

    def _mul(self, x: tuple, y: tuple) -> tuple:
        """Coordinates of the product of the elements with coordinates x, y."""
        n = self.degree
        prod = [_ZERO] * (2 * n - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        prod[i + j] += xi * yj
        out = prod[:n]
        for c, row in zip(prod[n:], self._powers):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return tuple(out)

    def invertible(self, a: ExtElem) -> bool:
        return bool(self.coerce(a))

    def inv(self, a: ExtElem) -> ExtElem:
        """Solve M_a x = e_0, where column j of M_a holds the coordinates of
        a * a^j, by Gauss-Jordan elimination over Q. A column without a pivot
        makes a a zero divisor, so the minimal polynomial factors."""
        a = self.coerce(a)
        if not a:
            raise ZeroDivisionError("inverse of zero in extension field")
        n = self.degree
        cols = [a.coeffs]
        for _ in range(n - 1):
            cols.append(self._times_gen(cols[-1]))
        rows = [[col[i] for col in cols] + [_ONE if i == 0 else _ZERO] for i in range(n)]
        for j in range(n):
            p = next((i for i in range(j, n) if rows[i][j]), None)
            if p is None:
                raise NotIrreducible("minimal polynomial is not irreducible (zero divisor found)")
            rows[j], rows[p] = rows[p], rows[j]
            piv = rows[j][j]
            if piv != 1:
                rows[j] = [v / piv if v else v for v in rows[j]]
            pivot_row = rows[j]
            for i in range(n):
                f = rows[i][j]
                if i != j and f:
                    rows[i] = [u - f * v if v else u for u, v in zip(rows[i], pivot_row)]
        return ExtElem._reduced(self, tuple([row[n] for row in rows]))

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
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("NumberField", self.minpoly))

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
    if isinstance(x, (Fraction, int)):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        if x.imag == 0:
            return repr(x.real)
        return f"({x.real!r}{'+' if x.imag >= 0 else '-'}{abs(x.imag)!r}j)"
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
        for c in reversed(x.coeffs):
            out = out * gen + complex(c)
        return out
    raise MixedFields(f"no complex embedding for {x!r}")
