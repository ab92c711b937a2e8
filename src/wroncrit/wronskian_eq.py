"""Solving Wr(y, ytilde) = T for ytilde, with y monic and square free.

In this package Wr(f, g) = f'g - fg'. The equation is solvable exactly when
y divides Wr(y', T); in that case the solutions form the affine line
ytilde + c*y. The constructive solver follows the divisibility certificate:

* extended Euclid gives c, d with c*y' + d*y = 1 (its gcd is the square-free
  test), so T = a*y + b*y' with a = d*T and b = c*T;
* then T = (a + b')*y + Wr(y, b), and s = a + b' = -c^2*Wr(y', T) mod y, so
  y divides s exactly when T is solvable; with e = s/y and f the
  antiderivative of -e (zero constant term), ytilde = y*f + b solves the
  equation; the solver re-verifies before returning.

normalize_generic moves a particular solution along the solution line to a
generic representative: square free, avoiding listed points and coprime to
listed polynomials, then scaled monic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ExhaustedLadder,
    NotSolvable,
    NotSquareFree,
    VerificationFailed,
)
from .polyring import Poly, div_rem, gcd_monic, is_squarefree, wronskian_pair, xgcd


@dataclass(frozen=True)
class WronskianSolution:
    """Particular solution plus the homogeneous generator (the line is
    particular + c * homogeneous)."""

    particular: Poly
    homogeneous: Poly

    def member(self, c) -> Poly:
        return self.particular + self.homogeneous * c


def _require_monic(y: Poly) -> None:
    if y.is_zero() or not y.is_monic():
        raise NotSquareFree("y must be monic")


def solvable(y: Poly, t: Poly) -> bool:
    """True iff y | Wr(y', T), the exact solvability criterion."""
    _require_monic(y)
    if not is_squarefree(y):
        raise NotSquareFree(f"{y!r} has a repeated root")
    if t.is_zero():
        return True
    if y.degree() == 0:
        return True
    w = wronskian_pair(y.deriv(), t)
    return div_rem(w, y)[1].is_zero()


def solve(y: Poly, t: Poly) -> WronskianSolution:
    """Particular solution of Wr(y, ytilde) = T, or NotSolvable."""
    _require_monic(y)
    if y.degree() == 0:
        # y = 1: Wr(1, g) = -g', so g = -antiderivative(T)
        ytilde = -t.antideriv()
        _verify(y, ytilde, t)
        return WronskianSolution(ytilde, y)
    g, c, d = xgcd(y.deriv(), y)
    if g.degree() != 0:
        raise NotSquareFree(f"{y!r} has a repeated root")
    if t.is_zero():
        return WronskianSolution(Poly.zero(y.ring), y)
    a = d * t
    b = c * t
    s = a + b.deriv()
    q, r = div_rem(s, y)
    if not r.is_zero():
        raise NotSolvable(f"y does not divide Wr(y', T) for y = {y!r}")
    f = (-q).antideriv()
    ytilde = y * f + b
    _verify(y, ytilde, t)
    return WronskianSolution(ytilde, y)


def _verify(y: Poly, ytilde: Poly, t: Poly) -> None:
    if wronskian_pair(y, ytilde) != t:
        raise VerificationFailed("solver output does not satisfy Wr(y, ytilde) = T")


def generic_candidate(
    ytilde: Poly,
    y: Poly,
    avoid_roots_of: list[Poly] | None = None,
    forbidden_points: list | None = None,
    max_candidates: int = 1000,
) -> tuple[Poly, int]:
    """First ytilde + c*y on the ladder c = 0, 1, -1, 2, -2, ... that is
    square free, has no root at a forbidden point, and is coprime to every
    listed polynomial.  Returns the unscaled member and the chosen c."""
    avoid_roots_of = [p for p in (avoid_roots_of or []) if not p.is_zero() and p.degree() > 0]
    forbidden_points = forbidden_points or []
    ring = y.ring

    def ladder():
        yield 0
        k = 1
        while True:
            yield k
            yield -k
            k += 1

    tried = 0
    for c in ladder():
        if tried >= max_candidates:
            break
        tried += 1
        cand = ytilde + y * ring.coerce(c)
        if cand.is_zero():
            continue
        if not is_squarefree(cand):
            continue
        if any(not cand.eval(p) for p in forbidden_points):
            continue
        if any(gcd_monic(cand, q).degree() != 0 for q in avoid_roots_of):
            continue
        return cand, c
    raise ExhaustedLadder(
        f"no generic representative among {max_candidates} ladder candidates")


def normalize_generic(
    ytilde: Poly,
    y: Poly,
    avoid_roots_of: list[Poly] | None = None,
    forbidden_points: list | None = None,
    max_candidates: int = 1000,
) -> Poly:
    """generic_candidate, scaled monic."""
    cand, _ = generic_candidate(ytilde, y, avoid_roots_of, forbidden_points, max_candidates)
    return cand.monic()
