"""Enumerative counts in the Grassmannian of (N+1)-planes in degree-d polynomials.

Partitions inside the (N+1) x (d-N) box index the Schubert basis of the
cohomology of Gr(N+1, d+1); a ramification sequence is literally such a
partition.  Products of basis classes expand through Littlewood-Richardson
coefficients, computed here by direct enumeration of lattice-word skew
tableaux; partitions that leave the box are dropped at every step, which
is exactly multiplication in the quotient ring.  The expected number of
spaces realizing a basic situation is the coefficient of the full box in
the product of all its classes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BoxOverflow, DimensionMismatch
from .ramification import BasicSituation


def normalize_partition(lam: Sequence[int], box: tuple[int, int] | None = None) -> tuple[int, ...]:
    """Trailing zeros stripped; monotonicity checked; box bounds if given."""
    t = tuple(int(v) for v in lam)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)) or (t and t[-1] < 0):
        raise ValueError(f"{tuple(lam)} is not a partition")
    if box is not None:
        rows, cols = box
        if len(t) > rows or (t and t[0] > cols):
            raise BoxOverflow(f"partition {t} does not fit a {rows} x {cols} box")
    return t


def _contains(nu: tuple[int, ...], lam: tuple[int, ...]) -> bool:
    return all(nu[i] >= v for i, v in enumerate(lam)) if len(lam) <= len(nu) else False


def _count_lr_fillings(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Lattice-word skew tableaux of shape nu/lam and content mu.

    Cells are filled in reverse reading order (top row first, right to left),
    so the lattice condition can be enforced on every prefix.  Rows must be
    weakly, columns strictly, increasing.
    """
    rows = len(nu)
    lam_p = list(lam) + [0] * (rows - len(lam))
    cells = [(r, c) for r in range(rows) for c in range(nu[r] - 1, lam_p[r] - 1, -1)]
    m = len(mu)
    counts = [0] * (m + 1)
    fill: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        right = fill.get((r, c + 1))
        above = fill.get((r - 1, c))
        total = 0
        for v in range(1, m + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue
            if right is not None and v > right:
                continue
            if above is not None and v <= above:
                continue
            counts[v] += 1
            fill[(r, c)] = v
            total += place(idx + 1)
            del fill[(r, c)]
            counts[v] -= 1
        return total

    return place(0)


def lr_coefficient(lam, mu, nu, box: tuple[int, int] | None = None) -> int:
    """Structure constant: multiplicity of the nu-class in lam times mu."""
    lam = normalize_partition(lam, box)
    mu = normalize_partition(mu, box)
    nu = normalize_partition(nu, box)
    if sum(lam) + sum(mu) != sum(nu) or not _contains(nu, lam):
        return 0
    return _count_lr_fillings(lam, mu, nu)


def _partitions_over(lam: tuple[int, ...], size: int, rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    # partitions of |.| = size containing lam inside the box, normalized:
    # the rows are weakly decreasing, so the zeros come last
    lam_p = list(lam) + [0] * (rows - len(lam))

    def rec(r: int, prev: int, left: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if r == rows:
            if left == 0:
                yield tuple(v for v in acc if v)
            return
        hi = min(prev, cols, lam_p[r] + left)
        for v in range(hi, lam_p[r] - 1, -1):
            if left - (v - lam_p[r]) <= sum(min(v, cols) - lam_p[t] for t in range(r + 1, rows)):
                acc.append(v)
                yield from rec(r + 1, v, left - (v - lam_p[r]), acc)
                acc.pop()

    yield from rec(0, cols, size - sum(lam), [])


def mult_partitions(lam, mu, box: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """Expand a product of two classes in the box-truncated basis.

    The fillings are counted directly on the partitions _partitions_over
    yields: they are normalized, contain lam, have size |lam| + |mu| and fit
    the box by construction, so lr_coefficient's checks are not repeated.
    """
    lam = normalize_partition(lam, box)
    mu = normalize_partition(mu, box)
    rows, cols = box
    out: dict[tuple[int, ...], int] = {}
    for nu in _partitions_over(lam, sum(lam) + sum(mu), rows, cols):
        c = _count_lr_fillings(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def intersection_number(basic: BasicSituation) -> int:
    """Coefficient of the point class in the product of all classes of ``basic``."""
    rows, cols = basic.N + 1, basic.d - basic.N
    box = (rows, cols)
    classes = [normalize_partition(a, box) for _, a in basic.points]
    classes.append(normalize_partition(basic.infinity, box))
    if sum(map(sum, classes)) != rows * cols:
        raise DimensionMismatch("codimensions do not sum to the box size")
    cur: dict[tuple[int, ...], int] = {classes[0]: 1}
    for cls in classes[1:]:
        nxt: dict[tuple[int, ...], int] = {}
        for nu, coef in cur.items():
            for rho, c in mult_partitions(nu, cls, box).items():
                nxt[rho] = nxt.get(rho, 0) + coef * c
        cur = nxt
    return cur.get(normalize_partition([cols] * rows), 0)
