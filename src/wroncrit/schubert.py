"""Enumerative counts in the Grassmannian of (N+1)-planes in degree-d polynomials.

Partitions inside the (N+1) x (d-N) box index the Schubert basis of the
cohomology of Gr(N+1, d+1); a ramification sequence is literally such a
partition.  Products of basis classes expand through Littlewood-Richardson
coefficients.  The product with mu adds the rows of mu in turn as
horizontal strips, strip i filled with the label i, and keeps a strip only
while the labels read so far form a lattice word (Fulton, *Young
Tableaux*, ch. 5); for a one-row mu this is the Pieri rule.  Shapes that
leave the box are dropped at every step, which is exactly multiplication
in the quotient ring.  The expected number of spaces realizing a basic
situation is the coefficient of the full box in the product of all its
classes.
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


def lr_coefficient(lam, mu, nu, box: tuple[int, int] | None = None) -> int:
    """Structure constant: multiplicity of the nu-class in lam times mu.

    Read off the product of lam and mu in the box that nu fills.
    """
    lam = normalize_partition(lam, box)
    mu = normalize_partition(mu, box)
    nu = normalize_partition(nu, box)
    # a nonzero coefficient needs nu to contain both factors, so both fit its box
    if sum(lam) + sum(mu) != sum(nu) or not (_contains(nu, lam) and _contains(nu, mu)):
        return 0
    return mult_partitions(lam, mu, (len(nu), nu[0] if nu else 0)).get(nu, 0)


def _strips(shape: tuple[int, ...], size: int, prev: tuple[int, ...] | None,
            cols: int) -> Iterator[tuple[int, ...]]:
    """Horizontal strips of ``size`` cells on ``shape``, as cells per row.

    A strip stays in the box (row 0 up to ``cols``, row r up to the old
    row r-1).  Against the previous label's strip ``prev`` (None for the
    first label) it keeps the lattice condition: reading the rows top down,
    and each row's new cells before its ``prev`` cells, the new label never
    outnumbers the previous one.
    """
    rows = len(shape)
    # room: the previous label's cells above row r less the new ones so far;
    # the first label has no previous one, and its room never runs out
    room0, prev = (size, (0,) * rows) if prev is None else (0, prev)

    def rec(r: int, left: int, room: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield (*acc, *(0,) * (rows - r))
            return
        if r == rows:
            return
        hi = min(left, room, (cols if r == 0 else shape[r - 1]) - shape[r])
        for x in range(hi, -1, -1):
            acc.append(x)
            yield from rec(r + 1, left - x, room - x + prev[r], acc)
            acc.pop()

    yield from rec(0, size, room0, [])


def _times(cur: dict[tuple[int, ...], int], mu: tuple[int, ...],
           cols: int) -> dict[tuple[int, ...], int]:
    """The combination cur (full-length rows -> coefficient) times the class mu.

    The rows of mu are added as horizontal strips (_strips), each one
    lattice against the one before.  A state is a shape with its last
    strip; states reached along several paths, from the same shape of cur
    or from different ones, are merged with their counts, and a shape's
    coefficient sums the counts of its final states.
    """
    states: dict[tuple, int] = {(shape, None): c for shape, c in cur.items()}
    for size in mu:
        nxt: dict[tuple, int] = {}
        for (shape, prev), count in states.items():
            for strip in _strips(shape, size, prev, cols):
                key = (tuple(s + x for s, x in zip(shape, strip)), strip)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    out: dict[tuple[int, ...], int] = {}
    for (shape, _), count in states.items():
        out[shape] = out.get(shape, 0) + count
    return out


def _padded(lam: tuple[int, ...], rows: int) -> tuple[int, ...]:
    return (*lam, *(0,) * (rows - len(lam)))


def mult_partitions(lam, mu, box: tuple[int, int]) -> dict[tuple[int, ...], int]:
    """Expand a product of two classes in the box-truncated basis (_times)."""
    lam = normalize_partition(lam, box)
    mu = normalize_partition(mu, box)
    rows, cols = box
    product = _times({_padded(lam, rows): 1}, mu, cols)
    return {normalize_partition(nu): c for nu, c in product.items()}


def intersection_number(basic: BasicSituation) -> int:
    """Coefficient of the point class in the product of all classes of ``basic``."""
    rows, cols = basic.N + 1, basic.d - basic.N
    box = (rows, cols)
    classes = [normalize_partition(a, box) for _, a in basic.points]
    classes.append(normalize_partition(basic.infinity, box))
    if sum(map(sum, classes)) != rows * cols:
        raise DimensionMismatch("codimensions do not sum to the box size")
    cur = {_padded(classes[0], rows): 1}
    for cls in classes[1:]:
        cur = _times(cur, cls, cols)
    return cur.get((cols,) * rows, 0)
