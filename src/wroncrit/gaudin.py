"""The Bethe algebra route: critical orbits as joint eigenvalues of Gaudin Hamiltonians.

For master data whose every nonzero weight column is omega_1 = (1, 0, .., 0),
the marked points with weight carry the vector representation C^{N+1} of
sl_{N+1}, and the critical points of level sizes l_1..l_N label the joint
eigenvectors of the Gaudin Hamiltonians
    H_s = sum_{r != s} P_sr / (z_s - z_r)
on the singular vectors of weight n omega_1 - sum_i l_i alpha_i in
(C^{N+1})^{(x) n} (Reshetikhin and Varchenko; Mukhin, Tarasov and
Varchenko show the Bethe algebra there is the algebra of functions on the
critical scheme).  By Schur-Weyl duality that singular space is the Specht
module S^lam of the colour counts lam = (n - l_1, l_1 - l_2, .., l_N), on
which the swap P_sr acts as the transposition (s r).  Its dimension is the
number of standard Young tableaux of shape lam, which is the intersection
number of the problem.  Young's orthogonal form of the adjacent
transpositions comes from a read-only table built once per shape and
process (_orthogonal_form); the dense S_j are assembled from it on each
call (adjacent_transpositions), and the combination vector that separates
the joint eigenvalues is drawn once per number of marked points
(_combination).

This is the gl_{N+1} form; the sl_{N+1} form subtracts 1/(N+1) from each
P_sr, which moves E_s by a constant and no eigenvector.  At a critical
point the eigenvalue of H_s is
    E_s = sum_{r != s} 1 / (z_s - z_r) - y_1'(z_s) / y_1(z_s),
so every joint eigenvalue gives y_1'/y_1 at the marked points, and y_1 is
a small least-squares solve; the D solves are stacked into one call
(_level_one).  y_2..y_N come from the linear Wronskian equations
Wr(y_i, ytilde_i) = T_i y_{i-1} y_{i+1}, whose D least-squares systems are
again one stacked solve per level (_wronskian_system).  At real marked
points H_s, E_s and every y_i are real (real_sites).  The roots of the y_i
are the raw coordinates, the eigenvalues of the companion matrices of every
level, stacked over the D eigenvalues (_roots); bethe._polish moves them by
one Gauss-Newton step.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .field import CC, embed_scalar
from .polyring import Poly

if TYPE_CHECKING:  # bethe imports this module
    from .bethe import MasterData

# the combination sum_s c_s H_s whose eigenvectors are the joint ones; any
# generic real c separates the joint eigenvalues, this one is fixed so that
# the eigenvectors, and so the orbits, are the same on every run
_COMBINATION_SEED = 0


def covers(data: MasterData) -> bool:
    """True when every nonzero weight column of ``data`` is omega_1."""
    omega_1 = (1,) + (0,) * (data.N - 1)
    return all(m == omega_1 for _, m in data.points if any(m))


def _sites(data: MasterData) -> np.ndarray:
    # the marked points with weight omega_1, embedded in CC; float64 when all are real
    zs = np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)
    return zs if zs.imag.any() else zs.real


def real_sites(data: MasterData) -> bool:
    """True when every marked point with weight is real (_sites is float64).

    Then the H_s are real symmetric and joint_eigenvalues runs eigh, and the
    Bethe algebra has a simple spectrum (Mukhin, Tarasov and Varchenko):
    the D joint eigenvalues are D distinct critical orbits, each simple.
    """
    return np.isrealobj(_sites(data))


def shape(data: MasterData) -> tuple[int, ...]:
    """Colour counts lam = (n - l_1, l_1 - l_2, .., l_N) of the singular space."""
    sizes = (sum(1 for _, m in data.points if any(m)), *data.l, 0)
    return tuple(a - b for a, b in zip(sizes, sizes[1:]))


def singular_dim(data: MasterData) -> int:
    """D, the dimension of the singular space: the number of standard
    tableaux of shape(data), by the hook length formula
    D = n! / (product of the hook lengths), and 0 when the shape is not a
    partition."""
    lam = shape(data)
    if not _is_partition(lam):
        return 0
    # the hook of box (i, j) has lam[i] - j - 1 boxes to its right and
    # column[j] - i - 1 below it, column[j] the length of column j
    column = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + column[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def _is_partition(lam: tuple[int, ...]) -> bool:
    return all(v >= 0 for v in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def standard_tableaux(lam: Sequence[int]) -> list[tuple[int, ...]]:
    """Standard Young tableaux of shape lam, each as the row of every entry 1..n.

    Empty when lam is not a partition.  The tableaux are listed in
    lexicographic order of their row words.
    """
    lam = tuple(lam)
    if not _is_partition(lam):
        return []
    out = []
    word: list[int] = []
    filled = [0] * len(lam)

    def grow():
        if len(word) == sum(lam):
            out.append(tuple(word))
            return
        for row, cap in enumerate(lam):
            if filled[row] < cap and (row == 0 or filled[row - 1] > filled[row]):
                filled[row] += 1
                word.append(row)
                grow()
                word.pop()
                filled[row] -= 1

    grow()
    return out


def _contents(word: Sequence[int]) -> list[int]:
    # content column - row of every entry of a tableau given by its row word
    seen = [0] * (max(word, default=0) + 1)
    out = []
    for row in word:
        out.append(seen[row] - row)
        seen[row] += 1
    return out


@functools.cache
def _orthogonal_form(lam: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(partner, inv_rho, off) of every S_j on S^lam, each of shape (n - 1, D).

    Row j, column k: the tableau T' = s_j T_k when j and j+1 lie in neither
    one row nor one column of T_k (-1 otherwise), 1/rho and
    s = sqrt(1 - 1/rho^2), rho = c(j+1) - c(j) the content difference of
    the entries j and j+1 of T_k (s = 0 without a partner).  Built once per
    shape and process from standard_tableaux; the arrays are read-only.
    """
    tabs = standard_tableaux(lam)
    index = {t: k for k, t in enumerate(tabs)}
    contents = np.array([_contents(t) for t in tabs], dtype=int)
    contents = contents.reshape(len(tabs), max(sum(lam), 0))
    rho = (contents[:, 1:] - contents[:, :-1]).T
    partner = np.full(rho.shape, -1)
    for j, k in zip(*np.nonzero(np.abs(rho) > 1)):
        t = tabs[k]
        partner[j, k] = index[t[:j] + (t[j + 1], t[j]) + t[j + 2:]]
    off = np.where(partner >= 0, np.sqrt(1.0 - 1.0 / rho ** 2), 0.0)
    table = partner, 1.0 / rho, off
    for a in table:
        a.setflags(write=False)
    return table


def adjacent_transpositions(lam: Sequence[int]) -> np.ndarray:
    """Matrices of (j, j+1), j = 1..n-1, on S^lam in Young's orthogonal form.

    Stacked in shape (n - 1, D, D), D the number of standard tableaux.  On
    the tableau basis, with rho = c(j+1) - c(j) the content difference of
    the entries j and j+1: rho = 1 (one row) acts as +1, rho = -1 (one
    column) as -1, and otherwise the tableau T and the tableau T' with j and
    j+1 swapped span a block [[1/rho, s], [s, -1/rho]], s = sqrt(1 - 1/rho^2).
    The matrices are real, symmetric and orthogonal.  A new dense stack is
    assembled on each call from the shape's table (_orthogonal_form).
    """
    partner, inv_rho, off = _orthogonal_form(tuple(lam))
    m, D = inv_rho.shape
    S = np.zeros((m, D, D))
    j, k = np.indices((m, D))
    S[j, k, k] = inv_rho
    pair = partner >= 0
    S[j[pair], k[pair], partner[pair]] = off[pair]
    return S


def hamiltonians(data: MasterData) -> np.ndarray:
    """The Gaudin Hamiltonians H_s on S^lam, stacked in shape (n, D, D).

    In the dtype of the marked points (_sites): real symmetric when they
    are real.  P_sr comes from the adjacent transpositions S_j = P_{j,j+1}
    by conjugation, P_{s,r+1} = S_r P_sr S_r; only one P is held at a time.
    """
    zs = _sites(data)
    n = len(zs)
    S = adjacent_transpositions(shape(data))
    H = np.zeros((n, *S.shape[1:]), dtype=zs.dtype)
    for s in range(n - 1):
        P = S[s]
        for r in range(s + 1, n):
            if r > s + 1:
                P = S[r - 1] @ P @ S[r - 1]
            Q = P / (zs[s] - zs[r])
            H[s] += Q
            H[r] -= Q
    return H


@functools.cache
def _combination(n: int) -> np.ndarray:
    # the c_s of joint_eigenvalues, drawn once per n; read-only
    c = np.random.default_rng(_COMBINATION_SEED).normal(size=n)
    c.setflags(write=False)
    return c


def joint_eigenvalues(H: np.ndarray) -> np.ndarray:
    """E[k, s], the eigenvalue of H_s on the k-th joint eigenvector.

    One eigendecomposition of the fixed combination sum_s c_s H_s: eigh when
    the H_s are real, which is when real_sites holds, eig otherwise.  E_s is
    the diagonal of X^-1 H_s X, in the dtype of H.
    """
    n, D, _ = H.shape
    if not D:
        return np.zeros((0, n), dtype=H.dtype)
    M = np.tensordot(_combination(n), H, axes=1)
    if np.isrealobj(M):
        _, X = np.linalg.eigh(M)
        Xinv = X.T
    else:
        _, X = np.linalg.eig(M)
        Xinv = np.linalg.inv(X)
    return np.einsum("ske,ek->ks", Xinv @ H, X)


def _level_one(zs: np.ndarray, rho: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients (ascending, monic) of y with y'(z_s) = rho_s y(z_s), least squares.

    rho has one row per joint eigenvalue, shape (D, n), and so has the
    result, shape (D, degree + 1): all D systems are solved by one stacked
    pseudoinverse.  Works in u = x / scale, scale = max |z_s|, so the
    Vandermonde rows stay of order one, and maps the coefficients back.
    """
    scale = max(np.abs(zs).max(initial=0.0), 1.0)
    u = zs / scale
    k = np.arange(degree + 1)
    powers = u[:, None] ** k[None, :]
    dpowers = np.zeros_like(powers)
    dpowers[:, 1:] = k[1:] * powers[:, :-1]
    A = dpowers[None] - (scale * rho)[:, :, None] * powers[None]
    sol = (np.linalg.pinv(A[:, :, :degree]) @ -A[:, :, degree:])[:, :, 0]
    return np.hstack([sol, np.ones((len(rho), 1))]) * scale ** (degree - k)


def _roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of every monic row of coeffs (ascending, shape (D, k + 1)), shape (D, k).

    The eigenvalues of the companion matrices, stacked: np.roots row by row.
    """
    D, k = coeffs.shape[0], coeffs.shape[1] - 1
    A = np.zeros((D, k, k), dtype=coeffs.dtype)
    if k:
        A[:, 0, :] = -coeffs[:, k - 1::-1]
    A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return np.linalg.eigvals(A)


def _wronskian_system(y: np.ndarray, rhs: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of Wr(y, ytilde) = rhs v, v monic of the given degree, for every row.

    y and rhs hold one polynomial per row (coefficients ascending, shapes
    (S, deg y + 1) and (S, deg rhs + 1)).  The unknowns are the coefficients
    of ytilde, then those of v below its leading 1: column k < deg ytilde + 1
    of A[s] holds Wr(y, x^k) = x^k y' - k x^(k-1) y, the next ones
    -rhs x^k, k < degree, and b[s] is rhs x^degree.
    """
    (S, m), r = y.shape, rhs.shape[1]
    nrows = r + degree
    dg = nrows - m + 1  # deg ytilde
    A = np.zeros((S, nrows, dg + 1 + degree), dtype=np.result_type(y, rhs))
    dy = y[:, 1:] * np.arange(1, m)
    for k in range(dg + 1):
        A[:, k:k + m - 1, k] = dy
        if k:
            A[:, k - 1:k - 1 + m, k] -= k * y
    for k in range(degree):
        A[:, k:k + r, dg + 1 + k] = -rhs
    b = np.zeros((S, nrows), dtype=rhs.dtype)
    b[:, degree:] = rhs
    return A, b


def wronskian_lstsq(y: Poly, rhs: Poly) -> Poly:
    """A ytilde with Wr(y, ytilde) = rhs: one least-squares solve of _wronskian_system.

    ytilde is determined up to adding multiples of y; bethe.induced_space
    needs only the span of the solutions.
    """
    A, b = _wronskian_system(np.array([[complex(c) for c in y.coeffs]]),
                             np.array([[complex(c) for c in rhs.coeffs]]), 0)
    return Poly(CC, list(np.linalg.lstsq(A[0], b[0], rcond=None)[0]))


def _times(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # coefficients (ascending) of the polynomial c times every row
    out = np.zeros((len(rows), len(c) + rows.shape[1] - 1), dtype=np.result_type(c, rows))
    for j, cj in enumerate(c):
        out[:, j:j + rows.shape[1]] += cj * rows
    return out


def eigen_points(data: MasterData) -> np.ndarray:
    """Raw coordinates of every joint eigenvalue, complex, shape (D, L).

    Row k holds the roots of y_1..y_N, level by level, read off the k-th
    joint eigenvalue: rho_s = sum_{r != s} 1/(z_s - z_r) - E_s is
    y_1'(z_s)/y_1(z_s), and y_1 of every row comes from one stacked
    least-squares solve (_level_one).  Each next level y_{i+1} is the v of
    Wr(y_i, ytilde) = T_i y_{i-1} v, the D systems of a level solved by one
    stacked pseudoinverse (_wronskian_system) with lstsq's cutoff.  Every
    level is real at real marked points.  The roots of every level are the
    eigenvalues of its companion matrices, stacked over the D rows
    (_roots).  D = 0, a shape that is not a partition, gives an empty (0, L)
    array.
    """
    zs = _sites(data)
    H = hamiltonians(data)
    if not H.shape[1]:
        return np.zeros((0, data.size()), dtype=complex)
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    rho = (1.0 / diff).sum(axis=1) - joint_eigenvalues(H)
    # levels[i] holds the coefficients of y_i, one row per eigenvalue (y_0 = 1)
    levels = [np.ones((len(rho), 1), dtype=zs.dtype), _level_one(zs, rho, data.l[0])]
    for i in range(1, data.N):
        T = np.array([embed_scalar(c) for c in data.T[i - 1].coeffs])
        rhs = _times(T if T.imag.any() else T.real, levels[i - 1])
        A, b = _wronskian_system(levels[i], rhs, data.l[i])
        cutoff = max(A.shape[1:]) * np.finfo(float).eps
        sol = (np.linalg.pinv(A, cutoff) @ b[:, :, None])[:, A.shape[2] - data.l[i]:, 0]
        levels.append(np.hstack([sol, np.ones((len(sol), 1))]))
    return np.hstack([_roots(c) for c in levels[1:]]).astype(complex)
