"""The Bethe algebra route: critical orbits as joint eigenvalues of Gaudin Hamiltonians.

For master data whose every nonzero weight column is omega_1 = (1, 0, .., 0),
the marked points with weight carry the vector representation C^{N+1} of
sl_{N+1}, and the critical points of level sizes l_1..l_N label the joint
eigenvectors of the Gaudin Hamiltonians
    H_s = sum_{r != s} (P_sr - 1/(N+1)) / (z_s - z_r)
on the singular vectors of weight n omega_1 - sum_i l_i alpha_i in
(C^{N+1})^{(x) n} (Reshetikhin and Varchenko; Mukhin, Tarasov and
Varchenko show the Bethe algebra there is the algebra of functions on the
critical scheme).  By Schur-Weyl duality that singular space is the Specht
module S^lam of the colour counts lam = (n - l_1, l_1 - l_2, .., l_N), on
which the swap P_sr acts as the transposition (s r).  Its dimension is the
number of standard Young tableaux of shape lam, which is the intersection
number of the problem.

At a critical point the eigenvalue of H_s is
    E_s = sum_{r != s} (N/(N+1)) / (z_s - z_r) - y_1'(z_s) / y_1(z_s),
so every joint eigenvalue gives y_1'/y_1 at the marked points, and y_1 is
a small least-squares solve; the D solves are stacked into one call
(_level_one).  y_2..y_N come from the linear Wronskian equations
Wr(y_i, ytilde_i) = T_i y_{i-1} y_{i+1}, one least-squares solve per
eigenvalue and level (wronskian_lstsq).  The roots of the y_i are the raw
coordinates, the eigenvalues of the companion matrices of every level,
stacked over the D eigenvalues (_roots); bethe._polish moves them by one
Gauss-Newton step.
"""

from __future__ import annotations

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
    # the marked points with weight omega_1, embedded in CC
    return np.array([embed_scalar(z) for z, m in data.points if any(m)], dtype=complex)


def shape(data: MasterData) -> tuple[int, ...]:
    """Colour counts lam = (n - l_1, l_1 - l_2, .., l_N) of the singular space."""
    sizes = (sum(1 for _, m in data.points if any(m)), *data.l, 0)
    return tuple(a - b for a, b in zip(sizes, sizes[1:]))


def singular_dim(data: MasterData) -> int:
    """D, the dimension of the singular space: the standard tableaux of shape(data)."""
    return len(standard_tableaux(shape(data)))


def standard_tableaux(lam: Sequence[int]) -> list[tuple[int, ...]]:
    """Standard Young tableaux of shape lam, each as the row of every entry 1..n.

    Empty when lam is not a partition.  The tableaux are listed in
    lexicographic order of their row words.
    """
    lam = tuple(lam)
    if any(v < 0 for v in lam) or any(a < b for a, b in zip(lam, lam[1:])):
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


def adjacent_transpositions(lam: Sequence[int]) -> np.ndarray:
    """Matrices of (j, j+1), j = 1..n-1, on S^lam in Young's orthogonal form.

    Stacked in shape (n - 1, D, D), D the number of standard tableaux.  On
    the tableau basis, with rho = c(j+1) - c(j) the content difference of
    the entries j and j+1: rho = 1 (one row) acts as +1, rho = -1 (one
    column) as -1, and otherwise the tableau T and the tableau T' with j and
    j+1 swapped span a block [[1/rho, s], [s, -1/rho]], s = sqrt(1 - 1/rho^2).
    The matrices are real, symmetric and orthogonal.
    """
    tabs = standard_tableaux(lam)
    index = {t: k for k, t in enumerate(tabs)}
    contents = [_contents(t) for t in tabs]
    S = np.zeros((max(sum(lam) - 1, 0), len(tabs), len(tabs)))
    for j in range(len(S)):
        for k, (t, c) in enumerate(zip(tabs, contents)):
            rho = c[j + 1] - c[j]
            S[j, k, k] = 1.0 / rho
            if abs(rho) > 1:
                swapped = t[:j] + (t[j + 1], t[j]) + t[j + 2:]
                S[j, k, index[swapped]] = np.sqrt(1.0 - 1.0 / rho ** 2)
    return S


def hamiltonians(data: MasterData) -> np.ndarray:
    """The Gaudin Hamiltonians H_s on S^lam, stacked in shape (n, D, D).

    P_sr comes from the adjacent transpositions S_j = P_{j,j+1} by
    conjugation, P_{s,r+1} = S_r P_sr S_r; only one P is held at a time.
    """
    zs = _sites(data)
    n = len(zs)
    S = adjacent_transpositions(shape(data))
    D = S.shape[1]
    shift = 1.0 / (data.N + 1)
    H = np.zeros((n, D, D), dtype=complex)
    eye = np.eye(D)
    for s in range(n - 1):
        P = S[s]
        for r in range(s + 1, n):
            if r > s + 1:
                P = S[r - 1] @ P @ S[r - 1]
            Omega = P - shift * eye
            H[s] += Omega / (zs[s] - zs[r])
            H[r] += Omega / (zs[r] - zs[s])
    return H


def joint_eigenvalues(H: np.ndarray, real: bool) -> np.ndarray:
    """E[k, s], the eigenvalue of H_s on the k-th joint eigenvector.

    One eigendecomposition of the fixed combination sum_s c_s H_s: eigh when
    the H_s are real symmetric (real marked points), eig otherwise.  E_s is
    the diagonal of X^-1 H_s X.
    """
    n, D, _ = H.shape
    if not D:
        return np.zeros((0, n), dtype=complex)
    c = np.random.default_rng(_COMBINATION_SEED).normal(size=n)
    M = np.tensordot(c, H, axes=1)
    if real:
        _, X = np.linalg.eigh(M.real)
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
    A = np.zeros((D, k, k), dtype=complex)
    if k:
        A[:, 0, :] = -coeffs[:, k - 1::-1]
    A[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    return np.linalg.eigvals(A)


def _wronskian_columns(y: np.ndarray, ncols: int, nrows: int) -> np.ndarray:
    # column k holds the coefficients 0..nrows-1 of Wr(y, x^k) = x^k y' - k x^(k-1) y,
    # y given by its coefficient array
    dy = y[1:] * np.arange(1, len(y))
    A = np.zeros((max(nrows, ncols + len(y)), ncols), dtype=complex)
    for k in range(ncols):
        A[k:k + len(dy), k] = dy
        if k:
            A[k - 1:k - 1 + len(y), k] -= k * y
    return A[:nrows]


def wronskian_lstsq(y: Poly, rhs: Poly, degree: int) -> tuple[Poly, Poly]:
    """(ytilde, v) with Wr(y, ytilde) = rhs v and v monic of the given degree.

    One least-squares solve in the coefficients of ytilde and of v below its
    leading 1.  ytilde is determined up to adding multiples of y, which
    leave v alone.  Degree 0 (v = 1) solves Wr(y, ytilde) = rhs; the Bethe
    route takes v = y_{i+1} from rhs = T_i y_{i-1}.
    """
    dg = rhs.degree() + degree - y.degree() + 1  # deg ytilde
    nrows = rhs.degree() + degree + 1
    r = np.array([complex(c) for c in rhs.coeffs])
    # column k holds the coefficients of rhs * x^k
    R = np.zeros((nrows, degree + 1), dtype=complex)
    for k in range(degree + 1):
        R[k:k + len(r), k] = r
    Y = np.array([complex(c) for c in y.coeffs])
    A = np.hstack([_wronskian_columns(Y, dg + 1, nrows), -R[:, :degree]])
    sol, *_ = np.linalg.lstsq(A, R[:, degree], rcond=None)
    return Poly(CC, list(sol[:dg + 1])), Poly(CC, [*sol[dg + 1:], 1.0])


def eigen_points(data: MasterData) -> np.ndarray:
    """Raw coordinates of every joint eigenvalue, shape (D, L).

    Row k holds the roots of y_1..y_N, level by level, read off the k-th
    joint eigenvalue: rho_s = sum_{r != s} (N/(N+1))/(z_s - z_r) - E_s is
    y_1'(z_s)/y_1(z_s), and y_1 of every row comes from one stacked
    least-squares solve (_level_one).  Each next level is the v of one
    Wronskian least-squares solve per row (wronskian_lstsq).  The roots of
    every level are the eigenvalues of its companion matrices, stacked over
    the D rows (_roots).  D = 0, a shape that is not a partition, gives an
    empty (0, L) array.
    """
    zs = _sites(data)
    H = hamiltonians(data)
    if not H.shape[1]:
        return np.zeros((0, data.size()), dtype=complex)
    E = joint_eigenvalues(H, bool(np.all(zs.imag == 0)))
    N = data.N
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    rho = (N / (N + 1)) * (1.0 / diff).sum(axis=1) - E
    # levels[i] holds the coefficients of y_{i+1}, one row per eigenvalue
    levels = [_level_one(zs, rho, data.l[0])]
    if N > 1:
        T = [f.to_ring(CC) for f in data.T]
        one = Poly.one(CC)
        ys = [[one, Poly(CC, list(row))] for row in levels[0]]
        for i in range(1, N):
            for y in ys:
                y.append(wronskian_lstsq(y[i], T[i - 1] * y[i - 1], data.l[i])[1])
            levels.append(np.array([y[i + 1].coeffs for y in ys], dtype=complex))
    return np.hstack([_roots(c) for c in levels])
