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
so every joint eigenvalue gives y_1'/y_1 at the marked points, y_1 by one
small least-squares solve, and y_2..y_N by the linear Wronskian equations
Wr(y_i, ytilde_i) = T_i y_{i-1} y_{i+1}, one least-squares solve each
(wronskian_lstsq).  The roots of the y_i are the raw coordinates, which
bethe._polish moves by one Gauss-Newton step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .field import CC, embed_scalar
from .polyring import Poly, wronskian_pair

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


def adjacent_transpositions(lam: Sequence[int]) -> list[np.ndarray]:
    """Matrices of (j, j+1), j = 1..n-1, on S^lam in Young's orthogonal form.

    On the tableau basis, with rho = c(j+1) - c(j) the content difference
    of the entries j and j+1: rho = 1 (one row) acts as +1, rho = -1 (one
    column) as -1, and otherwise the tableau T and the tableau T' with j and
    j+1 swapped span a block [[1/rho, s], [s, -1/rho]], s = sqrt(1 - 1/rho^2).
    The matrices are real, symmetric and orthogonal.
    """
    tabs = standard_tableaux(lam)
    index = {t: k for k, t in enumerate(tabs)}
    contents = [_contents(t) for t in tabs]
    out = []
    for j in range(sum(lam) - 1):
        S = np.zeros((len(tabs), len(tabs)))
        for k, (t, c) in enumerate(zip(tabs, contents)):
            rho = c[j + 1] - c[j]
            S[k, k] = 1.0 / rho
            if abs(rho) > 1:
                swapped = t[:j] + (t[j + 1], t[j]) + t[j + 2:]
                S[k, index[swapped]] = np.sqrt(1.0 - 1.0 / rho ** 2)
        out.append(S)
    return out


def hamiltonians(data: MasterData) -> np.ndarray:
    """The Gaudin Hamiltonians H_s on S^lam, stacked in shape (n, D, D).

    P_sr comes from the adjacent transpositions S_j = P_{j,j+1} by
    conjugation, P_{s,r+1} = S_r P_sr S_r; only one P is held at a time.
    """
    zs = _sites(data)
    n = len(zs)
    S = adjacent_transpositions(shape(data))
    D = singular_dim(data)
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

    Works in u = x / scale, scale = max |z_s|, so the Vandermonde rows stay
    of order one, and maps the coefficients back.
    """
    scale = max(np.abs(zs).max(initial=0.0), 1.0)
    u = zs / scale
    k = np.arange(degree + 1)
    powers = u[:, None] ** k[None, :]
    dpowers = np.zeros_like(powers)
    dpowers[:, 1:] = k[1:] * powers[:, :-1]
    A = dpowers - (scale * rho)[:, None] * powers
    sol, *_ = np.linalg.lstsq(A[:, :degree], -A[:, degree], rcond=None)
    return np.append(sol, 1.0) * scale ** (degree - k)


def _wronskian_columns(y: Poly, ncols: int, nrows: int) -> np.ndarray:
    # column k holds the coefficients 0..nrows-1 of Wr(y, x^k)
    cols = []
    for k in range(ncols):
        w = wronskian_pair(y, Poly.monomial(CC, 1.0, k))
        cols.append([complex(w.coeff(m)) for m in range(nrows)])
    return np.array(cols, dtype=complex).reshape(ncols, nrows).T


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
    A = np.hstack([_wronskian_columns(y, dg + 1, nrows), -R[:, :degree]])
    sol, *_ = np.linalg.lstsq(A, R[:, degree], rcond=None)
    return Poly(CC, list(sol[:dg + 1])), Poly(CC, [*sol[dg + 1:], 1.0])


def eigen_points(data: MasterData) -> np.ndarray:
    """Raw coordinates of every joint eigenvalue, shape (D, L).

    Row k holds the roots of y_1..y_N, level by level, read off the k-th
    joint eigenvalue: rho_s = sum_{r != s} (N/(N+1))/(z_s - z_r) - E_s is
    y_1'(z_s)/y_1(z_s) (_level_one), and each next level is the v of one
    Wronskian least-squares solve (wronskian_lstsq).
    """
    zs = _sites(data)
    H = hamiltonians(data)
    E = joint_eigenvalues(H, bool(np.all(zs.imag == 0)))
    N = data.N
    diff = zs[:, None] - zs[None, :]
    np.fill_diagonal(diff, np.inf)
    rho = (N / (N + 1)) * (1.0 / diff).sum(axis=1) - E
    T = [f.to_ring(CC) for f in data.T]
    one = Poly.one(CC)
    rows = []
    for rho_k in rho:
        # ys[i] is y_i, with y_0 = 1
        ys = [one, Poly(CC, list(_level_one(zs, rho_k, data.l[0])))]
        for i in range(1, N):
            ys.append(wronskian_lstsq(ys[i], T[i - 1] * ys[i - 1], data.l[i])[1])
        rows.append([t for y in ys if y.degree() > 0 for t in np.roots(y.coeffs[::-1])])
    return np.array(rows, dtype=complex).reshape(len(rho), data.size())
