"""Weighted B-spline Galerkin solver for the axisymmetric Poisson equation.

Solves -(d_rr + (3/r) d_r + d_zz) psi = omega on the mapped grid in weak
form: find psi in V_h with

    a(psi, phi) = int (psi_rho phi_rho / r_rho^2 + psi_eta phi_eta / z_eta^2)
                  r^3 r_rho z_eta  drho deta  =  int omega phi r^3 r_rho z_eta

for all phi in V_h.  V_h is a tensor product of uniform hats (order-2
B-splines), symmetrized to be even at rho = 0 and odd at both eta ends,
and multiplied in rho by the weight w(rho) = (1 - rho)^p that enforces the
no-flow wall value.  The r^3 measure absorbs the 3/r first-order term, so
the stiffness matrix is symmetric positive definite and Kronecker
separable,

    A = K_rho (x) M_eta + M_rho (x) K_eta,

with four tridiagonal 1-D matrices.  A is never formed.  It is solved by
fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964)
185-199): once per mesh pair, the eta pencil K_eta V = M_eta V diag(lam)
is solved densely, and the tridiagonal rho systems K_rho + lam_j M_rho of
all modes, stacked into one block-diagonal system, get one LAPACK
``dpttrf`` factorization.  A solve is then the load in modal form V^T F^T,
one ``dpttrs`` call that gives the modal coefficients X of all modes at
once, the coefficients C = X^T V^T, and the nodal evaluation, which for
hats is a row scaling of C by the wall weight.  The load
F = L_rho^T W L_eta integrates the bilinear interpolant of the nodal
omega W against the basis.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import AssemblyFailure, SolveFailure
from .fields import FieldGrid
from .meshmap import MeshMap

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)


def bspline_eval(k: int, x):
    """Cardinal uniform B-spline of order k (support [0, k]).

    b^1 is the unit indicator on [0, 1]; higher orders follow the sliding
    average b^k(x) = int_{x-1}^{x} b^{k-1}, evaluated here through the
    equivalent Cox-de Boor recurrence.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    x = np.asarray(x, dtype=float)
    if k == 1:
        # Half-open support so integer evaluation points are not double
        # counted by the recurrence.
        return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)
    lower = bspline_eval(k - 1, x)
    upper = bspline_eval(k - 1, x - 1.0)
    return (x * lower + (k - x) * upper) / (k - 1)


def bspline_deriv(k: int, x):
    """d/dx of the order-k cardinal B-spline: b^{k-1}(x) - b^{k-1}(x-1)."""
    if k < 2:
        raise ValueError("derivative needs k >= 2")
    x = np.asarray(x, dtype=float)
    return bspline_eval(k - 1, x) - bspline_eval(k - 1, x - 1.0)


class _RhoBasis:
    """Even-symmetrized hats B_i = (b_i(rho) + b_i(-rho)) / (1 + delta_i0), i = 0..n."""

    def __init__(self, n: int):
        self.n, self.h = n, 1.0 / n
        self.count = n + 1
        self.index_base = 0

    def _scale(self, i):
        return np.where(np.asarray(i) == 0, 0.5, 1.0)

    def value(self, i, rho):
        sh = np.asarray(i) - 1.0
        raw = bspline_eval(2, rho / self.h - sh) + bspline_eval(2, -rho / self.h - sh)
        return self._scale(i) * raw

    def deriv(self, i, rho):
        sh = np.asarray(i) - 1.0
        raw = bspline_deriv(2, rho / self.h - sh) - bspline_deriv(2, -rho / self.h - sh)
        return self._scale(i) * raw / self.h


class _EtaBasis:
    """Odd-symmetrized hats B_j = b_j(eta) - b_j(-eta) - b_j(2-eta), j = 1..m-1."""

    def __init__(self, m: int):
        self.m, self.h = m, 1.0 / m
        self.count = m - 1
        self.index_base = 1

    def value(self, j, eta):
        sh = np.asarray(j) - 1.0
        return (bspline_eval(2, eta / self.h - sh)
                - bspline_eval(2, -eta / self.h - sh)
                - bspline_eval(2, (2.0 - eta) / self.h - sh))

    def deriv(self, j, eta):
        sh = np.asarray(j) - 1.0
        return (bspline_deriv(2, eta / self.h - sh)
                + bspline_deriv(2, -eta / self.h - sh)
                + bspline_deriv(2, (2.0 - eta) / self.h - sh)) / self.h


# Wall weight w(rho) = (1 - rho)^p.  p = 1 (distance-like) preserves full
# 2nd-order sup-norm accuracy for stream functions with a simple zero at
# the wall; p = 2 additionally forces psi_rho(1) = 0 but costs an order of
# accuracy in the wall cell whenever the data do not share that double zero.
WALL_WEIGHT_POWER = 1


def _weight(rho):
    return (1.0 - rho) ** WALL_WEIGHT_POWER


def _weight_deriv(rho):
    return -WALL_WEIGHT_POWER * (1.0 - rho) ** (WALL_WEIGHT_POWER - 1)


def _cell_quadrature(ncells: int):
    """6-point Gauss nodes and weights on every knot interval of [0, 1]."""
    h = 1.0 / ncells
    lo = np.arange(ncells)[:, None] * h
    xg = lo + 0.5 * h * (_GAUSS_X[None, :] + 1.0)
    wg = np.full_like(xg, 0.5 * h * 1.0) * _GAUSS_W[None, :]
    return xg, wg


def _basis_tables(basis, xg, weighted=False):
    """Evaluate the two hats i = cell + l (l = 0, 1) that overlap every cell.

    Returns (cand, vals, dvals): cand[a] = a is the first hat index of
    cell a, vals[l] / dvals[l] have shape (ncells, q).  Hats outside the
    valid index range evaluate to harmless zeros and are masked later.
    """
    cand = np.arange(xg.shape[0])
    vals, dvals = [], []
    w = _weight(xg) if weighted else 1.0
    dw = _weight_deriv(xg) if weighted else 0.0
    for l in range(2):
        i = (cand + l)[:, None]
        b = basis.value(i, xg)
        vals.append(w * b)
        dvals.append(dw * b + w * basis.deriv(i, xg))
    return cand, vals, dvals


def _cell_matrix(first_a, count_a, vals_a, first_b, count_b, vals_b, weight):
    """sum_cells int (f_a)_i (f_b)_i' d(quad) as a sparse (count_a, count_b) matrix.

    vals_a[l] on cell c belongs to index first_a[c] + l; out-of-range ones drop.
    """
    rows, cols, data = [], [], []
    for l1, va in enumerate(vals_a):
        i1 = first_a + l1
        ok1 = (i1 >= 0) & (i1 < count_a)
        for l2, vb in enumerate(vals_b):
            i2 = first_b + l2
            ok = ok1 & (i2 >= 0) & (i2 < count_b)
            entry = (weight * va * vb).sum(axis=1)
            rows.append(i1[ok])
            cols.append(i2[ok])
            data.append(entry[ok])
    return sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(count_a, count_b)).tocsr()


class GalerkinSystem:
    """Fast-diagonalization Poisson operator for one mesh pair."""

    assembly_count = 0  # class-wide; lets tests confirm factorization reuse

    def __init__(self, mesh_r: MeshMap, mesh_z: MeshMap):
        GalerkinSystem.assembly_count += 1
        self.mesh_r, self.mesh_z = mesh_r, mesh_z
        n, m = mesh_r.n, mesh_z.n
        rb, eb = _RhoBasis(n), _EtaBasis(m)
        nb_r, nb_z = rb.count, eb.count

        xg_r, wg_r = _cell_quadrature(n)
        xg_z, wg_z = _cell_quadrature(m)
        r = mesh_r.value(xg_r.ravel()).reshape(xg_r.shape)
        r_rho = mesh_r.deriv(xg_r)
        z_eta = mesh_z.deriv(xg_z)

        cand_r, val_r, dval_r = _basis_tables(rb, xg_r, weighted=True)
        cand_z, val_z, dval_z = _basis_tables(eb, xg_z)
        first_r, first_z = cand_r - rb.index_base, cand_z - eb.index_base

        def band(first, count, vals_a, vals_b, weight):
            return _cell_matrix(first, count, vals_a, first, count, vals_b, weight)

        self.K_rho = band(first_r, nb_r, dval_r, dval_r, wg_r * r**3 / r_rho)
        self.M_rho = band(first_r, nb_r, val_r, val_r, wg_r * r**3 * r_rho)
        self.K_eta = band(first_z, nb_z, dval_z, dval_z, wg_z / z_eta)
        self.M_eta = band(first_z, nb_z, val_z, val_z, wg_z * z_eta)
        self.symmetry_defect = max(float(abs(a - a.T).max())
                                   for a in (self.K_rho, self.M_rho, self.K_eta, self.M_eta))

        # Load operators against the bilinear nodal interpolant of omega:
        # L[node, i] = int hat_node * basis_i * metric, so F = L_r^T W L_e.
        lam_r = (xg_r - np.arange(n)[:, None] / n) * n   # local coord in [0, 1]
        lam_z = (xg_z - np.arange(m)[:, None] / m) * m
        self._L_rT = _cell_matrix(first_r, nb_r, val_r, np.arange(n), n + 1,
                                  (1.0 - lam_r, lam_r), wg_r * r**3 * r_rho)
        self._L_e = _cell_matrix(np.arange(m), m + 1, (1.0 - lam_z, lam_z),
                                 first_z, nb_z, val_z, wg_z * z_eta)

        # K_eta V = M_eta V diag(lam) with V^T M_eta V = I turns A c = f
        # into one rho system (K_rho + lam_j M_rho) x_j = (V^T F^T)_j per mode.
        try:
            lam, V = scipy.linalg.eigh(self.K_eta.toarray(), self.M_eta.toarray())
        except np.linalg.LinAlgError as exc:
            raise AssemblyFailure(f"eta pencil (K_eta, M_eta) is not definite: {exc}") from exc
        self._V = V
        self._LeV = self._L_e @ V
        # The hats are the identity at the nodes, so nodal psi off the wall
        # is the wall weight times the coefficients.
        self._wall_weight = _weight(mesh_r.nodes_s[:-1])[:, None]

        # Every rho system is tridiagonal SPD.  Stacked mode by mode into one
        # block-diagonal system (zero coupling across block edges), all
        # modes share one L D L^T factorization and one solve.
        d = self.K_rho.diagonal() + lam[:, None] * self.M_rho.diagonal()
        e = np.zeros((nb_z, nb_r))
        e[:, :-1] = self.K_rho.diagonal(1) + lam[:, None] * self.M_rho.diagonal(1)
        d, e, info = scipy.linalg.lapack.dpttrf(d.ravel(), e.ravel()[:-1],
                                                overwrite_d=True, overwrite_e=True)
        if info > 0:
            j, i = divmod(info - 1, nb_r)
            raise AssemblyFailure(f"rho system K_rho + lam_j M_rho of mode j = {j} is not "
                                  f"positive definite (pivot {d[info - 1]:.3e} at row {i})")
        self._d, self._e = d, e

    def solve(self, w1) -> FieldGrid:
        """Solve for psi given nodal omega (odd in z); returns nodal psi.

        The solution inherits the basis symmetries exactly: even in r, odd
        in z, zero on the wall r = 1 and on both axial symmetry rows.
        """
        w = w1.values if isinstance(w1, FieldGrid) else np.asarray(w1)
        self._last = None                       # the old H and C never live beside the new
        H = self._L_rT @ w
        X = self._LeV.T @ H.T                   # modal load V^T F^T, one row per mode
        X = scipy.linalg.lapack.dpttrs(self._d, self._e, X.reshape(-1),
                                       overwrite_b=True)[0].reshape(X.shape)
        if not np.all(np.isfinite(X)):
            raise SolveFailure("linear solve produced non-finite coefficients")
        C = X.T @ self._V.T
        self._last = (H, C)
        psi = np.zeros(w.shape)
        np.multiply(self._wall_weight, C[:-1], out=psi[:-1, 1:-1])
        return FieldGrid(psi, "even", "odd")

    def last_system(self):
        """Coefficients C and load F of the most recent solve, each (nb_r, nb_z)."""
        H, C = self._last
        return C, H @ self._L_e

    def last_residual(self) -> float:
        """||A c - f|| / ||f|| of the most recent solve (0 for a zero load).

        A c is the Kronecker matvec K_rho C M_eta + M_rho C K_eta.
        """
        C, F = self.last_system()
        R = self.K_rho @ C @ self.M_eta + self.M_rho @ C @ self.K_eta - F
        fnorm = np.linalg.norm(F)
        return float(np.linalg.norm(R) / fnorm) if fnorm else 0.0


def assemble(mesh_r: MeshMap, mesh_z: MeshMap) -> GalerkinSystem:
    return GalerkinSystem(mesh_r, mesh_z)
