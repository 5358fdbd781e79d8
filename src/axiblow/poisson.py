"""Weighted hat-function Galerkin solver for the axisymmetric Poisson equation.

Solves -(d_rr + (3/r) d_r + d_zz) psi = omega on the mapped grid in weak
form: find psi in V_h with

    a(psi, phi) = int (psi_rho phi_rho / r_rho^2 + psi_eta phi_eta / z_eta^2)
                  r^3 r_rho z_eta  drho deta  =  int omega phi r^3 r_rho z_eta

for all phi in V_h.  V_h is spanned by the products (1 - rho) hat_i(rho)
hat_j(eta) of uniform hats: all n + 1 hats in rho, and the m - 1 interior
hats in eta, so psi is odd at both eta ends.  The wall weight 1 - rho
enforces the no-flow wall value; evenness at the axis is natural, since the
r^3 measure vanishes there.  A linear weight keeps full second-order
sup-norm accuracy for stream functions with a simple zero at the wall
(a square would force psi_rho(1) = 0 and cost an order in the wall cell).
The r^3 measure absorbs the 3/r first-order term, so the stiffness matrix
is symmetric positive definite and Kronecker separable,

    A = K_rho (x) M_eta + M_rho (x) K_eta,

with four tridiagonal 1-D matrices, each a Gram matrix of the two hats of
every cell under the 6-point Gauss rule.  A is never formed.  It is solved
by fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964)
185-199): once per mesh pair, the eta pencil K_eta V = M_eta V diag(lam)
is solved densely, and the tridiagonal rho systems K_rho + lam_j M_rho of
all modes, stacked into one block-diagonal system, get one LAPACK
``dpttrf`` factorization.  A solve is then the load in modal form V^T F^T,
one ``dpttrs`` call that gives the modal coefficients X of all modes at
once, the coefficients C = X^T V^T, and the nodal evaluation, which is a
row scaling of C by the wall weight.  The load F = L_rho^T W L_eta
integrates the bilinear interpolant of the nodal omega W against the
basis.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import AssemblyFailure, SolveFailure
from .fields import FieldGrid
from .meshmap import MeshMap

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
# The two hats of a cell, at its left and right node, at its Gauss points.
_LAM = 0.5 * (_GAUSS_X + 1.0)
_HATS = (1.0 - _LAM, _LAM)


def _gram(fa, fb, w):
    """Symmetric tridiagonal (n+1) x (n+1) matrix of sum_cells int fa[l1] fb[l2] w.

    fa[l] and fb[l] belong to the hat of node cell + l of every cell; they
    broadcast against w, the quadrature weight at the Gauss points of the n
    cells, shape (n, 6).
    """
    d = np.zeros(len(w) + 1)
    d[:-1] = (w * fa[0] * fb[0]).sum(axis=1)
    d[1:] += (w * fa[1] * fb[1]).sum(axis=1)
    e = (w * fa[0] * fb[1]).sum(axis=1)
    return sp.diags([e, d, e], [-1, 0, 1], format="csr")


class GalerkinSystem:
    """Fast-diagonalization Poisson operator for one mesh pair."""

    assembly_count = 0  # class-wide; lets tests confirm factorization reuse

    def __init__(self, mesh_r: MeshMap, mesh_z: MeshMap):
        GalerkinSystem.assembly_count += 1
        self.mesh_r, self.mesh_z = mesh_r, mesh_z
        n, m = mesh_r.n, mesh_z.n
        nb_r, nb_z = n + 1, m - 1

        # Gauss points of every cell, (cells, 6), and the rule's weights,
        # times r^3 in rho.
        h_r, h_z = 1.0 / n, 1.0 / m
        rho = np.arange(n)[:, None] * h_r + h_r * _LAM
        eta = np.arange(m)[:, None] * h_z + h_z * _LAM
        q_r = 0.5 * h_r * _GAUSS_W * mesh_r.value(rho.ravel()).reshape(rho.shape) ** 3
        r_rho, z_eta = mesh_r.deriv(rho), mesh_z.deriv(eta)
        q_z = 0.5 * h_z * _GAUSS_W

        # Weighted rho hats (1 - rho) hat_l and their derivatives; the eta
        # operators drop the two end hats.
        phi = [(1.0 - rho) * hat for hat in _HATS]
        dphi = [-_HATS[0] - n * (1.0 - rho), -_HATS[1] + n * (1.0 - rho)]
        self.K_rho = _gram(dphi, dphi, q_r / r_rho)
        self.M_rho = _gram(phi, phi, q_r * r_rho)
        self.K_eta = _gram((-m, m), (-m, m), q_z / z_eta)[1:-1, 1:-1]
        G = _gram(_HATS, _HATS, q_z * z_eta)
        self.M_eta = G[1:-1, 1:-1]

        # Load operators against the bilinear nodal interpolant of omega:
        # L[node, i] = int hat_node * basis_i * metric, so F = L_r^T W L_e.
        self._L_rT = _gram(phi, _HATS, q_r * r_rho)
        self._L_e = G[:, 1:-1]

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
        self._wall_weight = (1.0 - mesh_r.nodes_s[:-1])[:, None]

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
