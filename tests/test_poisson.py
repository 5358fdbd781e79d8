"""Hat-function Galerkin Poisson solver: assembly, fast solve, manufactured solutions."""

import numpy as np
import pytest

from axiblow import meshmap as mm
from axiblow import poisson as ps
from axiblow.errors import AssemblyFailure
from axiblow.fields import FieldGrid

from conftest import gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z

def manufactured_rhs(mesh_r, mesh_z):
    r = mesh_r.nodes_y[:, None]
    z = mesh_z.nodes_y[None, :]
    return (8.0 + 4.0 * np.pi**2 * (1 - r**2)) * np.sin(2 * np.pi * z)


def manufactured_psi(mesh_r, mesh_z):
    r = mesh_r.nodes_y[:, None]
    z = mesh_z.nodes_y[None, :]
    return (1 - r**2) * np.sin(2 * np.pi * z)


def gauss_axis(n):
    """6-point Gauss nodes and weights on every cell of the uniform n-cell grid of [0, 1]."""
    gx, gw = np.polynomial.legendre.leggauss(6)
    h = 1.0 / n
    x = (np.arange(n)[:, None] * h + 0.5 * h * (gx[None, :] + 1.0)).ravel()
    return x, np.tile(0.5 * h * gw, n)


def hats(n, x):
    """Values and slopes at x of the n + 1 uniform hats of [0, 1], each (len(x), n + 1).

    The values interpolate unit vectors; on every cell the slopes are -n and
    +n for the hats of its left and right node.
    """
    values = np.stack([np.interp(x, np.linspace(0.0, 1.0, n + 1), e) for e in np.eye(n + 1)], 1)
    cell = np.minimum((x * n).astype(int), n - 1)
    slopes = np.zeros_like(values)
    slopes[np.arange(len(x)), cell] = -n
    slopes[np.arange(len(x)), cell + 1] = n
    return values, slopes


def rho_basis(n, x):
    """The weighted rho basis (1 - rho) hat_i, i = 0..n, and its derivative at x."""
    b, db = hats(n, x)
    w = (1.0 - x)[:, None]
    return w * b, -b + w * db


def eta_basis(m, x):
    """The interior eta hats j = 1..m-1 and their derivatives at x."""
    b, db = hats(m, x)
    return b[:, 1:-1], db[:, 1:-1]


class TestAssembly:
    def test_matrix_symmetric(self):
        # Each 1-D matrix equals its transpose bit for bit and is tridiagonal.
        sys_ = ps.assemble(gentle_mesh_r(24), gentle_mesh_z(12))
        for a in (sys_.K_rho, sys_.M_rho, sys_.K_eta, sys_.M_eta):
            assert np.array_equal(a.toarray(), a.T.toarray())
            a = a.tocoo()
            assert np.abs(a.row - a.col)[a.data != 0].max() == 1

    def test_zero_load_consistency(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        sys_ = ps.assemble(mesh_r, mesh_z)
        psi = sys_.solve(np.zeros((17, 9)))
        assert not psi.values.any()

    def test_entries_match_dense_quadrature_oracle(self):
        # Independent path: flat 2-D tensor quadrature of the bilinear form
        # (no Kronecker split, no banding) with the same defining composite
        # 6-point rule per knot interval, on hats built here.
        mesh_r, mesh_z = gentle_mesh_r(12), gentle_mesh_z(6)
        sys_ = ps.assemble(mesh_r, mesh_z)
        xr, wr = gauss_axis(mesh_r.n)
        xz, wz = gauss_axis(mesh_z.n)
        r = mesh_r.value(xr)
        r_rho = mesh_r.deriv(xr)
        z_eta = mesh_z.deriv(xz)
        phi, dphi = rho_basis(mesh_r.n, xr)
        B, dB = eta_basis(mesh_z.n, xz)

        def a_entry(i1, e1, i2, e2):
            grad_r = ((dphi[:, i1] * dphi[:, i2] * r**3 / r_rho * wr)[:, None]
                      * (B[:, e1] * B[:, e2] * z_eta * wz)[None, :])
            grad_z = ((phi[:, i1] * phi[:, i2] * r**3 * r_rho * wr)[:, None]
                      * (dB[:, e1] * dB[:, e2] / z_eta * wz)[None, :])
            return float((grad_r + grad_z).sum())

        rng = np.random.default_rng(11)
        for _ in range(3):
            i1, i2 = rng.integers(0, mesh_r.n + 1, 2)
            j1, j2 = rng.integers(1, mesh_z.n, 2)
            # A = K_rho (x) M_eta + M_rho (x) K_eta; eta storage is j - 1
            e1, e2 = j1 - 1, j2 - 1
            got = (sys_.K_rho[i1, i2] * sys_.M_eta[e1, e2]
                   + sys_.M_rho[i1, i2] * sys_.K_eta[e1, e2])
            assert got == pytest.approx(a_entry(i1, e1, i2, e2), rel=1e-10, abs=1e-14)

    def test_assembly_counter_and_reuse(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        sys_ = ps.assemble(mesh_r, mesh_z)
        count = ps.GalerkinSystem.assembly_count
        rhs = manufactured_rhs(mesh_r, mesh_z)
        for _ in range(3):
            sys_.solve(rhs)
        assert ps.GalerkinSystem.assembly_count == count


class TestSolve:
    def test_manufactured_solution_identity_maps(self):
        errs = []
        for m in (64, 128):
            mesh_r, mesh_z = identity_mesh_r(2 * m), identity_mesh_z(m)
            sys_ = ps.assemble(mesh_r, mesh_z)
            psi = sys_.solve(manufactured_rhs(mesh_r, mesh_z))
            errs.append(np.abs(psi.values - manufactured_psi(mesh_r, mesh_z)).max())
        assert 3.3 < errs[0] / errs[1] < 4.8

    def test_manufactured_solution_graded_maps(self):
        errs = []
        for m in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(2 * m), gentle_mesh_z(m)
            sys_ = ps.assemble(mesh_r, mesh_z)
            psi = sys_.solve(manufactured_rhs(mesh_r, mesh_z))
            errs.append(np.abs(psi.values - manufactured_psi(mesh_r, mesh_z)).max())
        assert errs[0] / errs[1] > 3.0

    def test_solution_symmetries_exact(self):
        mesh_r, mesh_z = gentle_mesh_r(48), gentle_mesh_z(24)
        sys_ = ps.assemble(mesh_r, mesh_z)
        rng = np.random.default_rng(5)
        w = rng.standard_normal((49, 25))
        psi = sys_.solve(w)
        assert not psi.values[:, 0].any()
        assert not psi.values[:, -1].any()
        assert not psi.values[-1, :].any()
        assert psi.parity_r == "even" and psi.parity_z == "odd"

    def test_galerkin_orthogonality_residual(self):
        mesh_r, mesh_z = gentle_mesh_r(32), gentle_mesh_z(16)
        sys_ = ps.assemble(mesh_r, mesh_z)
        sys_.solve(manufactured_rhs(mesh_r, mesh_z))
        # last_residual is ||A c - f|| / ||f||
        assert sys_.last_residual() < 1e-10

    def test_accepts_field_grid(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        sys_ = ps.assemble(mesh_r, mesh_z)
        w = FieldGrid(manufactured_rhs(mesh_r, mesh_z), "even", "odd")
        psi = sys_.solve(w)
        assert np.isfinite(psi.values).all()


@pytest.fixture(scope="module")
def initial_meshes():
    """The adapted mesh pair and vorticity that a 64x32 run starts from."""
    from axiblow import stepper as st
    state = st.build_initial_state(st.RunConfig(n=64, m=32))
    return state.mesh_r, state.mesh_z, state.w1.values


class _FlippedMetric:
    """A mesh map whose Jacobian has the wrong sign, so its 1-D matrices are
    negative definite."""

    def __init__(self, mesh):
        self._mesh = mesh
        self.n, self.nodes_s, self.value = mesh.n, mesh.nodes_s, mesh.value

    def deriv(self, s):
        return -self._mesh.deriv(s)


def _pair(name, initial_meshes):
    """A mesh pair and a vorticity: gentle maps at 24x12 or the initial 64x32 pair."""
    if name == "gentle":
        return gentle_mesh_r(24), gentle_mesh_z(12), \
            np.random.default_rng(8).standard_normal((25, 13))
    return initial_meshes


class TestFastDiagonalization:
    @pytest.mark.parametrize("pair", ["gentle", "initial"])
    def test_coefficients_match_dense_kronecker_solve(self, pair, initial_meshes):
        # Independent path: the dense 2-D matrix built here from the four
        # 1-D matrices and solved by LU, against the stacked modal solve.
        mesh_r, mesh_z, w = _pair(pair, initial_meshes)
        sys_ = ps.assemble(mesh_r, mesh_z)
        sys_.solve(w)
        C, F = sys_.last_system()
        A = (np.kron(sys_.K_rho.toarray(), sys_.M_eta.toarray())
             + np.kron(sys_.M_rho.toarray(), sys_.K_eta.toarray()))
        ref = np.linalg.solve(A, F.ravel()).reshape(C.shape)
        assert np.abs(C - ref).max() < 1e-9 * np.abs(ref).max()

    def test_residual_of_scaled_coefficients(self):
        # c -> 1.5 c makes A c - f = 0.5 f up to the solve's own residual,
        # so the Kronecker matvec must give a relative residual of 0.5.
        sys_ = ps.assemble(gentle_mesh_r(24), gentle_mesh_z(12))
        sys_.solve(np.random.default_rng(10).standard_normal((25, 13)))
        load, C = sys_._last
        sys_._last = (load, 1.5 * C)
        assert sys_.last_residual() == pytest.approx(0.5, rel=1e-9)

    def test_load_matches_flat_quadrature(self):
        # F[i, j] = int omega_h B_i B_j r^3 r_rho z_eta with omega_h the
        # bilinear interpolant, by flat 6-point quadrature on every cell.
        mesh_r, mesh_z = gentle_mesh_r(12), gentle_mesh_z(6)
        w = np.random.default_rng(9).standard_normal((13, 7))
        sys_ = ps.assemble(mesh_r, mesh_z)
        sys_.solve(w)
        _, F = sys_.last_system()
        xr, wr = gauss_axis(mesh_r.n)
        xz, wz = gauss_axis(mesh_z.n)
        phi_r, phi_z = rho_basis(mesh_r.n, xr)[0], eta_basis(mesh_z.n, xz)[0]
        omega = hats(mesh_r.n, xr)[0] @ w @ hats(mesh_z.n, xz)[0].T
        wr = wr * mesh_r.value(xr) ** 3 * mesh_r.deriv(xr)
        wz = wz * mesh_z.deriv(xz)
        ref = phi_r.T @ (wr[:, None] * omega * wz[None, :]) @ phi_z
        assert F == pytest.approx(ref, rel=1e-12, abs=1e-14 * np.abs(ref).max())

    def test_indefinite_eta_pencil_raises(self):
        with pytest.raises(AssemblyFailure, match="eta pencil"):
            ps.assemble(identity_mesh_r(8), _FlippedMetric(identity_mesh_z(4)))

    def test_indefinite_rho_system_names_mode(self):
        with pytest.raises(AssemblyFailure, match=r"rho system .* mode j = 0 "):
            ps.assemble(_FlippedMetric(identity_mesh_r(8)), identity_mesh_z(4))

    @pytest.mark.parametrize("pair", ["gentle", "initial"])
    def test_nodal_psi_matches_basis_evaluation(self, pair, initial_meshes):
        # Independent path: the weighted basis functions evaluated at every
        # node from their definitions, applied to the coefficients.
        mesh_r, mesh_z, w = _pair(pair, initial_meshes)
        sys_ = ps.assemble(mesh_r, mesh_z)
        psi = sys_.solve(w).values
        C, _ = sys_.last_system()
        E_r = rho_basis(mesh_r.n, mesh_r.nodes_s)[0]
        E_z = eta_basis(mesh_z.n, mesh_z.nodes_s)[0]
        ref = E_r @ C @ E_z.T
        assert np.abs(psi - ref).max() <= 1e-13 * np.abs(ref).max()
        assert not psi[-1].any()
        assert not psi[:, 0].any() and not psi[:, -1].any()

    def test_indefinite_rho_system_names_later_mode(self, monkeypatch):
        # Only mode 3's rho system is indefinite: its first pivot in the
        # stacked system is row 0 of block 3.
        eigh = ps.scipy.linalg.eigh

        def one_bad_mode(a, b):
            lam, V = eigh(a, b)
            lam[3] = -1e12
            return lam, V

        monkeypatch.setattr(ps.scipy.linalg, "eigh", one_bad_mode)
        with pytest.raises(AssemblyFailure, match=r"rho system .* mode j = 3 .* at row 0\)"):
            ps.assemble(identity_mesh_r(8), identity_mesh_z(8))
