"""B-spline Galerkin Poisson solver: basis, assembly, manufactured solutions."""

import numpy as np
import pytest

from axiblow import meshmap as mm
from axiblow import poisson as ps
from axiblow.errors import AssemblyFailure
from axiblow.fields import FieldGrid

from conftest import gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z

_GX, _GW = np.polynomial.legendre.leggauss(10)


def manufactured_rhs(mesh_r, mesh_z):
    r = mesh_r.nodes_y[:, None]
    z = mesh_z.nodes_y[None, :]
    return (8.0 + 4.0 * np.pi**2 * (1 - r**2)) * np.sin(2 * np.pi * z)


def manufactured_psi(mesh_r, mesh_z):
    r = mesh_r.nodes_y[:, None]
    z = mesh_z.nodes_y[None, :]
    return (1 - r**2) * np.sin(2 * np.pi * z)


class TestBSpline:
    def test_order_one_indicator(self):
        assert ps.bspline_eval(1, 0.5) == 1.0
        assert ps.bspline_eval(1, -0.1) == 0.0
        assert ps.bspline_eval(1, 1.5) == 0.0

    def test_hat_peak_and_ramp(self):
        assert ps.bspline_eval(2, 1.0) == 1.0
        assert ps.bspline_eval(2, 0.25) == 0.25
        assert ps.bspline_eval(2, 1.75) == pytest.approx(0.25)

    def test_support_and_partition_of_unity(self):
        x = np.linspace(-1.0, 5.0, 601)
        for k in (2, 3, 4):
            b = ps.bspline_eval(k, x)
            assert np.all(b[(x < 0) | (x > k)] == 0.0)
            # shifted copies sum to 1 inside the support interior
            xs = np.linspace(2.0, 3.0, 41)
            total = sum(ps.bspline_eval(k, xs + s) for s in range(-k - 2, k + 3))
            assert total == pytest.approx(np.ones_like(xs))

    def test_integral_recursion_oracle(self):
        # b^k(x) must equal the quadrature of b^{k-1} over [x-1, x];
        # integrate panel-by-panel between the integer knots so the
        # piecewise-polynomial integrand is smooth on every panel.
        for k in (2, 3, 4):
            for x in (0.35, 1.1, 2.4):
                breaks = sorted({x - 1.0, x} | {float(i) for i in range(0, k)
                                                if x - 1.0 < i < x})
                ref = 0.0
                for lo, hi in zip(breaks[:-1], breaks[1:]):
                    nodes = lo + 0.5 * (hi - lo) * (_GX + 1.0)
                    ref += float((0.5 * (hi - lo) * _GW
                                  * ps.bspline_eval(k - 1, nodes)).sum())
                assert ps.bspline_eval(k, x) == pytest.approx(ref, abs=1e-12)

    def test_derivative_matches_difference_of_lower_order(self):
        x = np.linspace(0.0, 4.0, 37)
        d = ps.bspline_deriv(4, x)
        expect = ps.bspline_eval(3, x) - ps.bspline_eval(3, x - 1.0)
        assert d == pytest.approx(expect)


class TestAssembly:
    def test_matrix_symmetric(self):
        sys_ = ps.assemble(identity_mesh_r(24), identity_mesh_z(12))
        assert sys_.symmetry_defect < 1e-14

    def test_zero_load_consistency(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        sys_ = ps.assemble(mesh_r, mesh_z)
        psi = sys_.solve(np.zeros((17, 9)))
        assert not psi.values.any()

    def test_entries_match_dense_quadrature_oracle(self):
        # Independent path: flat 2-D tensor quadrature of the bilinear form
        # (no Kronecker split, no banding) with the same defining composite
        # 6-point rule per knot interval.
        mesh_r, mesh_z = gentle_mesh_r(12), gentle_mesh_z(6)
        sys_ = ps.assemble(mesh_r, mesh_z)
        rb = ps._RhoBasis(mesh_r.n)
        eb = ps._EtaBasis(mesh_z.n)

        gx, gw = np.polynomial.legendre.leggauss(6)

        def quad_axis(ncells):
            h = 1.0 / ncells
            x = (np.arange(ncells)[:, None] * h + 0.5 * h * (gx[None, :] + 1.0)).ravel()
            wq = np.tile(0.5 * h * gw, ncells)
            return x, wq

        xr, wr = quad_axis(mesh_r.n)
        xz, wz = quad_axis(mesh_z.n)
        r = mesh_r.value(xr)
        r_rho = mesh_r.deriv(xr)
        z_eta = mesh_z.deriv(xz)
        w = ps._weight(xr)
        dw = ps._weight_deriv(xr)

        def a_entry(i1, j1, i2, j2):
            phi1 = w * rb.value(i1, xr)
            dphi1 = dw * rb.value(i1, xr) + w * rb.deriv(i1, xr)
            phi2 = w * rb.value(i2, xr)
            dphi2 = dw * rb.value(i2, xr) + w * rb.deriv(i2, xr)
            B1, dB1 = eb.value(j1, xz), eb.deriv(j1, xz)
            B2, dB2 = eb.value(j2, xz), eb.deriv(j2, xz)
            grad_r = (dphi1 * dphi2 * r**3 / r_rho * wr)[:, None] * (B1 * B2 * z_eta * wz)[None, :]
            grad_z = (phi1 * phi2 * r**3 * r_rho * wr)[:, None] * (dB1 * dB2 / z_eta * wz)[None, :]
            return float((grad_r + grad_z).sum())

        rng = np.random.default_rng(11)
        for _ in range(3):
            i1, i2 = rng.integers(0, rb.count, 2)
            j1, j2 = rng.integers(1, eb.count + 1, 2)
            # A = K_rho (x) M_eta + M_rho (x) K_eta; eta storage is j - 1
            e1, e2 = j1 - 1, j2 - 1
            got = (sys_.K_rho[i1, i2] * sys_.M_eta[e1, e2]
                   + sys_.M_rho[i1, i2] * sys_.K_eta[e1, e2])
            assert got == pytest.approx(a_entry(i1, j1, i2, j2), rel=1e-10, abs=1e-14)

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
        gx, gw = np.polynomial.legendre.leggauss(6)

        def axis(mesh):
            h = 1.0 / mesh.n
            x = (np.arange(mesh.n)[:, None] * h + 0.5 * h * (gx[None, :] + 1.0)).ravel()
            hats = np.stack([np.interp(x, mesh.nodes_s, e) for e in np.eye(mesh.n + 1)], 1)
            return x, np.tile(0.5 * h * gw, mesh.n), hats

        xr, wr, hr = axis(mesh_r)
        xz, wz, hz = axis(mesh_z)
        rb, eb = ps._RhoBasis(mesh_r.n), ps._EtaBasis(mesh_z.n)
        phi_r = np.stack([ps._weight(xr) * rb.value(i, xr) for i in range(rb.count)], 1)
        phi_z = np.stack([eb.value(j, xz) for j in range(1, eb.count + 1)], 1)
        omega = hr @ w @ hz.T
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
        rho, eta = mesh_r.nodes_s, mesh_z.nodes_s
        rb, eb = ps._RhoBasis(mesh_r.n), ps._EtaBasis(mesh_z.n)
        E_r = np.stack([ps._weight(rho) * rb.value(i, rho) for i in range(rb.count)], 1)
        E_z = np.stack([eb.value(j, eta) for j in range(1, eb.count + 1)], 1)
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
