"""Mapped-coordinate derivative kernels, velocity recovery, diffusion terms."""

import tracemalloc

import numpy as np
import pytest
import sympy as sym

from axiblow import fields as fd
from axiblow import filters as fl
from axiblow import meshmap as mm
from axiblow import physics as ph
from axiblow.fields import FieldGrid

from conftest import gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z


def nodal(mesh_r, mesh_z, func):
    return func(mesh_r.nodes_y[:, None], mesh_z.nodes_y[None, :])


class TestDerivatives:
    def test_ddr_exact_on_quadratic_identity_map(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        f = FieldGrid(nodal(mesh_r, mesh_z, lambda r, z: r**2 + 0 * z), "even", "even")
        out = fd.ddr(f, mesh_r)
        expect = 2.0 * mesh_r.nodes_y[:, None]
        assert np.abs(out.values[:-1] - expect[:-1]).max() < 1e-12
        assert out.parity_r == "odd"

    def test_ddz_odd_ghost_at_symmetry_row(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        rng = np.random.default_rng(7)
        v = rng.standard_normal((17, 9))
        v[:, 0] = 0.0
        f = FieldGrid(v, "even", "odd")
        out = fd.ddz(f, mesh_z)
        # ghost f_{i,-1} = -f_{i,1}: centered difference at j=0 is f1/h / z_eta
        expect = v[:, 1] / mesh_z.h / mesh_z.nodes_dy[0]
        assert out.values[:, 0] == pytest.approx(expect)
        assert out.parity_z == "even"

    def test_ddr_second_order_on_mapped_grid(self):
        errs = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            f = FieldGrid(nodal(mesh_r, mesh_z, lambda r, z: np.sin(2 * np.pi * r) + 0 * z),
                          None, None)
            out = fd.ddr(f, mesh_r)
            expect = nodal(mesh_r, mesh_z, lambda r, z: 2 * np.pi * np.cos(2 * np.pi * r) + 0 * z)
            errs.append(np.abs(out.values - expect).max())
        assert 3.3 < errs[0] / errs[1] < 4.8

    def test_d2dr2_exact_on_quadratic(self):
        mesh_r, mesh_z = identity_mesh_r(24), identity_mesh_z(12)
        f = FieldGrid(nodal(mesh_r, mesh_z, lambda r, z: r**2 + 0 * z), "even", "even")
        out = fd.d2dr2(f, mesh_r)
        assert np.abs(out.values - 2.0).max() < 1e-10

    def test_d2dr2_constant_is_zero(self):
        mesh_r = gentle_mesh_r(40)
        f = FieldGrid(np.ones((41, 21)), "even", "even")
        assert np.abs(fd.d2dr2(f, mesh_r).values).max() == 0.0

    def test_second_derivatives_converge_on_manufactured_field(self):
        # z-factor sin(2 pi z)^3 is odd at both axial ends with vanishing
        # slope there, so the symmetry ghosts carry no end-row penalty on
        # graded maps and the interior truncation error dominates.
        w = 2 * np.pi
        fz = lambda z: np.sin(w * z) ** 3
        fzz2 = lambda z: 3 * w**2 * np.sin(w * z) * (2 * np.cos(w * z) ** 2
                                                     - np.sin(w * z) ** 2)
        errs_r, errs_z = [], []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            f = FieldGrid(nodal(mesh_r, mesh_z, lambda r, z: (1 - r**2) * fz(z)),
                          "even", "odd")
            d2r = fd.d2dr2(f, mesh_r).values
            d2z = fd.d2dz2(f, mesh_z).values
            er = nodal(mesh_r, mesh_z, lambda r, z: -2.0 * fz(z) + 0 * r)
            ez = nodal(mesh_r, mesh_z, lambda r, z: (1 - r**2) * fzz2(z))
            errs_r.append(np.abs(d2r - er).max())
            errs_z.append(np.abs(d2z - ez).max())
        assert errs_r[0] / errs_r[1] > 3.3
        assert errs_z[0] / errs_z[1] > 3.3

    def test_parity_bookkeeping(self):
        mesh_r, mesh_z = identity_mesh_r(8), identity_mesh_z(8)
        f = FieldGrid(np.zeros((9, 9)), "even", "odd")
        assert fd.ddr(f, mesh_r).parity_r == "odd"
        assert fd.ddr(f, mesh_r).parity_z == "odd"
        assert fd.ddz(f, mesh_z).parity_z == "even"
        assert fd.d2dr2(f, mesh_r).parity_r == "even"
        assert fd.d2dz2(f, mesh_z).parity_z == "odd"


# Ghost row beyond an end, from the rows nearest it (e[0] is the end row).
GHOST = {
    "even": lambda e: e[1],
    "odd": lambda e: -e[1],
    None: lambda e: 4.0 * e[0] - 6.0 * e[1] + 4.0 * e[2] - e[3],
}


class TestGhostLayer:
    @pytest.mark.parametrize("parity", ["even", "odd", None])
    @pytest.mark.parametrize("axis", ["r", "z"])
    def test_end_rows_use_the_ghost_stencils(self, axis, parity):
        # A field varying along one axis only, even along the other, so
        # every end row of the derivatives and of one lpf pass is the
        # centered stencil closed by that end's ghost.
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        rng = np.random.default_rng(5)
        if axis == "r":
            line = rng.standard_normal(17)
            f = FieldGrid(np.repeat(line[:, None], 9, axis=1), parity, "even")
            d1 = fd.ddr(f, mesh_r).values[:, 0]
            d2 = fd.d2dr2(f, mesh_r).values[:, 0]
            mesh, ends = mesh_r, (parity, None)  # rho = 1 is the wall
        else:
            line = rng.standard_normal(9)
            f = FieldGrid(np.repeat(line[None, :], 17, axis=0), "even", parity)
            d1 = fd.ddz(f, mesh_z).values[0]
            d2 = fd.d2dz2(f, mesh_z).values[0]
            mesh, ends = mesh_z, (parity, parity)
        smooth = fl.lpf(f, 1.0).values
        smooth = smooth[:, 0] if axis == "r" else smooth[0]
        h = mesh.h
        for k, e, end_parity, sign in ((0, line, ends[0], 1.0), (-1, line[::-1], ends[1], -1.0)):
            g = GHOST[end_parity](e)
            dy, d2y = mesh.nodes_dy[k], mesh.nodes_d2y[k]
            raw1 = sign * (e[1] - g) / (2.0 * h)
            raw2 = (e[1] - 2.0 * e[0] + g) / h**2
            assert d1[k] == pytest.approx(raw1 / dy, rel=1e-12)
            assert d2[k] == pytest.approx(raw2 / dy**2 - d2y * raw1 / dy**3, rel=1e-12)
            assert smooth[k] == pytest.approx(e[0] + 0.25 * (e[1] + g - 2.0 * e[0]), rel=1e-12)
        # parity ends close the first difference exactly as the mirror says
        if parity == "even":
            assert d1[0] == 0.0
        elif parity == "odd":
            assert d1[0] == line[1] / h / mesh.nodes_dy[0]


def padded(v, axis, lo, hi):
    """``v`` with one ghost row at each end of ``axis``, that axis moved first."""
    shape = list(v.shape)
    shape[axis] += 2
    p = np.moveaxis(np.empty(shape), axis, 0)
    v = np.moveaxis(v, axis, 0)
    p[1:-1] = v
    p[0] = GHOST[lo](v)
    p[-1] = GHOST[hi](v[::-1])
    return p


def padded_first_second(v, mesh, axis, lo, hi):
    """First and second physical derivatives by the padded-copy formulas."""
    p = padded(v, axis, lo, hi)
    h, dy, d2y = mesh.h, mesh.nodes_dy[:, None], mesh.nodes_d2y[:, None]
    d1 = (p[2:] - p[:-2]) / (2.0 * h)
    d2 = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)
    return (np.moveaxis(d1 / dy, 0, axis),
            np.moveaxis(d2 / dy**2 - d2y * d1 / dy**3, 0, axis))


def padded_lpf(v, c, lo_r, par_z):
    quarter = 0.25 * c
    p = padded(v, 0, lo_r, None)
    mid = v + quarter * (p[2:] + p[:-2] - 2.0 * p[1:-1])
    p = padded(mid, 1, par_z, par_z)
    return mid + quarter * np.moveaxis(p[2:] + p[:-2] - 2.0 * p[1:-1], 0, 1)


class TestFoldedStencils:
    """The in-place kernels against the padded-copy formulas they replace."""

    def test_match_padded_formulas(self):
        mesh_r, mesh_z = gentle_mesh_r(64), gentle_mesh_z(32)
        v = np.random.default_rng(11).standard_normal((65, 33))
        cL = fl.l_shape_strength(64, 32)
        worst = {}

        def check(name, got, expect):
            err = np.abs(got - expect).max() / np.abs(expect).max()
            worst[name] = max(worst.get(name, 0.0), err)

        parities = ("even", "odd", None)
        for pr, pz in [(a, b) for a in parities for b in parities]:
            f = FieldGrid(v, pr, pz)
            r, rr = padded_first_second(v, mesh_r, 0, pr, None)
            z, zz = padded_first_second(v, mesh_z, 1, pz, pz)
            d = fd.derivatives(f, mesh_r, mesh_z)
            for name, got, expect in (("r", d.r, r), ("rr", d.rr, rr), ("z", d.z, z),
                                      ("zz", d.zz, zz), ("ddr", fd.ddr(f, mesh_r).values, r),
                                      ("ddz", fd.ddz(f, mesh_z).values, z)):
                check(name, got, expect)
            for c in (0.1, 1.0, cL):
                check("lpf", fl.lpf(f, c).values, padded_lpf(v, c, pr, pz))
        print("largest relative difference:", ", ".join(f"{k} {e:.2e}" for k, e in worst.items()))
        assert max(worst.values()) <= 1e-13, worst

    def test_front_locator_matches_padded_formula(self):
        # profile_features on a 257-node radial map: u1_r of the peak row
        # by the padded formula locates the same R_r, bit for bit, since the
        # rebuilt maps amplify any rounding change in the front.
        mesh_r, mesh_z = gentle_mesh_r(256), gentle_mesh_z(64)
        r, z = mesh_r.nodes_y[:, None], mesh_z.nodes_y[None, :]
        u1 = np.exp(-((r - 0.35) / 0.1) ** 2) * np.sin(2 * np.pi * z)
        feats = mm.profile_features(u1, mesh_r, mesh_z)
        p = padded(u1[:, feats.j_peak], 0, "even", None)
        u1_r = (p[2:] - p[:-2]) / (2.0 * mesh_r.h) / mesh_r.nodes_dy
        ir = int(np.argmax(u1_r))
        rho_r = mm.refine_peak_parabolic(u1_r[ir - 1:ir + 2], mesh_r.nodes_s[ir], mesh_r.h)
        R_r = float(mesh_r.value(rho_r))
        assert feats.R_r == R_r

    @pytest.mark.parametrize("kernel", ["derivatives", "lpf"])
    def test_no_padded_copies(self, kernel):
        # Allocation guard at 128x64: the peak traced bytes of one call stay
        # within its outputs plus the full-size work arrays named here, plus
        # numpy's buffer for broadcast operands (getbufsize() doubles) and a
        # few end rows.
        mesh_r, mesh_z = gentle_mesh_r(128), gentle_mesh_z(64)
        f = FieldGrid(np.random.default_rng(3).standard_normal((129, 65)), "even", "odd")
        if kernel == "derivatives":
            call, outputs, work = lambda: fd.derivatives(f, mesh_r, mesh_z), 4, 1  # D w_d2y
        else:
            cL = fl.l_shape_strength(128, 64)
            call, outputs, work = lambda: fl.lpf(f, cL), 1, 2  # c/4, 1st pass
        call()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = f.values.nbytes
        bound = (outputs + work) * size + 8 * np.getbufsize() + 8 * 1024
        print(f"{kernel}: peak {peak / size:.2f} arrays, bound {bound / size:.2f}")
        assert peak <= bound


class TestVelocityRecovery:
    def test_linear_stream(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        psi = FieldGrid(nodal(mesh_r, mesh_z, lambda r, z: z + 0 * r), "even", None)
        ur, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z)
        r = mesh_r.nodes_y[:, None]
        assert np.abs(ur.values[:-1] + r[:-1]).max() < 1e-12
        assert np.abs(uz.values - 2 * mesh_z.nodes_y[None, :]).max() < 1e-12

    def test_zero_stream(self):
        mesh_r, mesh_z = identity_mesh_r(8), identity_mesh_z(8)
        psi = FieldGrid(np.zeros((9, 9)), "even", "odd")
        ur, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z)
        assert not ur.values.any() and not uz.values.any()

    def test_manufactured_stream_second_order(self):
        errs = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            psi = FieldGrid(nodal(mesh_r, mesh_z,
                                  lambda r, z: (1 - r**2) * np.sin(2 * np.pi * z) ** 3),
                            "even", "odd")
            ur, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z)
            eur = nodal(mesh_r, mesh_z,
                        lambda r, z: -6 * np.pi * r * (1 - r**2)
                        * np.sin(2 * np.pi * z) ** 2 * np.cos(2 * np.pi * z))
            euz = nodal(mesh_r, mesh_z,
                        lambda r, z: (2 - 4 * r**2) * np.sin(2 * np.pi * z) ** 3)
            eur[-1, :] = 0.0  # pinned no-flow row
            err = max(np.abs(ur.values - eur).max(), np.abs(uz.values - euz).max())
            errs.append(err)
        assert errs[0] / errs[1] > 3.0

    def test_simple_stream_velocities_match_closed_form(self):
        # psi = (1 - r^2) sin(2 pi z): u^r = -2 pi r (1-r^2) cos(2 pi z),
        # u^z = (2 - 4 r^2) sin(2 pi z), away from the axial end rows where
        # the graded map's symmetry ghost carries an O(h) penalty.
        mesh_r, mesh_z = gentle_mesh_r(128), gentle_mesh_z(64)
        psi = FieldGrid(nodal(mesh_r, mesh_z,
                              lambda r, z: (1 - r**2) * np.sin(2 * np.pi * z)),
                        "even", "odd")
        ur, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z)
        eur = nodal(mesh_r, mesh_z,
                    lambda r, z: -2 * np.pi * r * (1 - r**2) * np.cos(2 * np.pi * z))
        euz = nodal(mesh_r, mesh_z,
                    lambda r, z: (2 - 4 * r**2) * np.sin(2 * np.pi * z))
        assert np.abs(ur.values[:-1, 1:-1] - eur[:-1, 1:-1]).max() < 6e-3
        assert np.abs(uz.values[:, 1:-1] - euz[:, 1:-1]).max() < 6e-3

    def test_incompressibility_identity(self):
        # The stream-function form makes the discrete divergence
        # 2 g + r g_r + uz_z (g = u^r / r = -psi_z) vanish identically:
        # the mixed derivatives commute stencil-by-stencil.
        mesh_r, mesh_z = gentle_mesh_r(64), gentle_mesh_z(32)
        psi = FieldGrid(nodal(mesh_r, mesh_z,
                              lambda r, z: (1 - r**2) ** 2 * np.sin(2 * np.pi * z)),
                        "even", "odd")
        psi_z = fd.ddz(psi, mesh_z)
        g = FieldGrid(-psi_z.values, "even", "even")
        _, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z)
        r = mesh_r.nodes_y[:, None]
        div = 2 * g.values + r * fd.ddr(g, mesh_r).values + fd.ddz(uz, mesh_z).values
        assert np.abs(div).max() < 1e-11


def sympy_case1_nu():
    """Symbolic clones of the degenerate diffusion coefficients (fixed TDP)."""
    r, z = sym.symbols("r z", real=True)
    s = sym.sin(sym.pi * z) / sym.pi
    tdp = sym.Rational(1, 10) ** 7  # frozen stand-in for the time-dependent part
    nu_r = 10 * r**2 / (1 + 10**8 * r**2) + 10**2 * s**2 / (1 + 10**11 * s**2) + tdp
    nu_z = r**2 / (10 * (1 + 10**8 * r**2)) + 10**4 * s**2 / (1 + 10**11 * s**2) + tdp
    return r, z, nu_r, nu_z


class TestDiffusionU1:
    def test_zero_for_inviscid(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        nu = ph.nu_eval(ph.DiffusionSpec(ph.CASE_INVISCID), mesh_r.nodes_y, mesh_z.nodes_y)
        u1 = FieldGrid(np.random.default_rng(0).standard_normal((17, 9)), "even", "odd")
        du = fd.derivatives(u1, mesh_r, mesh_z)
        assert not fd.diffusion_u1_from(u1, du, nu, mesh_r).any()

    def test_constant_field_constant_nu(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        nu = ph.nu_eval(ph.DiffusionSpec(ph.CASE_CONSTANT, mu=1e-3),
                        mesh_r.nodes_y, mesh_z.nodes_y)
        u1 = FieldGrid(np.ones((17, 9)), "even", "even")
        du = fd.derivatives(u1, mesh_r, mesh_z)
        assert np.abs(fd.diffusion_u1_from(u1, du, nu, mesh_r)).max() < 1e-15

    def test_degenerate_nu_manufactured_second_order(self):
        # Oracle: sympy evaluation of
        # nu_r (u_rr + 3 u_r / r) + nu_z u_zz + (nu_r_r / r) u + nu_r_r u_r
        # + nu_z_z u_z for a smooth symmetric field.
        r, z, nu_r, nu_z = sympy_case1_nu()
        u = (1 + sym.cos(sym.pi * r)) * sym.sin(2 * sym.pi * z) ** 3
        expr = (nu_r * (sym.diff(u, r, 2) + 3 * sym.diff(u, r) / r)
                + nu_z * sym.diff(u, z, 2)
                + sym.diff(nu_r, r) / r * u
                + sym.diff(nu_r, r) * sym.diff(u, r)
                + sym.diff(nu_z, z) * sym.diff(u, z))
        oracle = sym.lambdify((r, z), sym.simplify(expr), "numpy")
        ufun = sym.lambdify((r, z), u, "numpy")
        errs = []
        for n in (96, 192):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            spec = ph.DiffusionSpec(ph.CASE_DEGENERATE)
            nuf = ph.nu_eval(spec, mesh_r.nodes_y, mesh_z.nodes_y,
                             omega_theta_max=spec.tdp_scale / 1e-7)
            u1 = FieldGrid(nodal(mesh_r, mesh_z, ufun), "even", "odd")
            got = fd.diffusion_u1_from(u1, fd.derivatives(u1, mesh_r, mesh_z), nuf, mesh_r)
            # oracle is 0/0 at r = 0; parity limit handled inside, compare off-axis
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = nodal(mesh_r, mesh_z, oracle)
            errs.append(np.abs(got[1:] - expect[1:]).max())
        assert errs[0] / errs[1] > 3.0


class TestDiffusionW1:
    def test_zero_for_inviscid(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        nu = ph.nu_eval(ph.DiffusionSpec(ph.CASE_INVISCID), mesh_r.nodes_y, mesh_z.nodes_y)
        rng = np.random.default_rng(1)
        w1 = FieldGrid(rng.standard_normal((17, 9)), "even", "odd")
        g = FieldGrid(rng.standard_normal((17, 9)), "even", "even")
        uz = FieldGrid(rng.standard_normal((17, 9)), "even", "odd")
        dw = fd.derivatives(w1, mesh_r, mesh_z)
        assert not fd.diffusion_w1_from(w1, dw, g, uz, nu, mesh_r, mesh_z).any()

    def test_constant_nu_reduces_to_laplacian(self):
        mu = 3e-4
        mesh_r, mesh_z = gentle_mesh_r(48), gentle_mesh_z(24)
        nu = ph.nu_eval(ph.DiffusionSpec(ph.CASE_CONSTANT, mu=mu),
                        mesh_r.nodes_y, mesh_z.nodes_y)
        rng = np.random.default_rng(2)
        w1 = FieldGrid(rng.standard_normal((49, 25)), "even", "odd")
        g = FieldGrid(rng.standard_normal((49, 25)), "even", "even")
        uz = FieldGrid(rng.standard_normal((49, 25)), "even", "odd")
        dw = fd.derivatives(w1, mesh_r, mesh_z)
        got = fd.diffusion_w1_from(w1, dw, g, uz, nu, mesh_r, mesh_z)
        w_r = fd.ddr(w1, mesh_r).values
        w_rr = fd.d2dr2(w1, mesh_r).values
        w_zz = fd.d2dz2(w1, mesh_z).values
        expect = mu * (w_rr + 3.0 * fd.over_r(w_r, mesh_r, w_rr) + w_zz)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_degenerate_nu_manufactured_second_order(self):
        # Full cross-term oracle.  The velocity pair comes from a
        # manufactured stream function; the kernel consumes the same
        # discrete derivative chain the stepper feeds it, so the oracle is
        # matched at 2nd order.
        r, z, nu_r, nu_z = sympy_case1_nu()
        w = (1 + sym.cos(sym.pi * r)) * sym.sin(2 * sym.pi * z) ** 3
        psi = (1 - r**2) ** 2 * sym.cos(sym.pi * r) * sym.sin(2 * sym.pi * z) ** 3
        ur = -r * sym.diff(psi, z)
        uz = 2 * psi + r * sym.diff(psi, r)
        expr = (nu_r * (sym.diff(w, r, 2) + 3 * sym.diff(w, r) / r)
                + nu_z * sym.diff(w, z, 2)
                + sym.diff(nu_r, r) / r * w
                + sym.diff(nu_r, r) * sym.diff(w, r)
                + sym.diff(nu_z, z) * sym.diff(w, z)
                + (sym.diff(nu_r, z) * (sym.diff(ur, r, 2) + sym.diff(ur, r) / r - ur / r**2)
                   + sym.diff(nu_z, z) * sym.diff(ur, z, 2)
                   - sym.diff(nu_r, r) * (sym.diff(uz, r, 2) + sym.diff(uz, r) / r)
                   - sym.diff(nu_z, r) * sym.diff(uz, z, 2)) / r
                + (sym.diff(nu_r, r, z) * sym.diff(ur, r)
                   + sym.diff(nu_z, z, 2) * sym.diff(ur, z)
                   - sym.diff(nu_r, r, 2) * sym.diff(uz, r)
                   - sym.diff(nu_z, r, z) * sym.diff(uz, z)) / r)
        # float64 evaluation of the raw expression cancels catastrophically
        # near the axis (1e8-scale coefficient constants); evaluate the
        # oracle in extended precision on a node subsample instead.
        import mpmath

        mpmath.mp.dps = 40
        oracle = sym.lambdify((r, z), expr, "mpmath")
        wfun = sym.lambdify((r, z), w, "numpy")
        psifun = sym.lambdify((r, z), psi, "numpy")
        errs = []
        for n in (96, 192):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            spec = ph.DiffusionSpec(ph.CASE_DEGENERATE)
            nuf = ph.nu_eval(spec, mesh_r.nodes_y, mesh_z.nodes_y,
                             omega_theta_max=spec.tdp_scale / 1e-7)
            w1 = FieldGrid(nodal(mesh_r, mesh_z, wfun), "even", "odd")
            psig = FieldGrid(nodal(mesh_r, mesh_z, psifun), "even", "odd")
            gf = FieldGrid(-fd.ddz(psig, mesh_z).values, "even", "even")
            _, uzf = fd.velocity_from_stream(psig, mesh_r, mesh_z)
            dw = fd.derivatives(w1, mesh_r, mesh_z)
            got = fd.diffusion_w1_from(w1, dw, gf, uzf, nuf, mesh_r, mesh_z)
            # sample at fixed computational coordinates shared by both grids
            ii = (n // 96) * np.arange(2, 96, 4)
            jj = (n // 96) * np.arange(1, 48, 2)
            err = 0.0
            for i in ii:
                ri = mesh_r.nodes_y[i]
                for j in jj:
                    exact = float(oracle(mpmath.mpf(ri), mpmath.mpf(mesh_z.nodes_y[j])))
                    err = max(err, abs(got[i, j] - exact))
            errs.append(err)
        assert errs[0] / errs[1] > 3.0


class TestEnforceBoundary:
    def _state(self, mesh_r, mesh_z):
        rng = np.random.default_rng(3)
        u1 = FieldGrid(rng.standard_normal((mesh_r.n + 1, mesh_z.n + 1)), "even", "odd")
        w1 = FieldGrid(rng.standard_normal((mesh_r.n + 1, mesh_z.n + 1)), "even", "odd")
        psi = FieldGrid(nodal(mesh_r, mesh_z,
                              lambda r, z: (1 - r**2) * np.sin(2 * np.pi * z)),
                        "even", "odd")
        return u1, w1, psi

    def test_noslip_rows(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        u1, w1, psi = self._state(mesh_r, mesh_z)
        fd.enforce_boundary(u1, w1, psi, mesh_r, mesh_z)
        assert not u1.values[-1, :].any()
        assert not u1.values[:, 0].any() and not u1.values[:, -1].any()
        # psi quadratic in r near the wall: one-sided psi_rr is exact (-(-2 sin))
        expect = 2.0 * np.sin(2 * np.pi * mesh_z.nodes_y)
        assert w1.values[-1, :] == pytest.approx(expect, abs=1e-9)

    def test_idempotent(self):
        mesh_r, mesh_z = gentle_mesh_r(24), gentle_mesh_z(12)
        u1, w1, psi = self._state(mesh_r, mesh_z)
        fd.enforce_boundary(u1, w1, psi, mesh_r, mesh_z)
        once = (u1.values.copy(), w1.values.copy())
        fd.enforce_boundary(u1, w1, psi, mesh_r, mesh_z)
        assert np.array_equal(once[0], u1.values)
        assert np.array_equal(once[1], w1.values)
