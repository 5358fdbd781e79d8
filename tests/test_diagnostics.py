"""Peak tracking, vorticity vector, energy, mesh effectiveness, profiles."""

import numpy as np
import pytest

from axiblow import diagnostics as dg
from axiblow import meshmap as mm
from axiblow import physics as ph
from axiblow import stepper as st
from axiblow.errors import OutOfDomain, ZeroField
from axiblow.fields import FieldGrid

from conftest import gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z


class TestMaxLocation:
    def test_single_node_peak(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        v = np.zeros((17, 9))
        v[5, 3] = 2.0
        R, Z, val = dg.max_location(v, mesh_r, mesh_z)
        assert R == pytest.approx(mesh_r.nodes_y[5])
        assert Z == pytest.approx(mesh_z.nodes_y[3])
        assert val == 2.0

    def test_plateau_tie_breaks_low(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        v = np.zeros((17, 9))
        v[5, 3] = 1.0
        v[9, 6] = 1.0
        R, Z, _ = dg.max_location(v, mesh_r, mesh_z)
        assert R == pytest.approx(mesh_r.nodes_y[5])

    def test_offnode_quadratic_recovered(self):
        mesh_r, mesh_z = identity_mesh_r(64), identity_mesh_z(32)
        r0, z0 = 0.413, 0.217  # off-node center
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        v = 1.0 - 30 * (r - r0) ** 2 - 40 * (z - z0) ** 2
        R, Z, val = dg.max_location(v, mesh_r, mesh_z)
        assert R == pytest.approx(r0, abs=1e-12)
        assert Z == pytest.approx(z0, abs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)


class TestVorticityVector:
    def test_constant_swirl(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        u1 = FieldGrid(np.ones((17, 9)), "even", "even")
        w1 = FieldGrid(np.zeros((17, 9)), "even", "odd")
        wt, wr, wz = dg.vorticity_vector(u1, w1, mesh_r, mesh_z)
        assert not wt.any() and not wr.any()
        assert wz == pytest.approx(np.full((17, 9), 2.0))

    def test_pure_angular_vorticity(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        u1 = FieldGrid(np.zeros((17, 9)), "even", "odd")
        w1 = FieldGrid(np.ones((17, 9)), "even", "even")
        norms = dg.vorticity_sup_norms(u1, w1, mesh_r, mesh_z)
        assert norms[0] == pytest.approx(1.0)   # r w1 peaks at the wall
        assert norms[3] == pytest.approx(1.0)

    def test_manufactured_pair_second_order(self):
        errs = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            s3 = np.sin(2 * np.pi * z) ** 3
            u1 = FieldGrid((1 + np.cos(np.pi * r)) * s3, "even", "odd")
            w1 = FieldGrid((1 - r**2) * s3, "even", "odd")
            wt, wr, wz = dg.vorticity_vector(u1, w1, mesh_r, mesh_z)
            ds3 = 6 * np.pi * np.sin(2 * np.pi * z) ** 2 * np.cos(2 * np.pi * z)
            e_wr = -r * (1 + np.cos(np.pi * r)) * ds3
            e_wz = 2 * (1 + np.cos(np.pi * r)) * s3 - r * np.pi * np.sin(np.pi * r) * s3
            err = max(np.abs(wr - e_wr).max(), np.abs(wz - e_wz).max())
            errs.append(err)
            assert wt == pytest.approx(r * w1.values)
        assert errs[0] / errs[1] > 3.0

    def test_vector_norm_dominates_components(self, rng):
        mesh_r, mesh_z = identity_mesh_r(24), identity_mesh_z(12)
        u1 = FieldGrid(rng.standard_normal((25, 13)), "even", "odd")
        w1 = FieldGrid(rng.standard_normal((25, 13)), "even", "odd")
        wt, wr, wz, wvec = dg.vorticity_sup_norms(u1, w1, mesh_r, mesh_z)
        assert wvec >= max(wt, wr, wz) - 1e-15


class TestKineticEnergy:
    def test_zero_state(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        zero = FieldGrid(np.zeros((17, 9)), "even", "odd")
        assert dg.kinetic_energy(zero, zero, zero, mesh_r, mesh_z) == 0.0

    def test_rigid_rotation_closed_form(self):
        # u^theta = r: E = (1/2) * (1/2) * int r^3 dr = 1/16
        mesh_r, mesh_z = identity_mesh_r(256), identity_mesh_z(128)
        one = FieldGrid(np.ones((257, 129)), "even", "even")
        zero = FieldGrid(np.zeros((257, 129)), "even", "odd")
        E = dg.kinetic_energy(one, zero, zero, mesh_r, mesh_z)
        assert E == pytest.approx(1.0 / 16.0, rel=1e-4)

    def test_second_order_convergence(self):
        errs = []
        exact = 1.0 / 16.0
        for n in (64, 128):
            mesh_r, mesh_z = identity_mesh_r(n), identity_mesh_z(n // 2)
            shape = (n + 1, n // 2 + 1)
            one = FieldGrid(np.ones(shape), "even", "even")
            zero = FieldGrid(np.zeros(shape), "even", "odd")
            errs.append(abs(dg.kinetic_energy(one, zero, zero, mesh_r, mesh_z) - exact))
        assert errs[0] / errs[1] > 3.5


class TestMeshEffectiveness:
    def test_arithmetic_example(self):
        # ||v|| = 1, max |v_rho| = 10, h = 1/256 -> 10/256
        mesh_r, mesh_z = identity_mesh_r(256), identity_mesh_z(128)
        rho = mesh_r.nodes_s[:, None]
        v = np.minimum(10.0 * rho, 1.0) * np.ones((1, 129))
        me_r, _ = dg.mesh_effectiveness(v, mesh_r, mesh_z)
        assert me_r == pytest.approx(10.0 / 256.0, rel=1e-12)

    def test_constant_field_raises(self):
        mesh_r, mesh_z = identity_mesh_r(8), identity_mesh_z(8)
        with pytest.raises(ZeroField):
            dg.mesh_effectiveness(np.zeros((9, 9)), mesh_r, mesh_z)
        me_r, me_e = dg.mesh_effectiveness(np.ones((9, 9)), mesh_r, mesh_z)
        assert me_r == 0.0 and me_e == 0.0

    def test_halves_under_refinement(self):
        vals = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            v = np.sin(2 * np.pi * mesh_r.nodes_s)[:, None] \
                * np.cos(np.pi * mesh_z.nodes_s)[None, :]
            vals.append(dg.mesh_effectiveness(v, mesh_r, mesh_z))
        assert vals[0][0] / vals[1][0] == pytest.approx(2.0, rel=0.1)
        assert vals[0][1] / vals[1][1] == pytest.approx(2.0, rel=0.1)


class TestLevelSetParallelism:
    def _peaked(self, mesh_r, mesh_z):
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        return np.exp(-((r - 0.3) / 0.08) ** 2 - ((z - 0.1) / 0.05) ** 2)

    def test_parallel_fields_vanish(self):
        mesh_r, mesh_z = identity_mesh_r(128), identity_mesh_z(64)
        base = self._peaked(mesh_r, mesh_z)
        u1 = FieldGrid(base, "even", "odd")
        w1 = FieldGrid(2.0 * base, "even", "odd")
        assert dg.level_set_parallelism(u1, w1, mesh_r, mesh_z) < 1e-12

    def test_independent_fields_order_one(self, rng):
        mesh_r, mesh_z = identity_mesh_r(128), identity_mesh_z(64)
        u1 = FieldGrid(self._peaked(mesh_r, mesh_z), "even", "odd")
        w1 = FieldGrid(rng.standard_normal((129, 65)), "even", "odd")
        assert dg.level_set_parallelism(u1, w1, mesh_r, mesh_z, half_width=0.1) > 0.2


class TestRescaledProfile:
    def test_affine_field_exact(self):
        mesh_r, mesh_z = identity_mesh_r(64), identity_mesh_z(32)
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        f = 2.0 * r - 3.0 * z + 0.25
        R, Z = 0.4, 0.05
        xi = np.linspace(-2.0, 5.0, 15)
        zeta = np.linspace(0.0, 3.5, 11)
        out = dg.rescaled_profile(f, mesh_r, mesh_z, R, Z, xi, zeta)
        expect = 2.0 * (R + Z * xi)[:, None] - 3.0 * (Z * zeta)[None, :] + 0.25
        assert out == pytest.approx(expect, abs=1e-12)

    def test_frozen_self_similar_snapshots_coincide(self):
        # u = (T - t)^-1 U((r - R)/Z, z/Z) sampled at two times rasterizes
        # to the same normalized profile.
        T = 1.0

        def snapshot(t, mesh_r, mesh_z):
            R, Z = 0.5 * np.sqrt(T - t), 0.2 * (T - t)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            xi = (r - R) / Z
            zeta = z / Z
            return (T - t) ** -1 * np.exp(-(xi**2 + zeta**2) / 8.0), R, Z

        mesh_r, mesh_z = identity_mesh_r(1024), identity_mesh_z(512)
        xi = np.linspace(-1.5, 1.5, 21)
        zeta = np.linspace(0.0, 1.5, 11)
        rasters = []
        for t in (0.3, 0.6):
            f, R, Z = snapshot(t, mesh_r, mesh_z)
            raster = dg.rescaled_profile(f, mesh_r, mesh_z, R, Z, xi, zeta)
            rasters.append(raster / raster.max())
        assert rasters[0] == pytest.approx(rasters[1], abs=2e-4)

    def test_window_crossing_axis_rejected(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        with pytest.raises(OutOfDomain):
            dg.rescaled_profile(np.ones((33, 17)), mesh_r, mesh_z, 0.01, 0.02,
                                np.linspace(-2, 5, 8), np.linspace(0, 3, 5))


@pytest.fixture(scope="module")
def computed_flow():
    """Velocities of the first rhs on the 64x32 initial Case-1 state, and a
    streamline start at its swirl peak."""
    cfg = st.RunConfig(case=1, n=64, m=32)
    state = st.build_initial_state(cfg)
    _, _, aux = st.rhs(state.u1, state.w1, state, ph.spec_for_case(1), cfg,
                       st.omega_theta_sup(state.w1, state.mesh_r))
    R, Z, _ = dg.max_location(state.u1, state.mesh_r, state.mesh_z)
    return (state.u1, aux.ur, aux.uz, state.mesh_r, state.mesh_z), (R, 0.3, Z)


class TestStreamline:
    def test_uniform_axial_flow_is_straight(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        shape = (33, 17)
        u1 = FieldGrid(np.zeros(shape), "even", "odd")
        ur = FieldGrid(np.zeros(shape), "odd", "even")
        uz = FieldGrid(np.ones(shape), "even", "odd")
        pts, exited = dg.streamline(u1, ur, uz, mesh_r, mesh_z,
                                    (0.3, 0.0, 0.1), s_max=0.2, ds=0.01)
        assert not exited
        assert pts[:, 0] == pytest.approx(np.full(len(pts), 0.3))
        assert pts[-1, 2] == pytest.approx(0.3, abs=1e-12)

    def test_pure_rotation_stays_on_circle(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        shape = (33, 17)
        u1 = FieldGrid(np.ones(shape), "even", "even")
        ur = FieldGrid(np.zeros(shape), "odd", "even")
        uz = FieldGrid(np.zeros(shape), "even", "odd")
        pts, exited = dg.streamline(u1, ur, uz, mesh_r, mesh_z,
                                    (0.5, 0.0, 0.2), s_max=6.0, ds=0.02)
        assert not exited
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert radii == pytest.approx(np.full(len(pts), 0.5), abs=1e-5)
        assert pts[:, 2] == pytest.approx(np.full(len(pts), 0.2))

    def test_domain_exit_recorded(self):
        mesh_r, mesh_z = identity_mesh_r(32), identity_mesh_z(16)
        shape = (33, 17)
        u1 = FieldGrid(np.zeros(shape), "even", "odd")
        ur = FieldGrid(np.zeros(shape), "odd", "even")
        uz = FieldGrid(np.ones(shape), "even", "odd")
        pts, exited = dg.streamline(u1, ur, uz, mesh_r, mesh_z,
                                    (0.3, 0.0, 0.45), s_max=1.0, ds=0.01)
        assert exited
        assert pts[-1, 2] <= 0.5

    @staticmethod
    def _three_sample_streamline(u1, ur, uz, mesh_r, mesh_z, start, s_max, ds):
        """Reference RK4 integrator with one sample_ip4 per velocity component."""
        r0, th0, z0 = start
        pos = np.array([r0 * np.cos(th0), r0 * np.sin(th0), z0])

        def velocity(p):
            r, z = float(np.hypot(p[0], p[1])), p[2]
            if not (0.0 <= r <= 1.0 and 0.0 <= z <= mesh_z.L):
                return None
            v_r = mm.sample_ip4(ur.values, mesh_r, mesh_z, [r], [z], "odd", "even")[0, 0]
            u_th = r * mm.sample_ip4(u1.values, mesh_r, mesh_z, [r], [z], "even", "odd")[0, 0]
            v_z = mm.sample_ip4(uz.values, mesh_r, mesh_z, [r], [z], "even", "odd")[0, 0]
            c, s = p[0] / r, p[1] / r
            return np.array([v_r * c - u_th * s, v_r * s + u_th * c, v_z])

        points = [pos.copy()]
        for _ in range(int(round(s_max / ds))):
            k1 = velocity(pos)
            k2 = velocity(pos + 0.5 * ds * k1)
            k3 = velocity(pos + 0.5 * ds * k2)
            k4 = velocity(pos + ds * k3)
            pos = pos + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            points.append(pos.copy())
        return np.array(points)

    def test_shared_pull_back_matches_three_samples(self, computed_flow):
        flow, start = computed_flow
        pts, exited = dg.streamline(*flow, start, s_max=2e-4, ds=1e-5)
        assert not exited and len(pts) == 21
        assert np.abs(pts[-1] - pts[0]).max() > 0.5 * start[0]  # the path really moves
        ref = self._three_sample_streamline(*flow, start, s_max=2e-4, ds=1e-5)
        assert np.array_equal(pts, ref)

    def test_one_pull_back_per_stage(self, computed_flow, monkeypatch):
        # Work-count guard: one RK4 step is 4 stages of 2 inverses each.
        flow, start = computed_flow
        calls = []
        real = mm.MeshMap.inverse

        def inverse(self, y):
            calls.append(1)
            return real(self, y)

        monkeypatch.setattr(mm.MeshMap, "inverse", inverse)
        pts, exited = dg.streamline(*flow, start, s_max=1e-5, ds=1e-5)
        assert len(pts) == 2 and not exited
        assert len(calls) == 8
