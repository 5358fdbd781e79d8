"""Fast cross-module property suite: conservation, symmetry, invariances.

Everything here finishes in well under a minute; the one short PDE run is
shared across the run-dependent properties.
"""

import numpy as np
import pytest

from axiblow import fields as fd
from axiblow import filters as fl
from axiblow import fitting as ft
from axiblow import meshmap as mm
from axiblow import stepper as st
from axiblow.fields import FieldGrid

from conftest import identity_mesh_r, identity_mesh_z


@pytest.fixture(scope="module")
def short_run():
    cfg = st.RunConfig(case=1, n=256, m=128, t_end=2.5e-6, diag_every=1)
    return st.run(cfg)


class TestRunProperties:
    def test_energy_monotone_per_step(self, short_run):
        E = np.array([r.energy for r in short_run.records])
        assert short_run.reason == "completed"
        assert len(E) > 15
        assert np.all(np.diff(E) <= E[:-1] * 1e-6)

    def test_tracked_circulation_max_non_increasing(self, short_run):
        G = np.array([r.gamma_max for r in short_run.records])
        assert np.all(np.diff(G) <= G[:-1] * 1e-6)

    def test_symmetry_rows_pinned(self, short_run):
        state = short_run.state
        for f in (state.u1, state.w1):
            assert not f.values[:, 0].any()
            assert not f.values[:, -1].any()
        assert not state.u1.values[-1, :].any()


class TestParityPreservation:
    def test_derivative_parity_algebra(self):
        mesh_r, mesh_z = identity_mesh_r(16), identity_mesh_z(8)
        f = FieldGrid(np.zeros((17, 9)), "even", "odd")
        assert fd.ddr(f, mesh_r).parity_r == "odd"
        assert fd.ddz(f, mesh_z).parity_z == "even"
        assert fd.ddz(fd.ddz(f, mesh_z), mesh_z).parity_z == "odd"
        assert fd.d2dr2(f, mesh_r).parity_r == "even"

    def test_discrete_odd_field_stays_odd_under_filter(self, rng):
        v = rng.standard_normal((25, 13))
        v[:, 0] = v[:, -1] = 0.0
        out = fl.lpf(FieldGrid(v, "even", "odd"), 1.0)
        assert not out.values[:, 0].any() and not out.values[:, -1].any()


class TestFilterProperties:
    def test_constant_preserved(self):
        f = FieldGrid(np.full((17, 9), -3.7), "even", "even")
        assert fl.lpf(f, 1.0).values == pytest.approx(f.values)

    def test_nyquist_annihilated(self):
        f = FieldGrid(np.broadcast_to((-1.0) ** np.arange(33)[:, None], (33, 17)).copy(),
                      None, None)
        out = fl.lpf(f, 1.0)
        assert np.abs(out.values[1:-1, 1:-1]).max() < 1e-14


class TestInterpolationProperties:
    def test_cubic_exactness(self):
        src_r, src_z = identity_mesh_r(32), identity_mesh_z(16)
        dst_r = mm.build_map(mm.R_KNOTS, mm.DensityCoeffs(0.4, 0.8, 0.5, 0.7, b=12), 1.0, 48)
        dst_z = mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 0.3, 0.25, 0.35, b=12), 0.5, 24)
        f = lambda r, z: (r**3 - 0.2 * r + 1.0) * (2 * z**3 + z - 0.7)
        src = f(src_r.nodes_y[:, None], src_z.nodes_y[None, :])
        out = mm.interpolate_ip4(src, src_r, src_z, dst_r, dst_z)
        expect = f(dst_r.nodes_y[:, None], dst_z.nodes_y[None, :])
        assert np.abs(out - expect).max() < 1e-12 * np.abs(expect).max()


class TestMeshProperties:
    def test_endpoint_and_positivity(self):
        for targets, knots, L in (
            (mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0), mm.R_KNOTS, 1.0),
            (mm.MeshTargets(0.0, 1.5e-5, 1.5e-4, 0.5), mm.Z_KNOTS, 0.5),
        ):
            mesh = mm.build_map(knots, mm.solve_phase_coeffs(knots, targets), L, 128)
            assert abs(mesh.value(1.0) - L) <= 1e-14 * L
            probe = np.linspace(0.0, 1.0, 2001)
            assert mesh.deriv(probe).min() > 0.0
            assert np.all(np.diff(mesh.value(probe)) > 0.0)

    def test_clamped_targets_build(self):
        # boundary configuration r1 = (s1/s2) r2: coefficients hit zero
        # exactly and the build must still succeed
        f = mm.ProfileFeatures(R=6.5e-4, Z=1.35e-4, R_r=4.5e-4, d_r=2.0e-4,
                               i_peak=0, j_peak=0)
        t = mm.targets_from_features(f, "r")
        c = mm.solve_phase_coeffs(mm.R_KNOTS, t)
        assert c.a0 == 0.0 and c.a2 >= 0.0
        mm.build_map(mm.R_KNOTS, c, 1.0, 64)


class TestFitProperties:
    def _series(self, c=1.3, alpha=1.0):
        t = np.linspace(1.58e-4, 1.755e-4, 140)
        return ft.TimeSeries(t, alpha * (1.791e-4 - t) ** (-c))

    def test_model2_scale_invariant_in_v(self):
        w = (1.6e-4, 1.75e-4)
        f1 = ft.fit_model2(self._series(alpha=1.0), w, 1.3)
        f2 = ft.fit_model2(self._series(alpha=123.4), w, 1.3)
        assert f1.c == f2.c

    def test_model2_shift_covariant_in_t(self):
        w = (1.6e-4, 1.75e-4)
        base = self._series()
        f1 = ft.fit_model2(base, w, 1.3)
        d = 5.5e-5
        f2 = ft.fit_model2(ft.TimeSeries(base.t + d, base.v), (w[0] + d, w[1] + d), 1.3)
        assert f2.c == f1.c
        assert f2.T - f1.T == pytest.approx(d, rel=1e-9)

    def test_scaling_checker_pass_and_fail(self):
        good = {"c_u": 1.0, "c_omega": 2.0, "c_psi": 0.0, "c_l": 1.0, "c_s": 0.5}
        assert ft.check_scaling_relations(good, tol=1e-9).all_passed
        for key, bad_val in (("c_u", 1.2), ("c_omega", 1.5), ("c_psi", 0.4),
                             ("c_l", 0.7), ("c_s", 0.8)):
            perturbed = dict(good)
            perturbed[key] = bad_val
            assert not ft.check_scaling_relations(perturbed, tol=0.05).all_passed
