"""Time stepping: CFL control, RK2, tendencies, run loop, checkpoints."""

import os

import numpy as np
import pytest

from axiblow import fields as fd
from axiblow import filters as fl
from axiblow import meshmap as mm
from axiblow import physics as ph
from axiblow import poisson as ps
from axiblow import runio
from axiblow import stepper as st
from axiblow.errors import DegenerateProfile, SolveFailure
from axiblow.fields import FieldGrid

from conftest import identity_mesh_r, identity_mesh_z, ip4_oracle


def small_state(n=64, m=32, u1=None, w1=None):
    mesh_r, mesh_z = identity_mesh_r(n), identity_mesh_z(m)
    shape = (n + 1, m + 1)
    u1 = FieldGrid(np.zeros(shape), "even", "odd") if u1 is None else u1
    w1 = FieldGrid(np.zeros(shape), "even", "odd") if w1 is None else w1
    system = ps.assemble(mesh_r, mesh_z)
    return st.SolutionState(u1, w1, 0.0, mesh_r, mesh_z, system)


class TestRunConfig:
    @pytest.mark.parametrize("name, value", [("diag_every", 0), ("ckpt_every", -1),
                                             ("rlpf_k", -1)])
    def test_bad_count_names_field(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= "):
            st.RunConfig(**{name: value})


class TestComputeDt:
    def _aux(self, state, ur_val, uz_val, nu):
        shape = state.u1.values.shape
        zero = FieldGrid(np.zeros(shape), "even", "odd")
        ur = FieldGrid(np.full(shape, ur_val), "odd", "even")
        uz = FieldGrid(np.full(shape, uz_val), "even", "odd")
        return st.Aux(zero, zero, zero, ur, uz, zero, nu, zero, zero)

    def test_convective_formula(self):
        # uniform cells h_rho r_rho = 1/64, |u^r| = 10 -> dt = 0.1/640
        state = small_state(64, 32)
        aux = self._aux(state, 10.0, 1e-12, ph.NuFields(0.0, 0.0))
        dt, branch = st.compute_dt(aux, state.mesh_r, state.mesh_z, 0.1)
        assert dt == pytest.approx(0.1 * (1.0 / 64.0) / 10.0)
        assert branch == "convective"

    def test_inviscid_takes_convective_branch(self):
        state = small_state()
        aux = self._aux(state, 1.0, 1.0, ph.NuFields(0.0, 0.0))
        _, branch = st.compute_dt(aux, state.mesh_r, state.mesh_z, 0.1)
        assert branch == "convective"

    def test_strong_diffusion_switches_branch(self):
        state = small_state()
        aux = self._aux(state, 1e-6, 1e-6, ph.NuFields(10.0, 10.0))
        dt, branch = st.compute_dt(aux, state.mesh_r, state.mesh_z, 0.1)
        assert branch == "diffusive"
        cell_z = 0.5 / 32.0
        assert dt == pytest.approx(0.1 * cell_z**2 / 10.0)

    def test_dt_linear_in_cfl(self):
        state = small_state()
        aux = self._aux(state, 3.0, 2.0, ph.NuFields(0.0, 0.0))
        dt1, _ = st.compute_dt(aux, state.mesh_r, state.mesh_z, 0.1)
        dt2, _ = st.compute_dt(aux, state.mesh_r, state.mesh_z, 0.05)
        assert dt2 == pytest.approx(0.5 * dt1)


class TestRhs:
    def test_zero_state_zero_tendencies(self):
        state = small_state()
        cfg = st.RunConfig(case=3, n=64, m=32)
        du, dw, _ = st.rhs(state.u1, state.w1, state, ph.spec_for_case(3), cfg, 0.0)
        assert not du.any() and not dw.any()

    def test_swirl_only_inviscid(self):
        # omega = 0 forces psi = 0, so velocities vanish: du/dt = 0 and
        # dw/dt = 2 u~ u~_z evaluated on the filtered swirl.
        n, m = 64, 32
        mesh_r, mesh_z = identity_mesh_r(n), identity_mesh_z(m)
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        u1 = FieldGrid(r**2 * (1 - r**2) * np.sin(2 * np.pi * z), "even", "odd")
        state = small_state(n, m, u1=u1)
        cfg = st.RunConfig(case=3, n=n, m=m)
        du, dw, aux = st.rhs(state.u1, state.w1, state, ph.spec_for_case(3), cfg, 0.0)
        assert np.abs(du).max() < 1e-14
        u1f_z = fd.ddz(aux.u1f, mesh_z).values
        assert dw == pytest.approx(2.0 * aux.u1f.values * u1f_z, abs=1e-14)

    def test_manufactured_tendencies_second_order(self):
        # The manufactured triple satisfies the elliptic constraint
        # symbolically, so every right-hand-side term is known in closed
        # form; the discrete evaluation must converge at 2nd order.
        import sympy as sym

        r, z = sym.symbols("r z", real=True)
        psi = (1 - r**2) ** 2 * sym.sin(2 * sym.pi * z) ** 3
        w1 = -(sym.diff(psi, r, 2) + 3 * sym.diff(psi, r) / r + sym.diff(psi, z, 2))
        u1 = (1 + sym.cos(sym.pi * r)) * sym.sin(2 * sym.pi * z) ** 3
        ur = -r * sym.diff(psi, z)
        uz = 2 * psi + r * sym.diff(psi, r)
        du_expr = -(ur * sym.diff(u1, r) + uz * sym.diff(u1, z)) \
            + 2 * u1 * sym.diff(psi, z)
        dw_expr = -(ur * sym.diff(w1, r) + uz * sym.diff(w1, z)) \
            + 2 * u1 * sym.diff(u1, z)
        w1_sym = sym.simplify(w1)
        fns = {name: sym.lambdify((r, z), e, "numpy")
               for name, e in (("u1", u1), ("w1", w1_sym),
                               ("du", du_expr), ("dw", sym.simplify(dw_expr)))}
        errs = []
        for n in (64, 128):
            m = n // 2
            mesh_r, mesh_z = identity_mesh_r(n), identity_mesh_z(m)
            rr = mesh_r.nodes_y[:, None].copy()
            rr[0] = 1e-30  # lambdified 3/r term; axis value irrelevant below
            zz = mesh_z.nodes_y[None, :]
            u1g = FieldGrid(fns["u1"](mesh_r.nodes_y[:, None], zz), "even", "odd")
            w1g = FieldGrid(fns["w1"](rr, zz), "even", "odd")
            w1g.values[0] = w1g.values[1]  # placeholder, overwritten below
            # exact axis value via the even limit: psi_rr(0) both terms
            state = st.SolutionState(u1g, w1g, 0.0, mesh_r, mesh_z,
                                     ps.assemble(mesh_r, mesh_z))
            cfg = st.RunConfig(case=3, n=n, m=m)
            du, dw, _ = st.rhs(u1g, w1g, state, ph.spec_for_case(3), cfg, 1.0)
            expect_du = fns["du"](mesh_r.nodes_y[:, None], zz)
            expect_dw = fns["dw"](rr, zz)
            err = np.abs(du[1:] - expect_du[1:]).max() / np.abs(expect_du).max() \
                + np.abs(dw[1:] - expect_dw[1:]).max() / np.abs(expect_dw).max()
            errs.append(err)
        assert errs[0] / errs[1] > 3.0


    def test_shared_derivatives_match_public_kernels(self):
        # rhs computes each derivative of the filtered fields once and
        # shares it; the tendencies must equal the public kernels bit for bit.
        cfg = st.RunConfig(case=1, n=64, m=32)
        state = st.build_initial_state(cfg)
        mesh_r, mesh_z = state.mesh_r, state.mesh_z
        du, dw, aux = st.rhs(state.u1, state.w1, state, ph.spec_for_case(1), cfg,
                             st.omega_theta_sup(state.w1, mesh_r))
        for f in (aux.u1f, aux.w1f):
            d = fd.derivatives(f, mesh_r, mesh_z)
            assert np.array_equal(d.r, fd.ddr(f, mesh_r).values)
            assert np.array_equal(d.rr, fd.d2dr2(f, mesh_r).values)
            assert np.array_equal(d.z, fd.ddz(f, mesh_z).values)
            assert np.array_equal(d.zz, fd.d2dz2(f, mesh_z).values)
        ur, uz = aux.ur.values, aux.uz.values
        u1f_z = fd.ddz(aux.u1f, mesh_z).values
        expect_du = (-(ur * fd.ddr(aux.u1f, mesh_r).values + uz * u1f_z)
                     + 2.0 * aux.u1f.values * aux.psi_z.values
                     + fd.diffusion_u1_from(aux.u1f, fd.derivatives(aux.u1f, mesh_r, mesh_z),
                                            aux.nu, mesh_r))
        expect_dw = (-(ur * fd.ddr(aux.w1f, mesh_r).values
                       + uz * fd.ddz(aux.w1f, mesh_z).values)
                     + 2.0 * aux.u1f.values * u1f_z
                     + fd.diffusion_w1_from(aux.w1f, fd.derivatives(aux.w1f, mesh_r, mesh_z),
                                            aux.g, aux.uz, aux.nu, mesh_r, mesh_z))
        assert np.array_equal(du, expect_du)
        assert np.array_equal(dw, expect_dw)

    def test_case4_one_coarse_pair_and_two_pull_backs(self, monkeypatch):
        # Work-count guard: rlpf filters psi_r and psi_z on one coarse pair,
        # built once, with one pull-back down and one up.
        cfg = st.RunConfig(case=4, rlpf_k=5, n=64, m=32)
        state = st.build_initial_state(cfg)
        calls = {"build_map": 0, "inverse": 0}
        real_build, real_inverse = mm.build_map, mm.MeshMap.inverse

        def build_map(*args, **kwargs):
            calls["build_map"] += 1
            return real_build(*args, **kwargs)

        def inverse(self, y):
            calls["inverse"] += 1
            return real_inverse(self, y)

        monkeypatch.setattr(mm, "build_map", build_map)
        monkeypatch.setattr(mm.MeshMap, "inverse", inverse)
        counters = {}
        st.rhs(state.u1, state.w1, state, ph.spec_for_case(4), cfg,
               st.omega_theta_sup(state.w1, state.mesh_r), counters)
        assert calls == {"build_map": 2, "inverse": 4}
        assert counters["rlpf_applications"] == 2

    @pytest.mark.parametrize("case", [2, 3])
    def test_constant_nu_tendencies_match_full_formula(self, case):
        # Every nu derivative is the scalar 0 in cases 2 and 3 (and nu itself
        # in case 3); the tendencies equal the full formula, cross terms
        # included, bit for bit.
        cfg = st.RunConfig(case=case, n=64, m=32, mu=1e-3)
        spec = ph.spec_for_case(case, cfg.mu)
        state = st.build_initial_state(cfg)
        mesh_r, mesh_z = state.mesh_r, state.mesh_z
        du, dw, aux = st.rhs(state.u1, state.w1, state, spec, cfg,
                             st.omega_theta_sup(state.w1, mesh_r))
        nu = aux.nu
        du1, dw1, dg, duz = (fd.derivatives(f, mesh_r, mesh_z)
                             for f in (aux.u1f, aux.w1f, aux.g, aux.uz))

        def over(d):
            return fd.over_r(d.r, mesh_r, d.rr)

        def swirl(v, d):
            return (nu.nu_r * (d.rr + 3.0 * over(d)) + nu.nu_z * d.zz
                    + nu.nu_r_r_over_r * v + nu.nu_r_r * d.r + nu.nu_z_z * d.z)

        cross = (nu.nu_r_z * (dg.rr + 3.0 * over(dg)) + nu.nu_z_z * dg.zz
                 - nu.nu_r_r_over_r * (duz.rr + over(duz)) - nu.nu_z_r_over_r * duz.zz
                 + nu.nu_z_zz * dg.z - nu.nu_r_rr * over(duz))
        ur, uz, u1f = aux.ur.values, aux.uz.values, aux.u1f.values
        expect_du = (-(ur * du1.r + uz * du1.z) + 2.0 * u1f * aux.psi_z.values
                     + swirl(u1f, du1))
        expect_dw = (-(ur * dw1.r + uz * dw1.z) + 2.0 * u1f * du1.z
                     + swirl(aux.w1f.values, dw1) + cross)
        assert np.array_equal(du, expect_du)
        assert np.array_equal(dw, expect_dw)


class TestStepRK2:
    @pytest.mark.parametrize("case", [1, 4])
    def test_first_stage_from_caller_is_bit_identical(self, case):
        cfg = st.RunConfig(case=case, n=64, m=32, rlpf_k=5 if case == 4 else 0)
        spec = ph.spec_for_case(case)
        state = st.build_initial_state(cfg)
        first = st.rhs(state.u1, state.w1, state, spec, cfg,
                       st.omega_theta_sup(state.w1, state.mesh_r))
        plain, report, _ = st.step_rk2(state, spec, cfg)
        reused, reused_report, _ = st.step_rk2(state, spec, cfg, first=first)
        assert reused_report == report
        assert np.array_equal(reused.u1.values, plain.u1.values)
        assert np.array_equal(reused.w1.values, plain.w1.values)

    def test_zero_state_stays_zero(self):
        state = small_state()
        cfg = st.RunConfig(case=3, n=64, m=32)
        new, report, _ = st.step_rk2(state, ph.spec_for_case(3), cfg, dt=1e-6)
        assert not new.u1.values.any() and not new.w1.values.any()
        assert report.dt == 1e-6

    def test_rk2_order_in_time(self):
        # Richardson refinement on the seed data at fixed tiny steps: the
        # dt and dt/2 solutions bracket a dt/8 reference at ratio ~4.2.
        cfg = st.RunConfig(case=1, n=64, m=32)
        spec = ph.spec_for_case(1)
        base = st.build_initial_state(cfg)
        dt0 = 2e-7
        finals = {}
        for divide in (1, 2, 8):
            state = base
            for _ in range(4 * divide):
                state, _, _ = st.step_rk2(state, spec, cfg, dt=dt0 / divide)
            finals[divide] = state.u1.values
        e1 = np.abs(finals[1] - finals[8]).max()
        e2 = np.abs(finals[2] - finals[8]).max()
        assert 3.1 < e1 / e2 < 5.4

    def test_single_step_growth_below_one_percent(self):
        cfg = st.RunConfig(case=1, n=256, m=128)
        state = st.build_initial_state(cfg)
        _, report, _ = st.step_rk2(state, ph.spec_for_case(1), cfg)
        assert report.growth_ratio < 0.01

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_detected(self):
        state = small_state()
        state.u1.values[5, 5] = np.inf
        cfg = st.RunConfig(case=3, n=64, m=32)
        with pytest.raises(st.NonFinite):
            st.step_rk2(state, ph.spec_for_case(3), cfg, dt=1e-7)


class TestRunLoop:
    def test_zero_horizon_emits_initial_record(self):
        cfg = st.RunConfig(case=1, n=128, m=64, t_end=0.0)
        res = st.run(cfg)
        assert res.reason == "completed"
        assert res.steps == 0
        assert len(res.records) == 1
        assert res.records[0].t == 0.0

    def test_short_run_invariants(self):
        cfg = st.RunConfig(case=1, n=128, m=64, t_end=1.5e-6, diag_every=2)
        res = st.run(cfg)
        assert res.reason == "completed"
        assert res.state.t == pytest.approx(cfg.t_end, rel=1e-9)
        E = np.array([r.energy for r in res.records])
        assert np.all(np.diff(E) <= E[:-1] * 1e-6)
        # odd symmetry rows stay pinned
        assert not res.state.u1.values[:, 0].any()
        assert not res.state.w1.values[:, -1].any()
        assert not res.state.u1.values[-1, :].any()

    def test_snap_time_exactly_hit(self, tmp_path):
        snap = 7.3e-7
        cfg = st.RunConfig(case=1, n=128, m=64, t_end=1.5e-6,
                           snap_times=(snap,), out_dir=str(tmp_path))
        res = st.run(cfg)
        names = os.listdir(tmp_path / "checkpoints")
        times = sorted(float(n[5:-4]) for n in names)
        assert any(abs(t - snap) < 1e-18 for t in times)
        assert res.reason == "completed"

    def test_mesh_update_preserves_norm(self):
        # interpolating the state onto rebuilt maps moves the sup norm by
        # no more than the interpolation error at this resolution
        cfg = st.RunConfig(case=1, n=256, m=128, t_end=1e-6)
        state = st.build_initial_state(cfg)
        # evolve a few steps so the rebuilt targets genuinely differ
        spec = ph.spec_for_case(1)
        for _ in range(5):
            state, _, _ = st.step_rk2(state, spec, cfg)
        before = np.abs(state.u1.values).max()
        moved = st.rebuild_meshes(state, cfg)
        after = np.abs(moved.u1.values).max()
        assert moved.mesh_r.nodes_y[1] != state.mesh_r.nodes_y[1]
        assert abs(after - before) / before < 1e-3

    def test_case3_runs_inviscid(self):
        cfg = st.RunConfig(case=3, n=128, m=64, t_end=5e-7)
        res = st.run(cfg)
        assert res.reason == "completed"

    def test_max_steps_on_cadence_records_each_time_once(self):
        # The last step lands on the diag cadence, so its record is final.
        cfg = st.RunConfig(case=1, n=64, m=32, t_end=1.0, max_steps=4, diag_every=2)
        res = st.run(cfg)
        assert res.reason == "max-steps"
        times = [r.t for r in res.records]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[-1] == res.state.t

    def test_records_carry_poisson_residual(self, tmp_path):
        cfg = st.RunConfig(case=1, n=64, m=32, t_end=1.0, max_steps=4, diag_every=2,
                           out_dir=str(tmp_path))
        res = st.run(cfg)
        col = runio.read_diagnostics(tmp_path / "diagnostics.csv")["poisson_residual"]
        assert len(col) == len(res.records) >= 3
        assert np.all(np.isfinite(col)) and np.all((col > 0.0) & (col < 1e-6))
        assert col.tolist() == [r.poisson_residual for r in res.records]

    @pytest.mark.parametrize("rebuild", [False, True])
    def test_one_rhs_per_recorded_step(self, monkeypatch, rebuild):
        # Work-count guard: each record's rhs is the next step's first stage.
        # Four steps with a record every second take 1 + (1 + 2 + 1) * 2 = 9
        # evaluations (11 if every record were evaluated again); rebuilding
        # on every step records every step, 1 + 2 * 4 = 9 (13).
        calls = []
        real_rhs = st.rhs

        def counting_rhs(*args, **kwargs):
            calls.append(1)
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(st, "rhs", counting_rhs)
        monkeypatch.setattr(mm, "needs_update",
                            lambda *args: (True, "points_r") if rebuild else (False, None))
        cfg = st.RunConfig(case=1, n=64, m=32, t_end=1.0, max_steps=4, diag_every=2)
        res = st.run(cfg)
        assert res.steps == 4 and res.counters["mesh_rebuilds"] == (4 if rebuild else 0)
        assert len(res.records) == (5 if rebuild else 3)
        assert len(calls) == 9

    @pytest.mark.parametrize("error", [SolveFailure("singular"), RuntimeError("bug")])
    def test_final_record_error(self, tmp_path, monkeypatch, error):
        # One step off the cadence and no mesh rebuild: rhs call 1 is the
        # initial record and the step's first stage, call 2 the second
        # stage, and call 3 the final record.
        calls = []
        real_rhs = st.rhs

        def failing_rhs(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise error
            return real_rhs(*args, **kwargs)

        monkeypatch.setattr(st, "rhs", failing_rhs)
        monkeypatch.setattr(mm, "needs_update", lambda *args: (False, ""))
        cfg = st.RunConfig(case=1, n=64, m=32, t_end=1.0, max_steps=1, diag_every=2,
                           out_dir=str(tmp_path))
        if isinstance(error, SolveFailure):
            res = st.run(cfg)
            assert len(calls) == 3
            assert [r.t for r in res.records] == [0.0]
            manifest = (tmp_path / "manifest.txt").read_text().splitlines()
            assert "final_record_error: SolveFailure: singular" in manifest
        else:
            with pytest.raises(RuntimeError, match="bug"):
                st.run(cfg)

    def test_case4_mesh_failure_keeps_artifacts(self, tmp_path, monkeypatch):
        # The second rebuild fails to derive targets. The final record's rhs
        # re-derives them in rlpf on the same state and fails again; the run
        # still halts as a mesh failure and writes its manifest.
        real_targets, real_rebuild = mm.derive_targets, st.rebuild_meshes
        rebuilds = []

        def derive_targets(*args):
            if len(rebuilds) >= 2:
                raise DegenerateProfile("no front")
            return real_targets(*args)

        def rebuild_meshes(state, cfg):
            rebuilds.append(1)
            return real_rebuild(state, cfg)

        monkeypatch.setattr(mm, "derive_targets", derive_targets)
        monkeypatch.setattr(st, "rebuild_meshes", rebuild_meshes)
        monkeypatch.setattr(mm, "needs_update", lambda *args: (True, "points_r"))
        cfg = st.RunConfig(case=4, rlpf_k=5, n=64, m=32, t_end=1.0, max_steps=5,
                           out_dir=str(tmp_path))
        res = st.run(cfg)
        assert res.reason == "mesh-failure"
        assert res.steps == 2 and len(rebuilds) == 2
        assert res.records[-1].t < res.state.t
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "reason: mesh-failure" in manifest
        assert "final_record_error: DegenerateProfile: no front" in manifest

    def test_rebuild_locates_front_once(self, monkeypatch):
        # Work-count guard: one front location serves both maps of a pair.
        cfg = st.RunConfig(n=64, m=32)
        state = st.build_initial_state(cfg)
        calls = []
        real = mm.profile_features

        def profile_features(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(mm, "profile_features", profile_features)
        st.rebuild_meshes(state, cfg)
        assert len(calls) == 1

    def test_rebuild_moves_with_per_field_stencils(self):
        # Oracle: u1 and w1 moved with stencils computed for each field
        # alone; the shared stencils give the same bits.
        cfg = st.RunConfig(n=64, m=32)
        state = st.build_initial_state(cfg)
        spec = ph.spec_for_case(1)
        for _ in range(2):
            state, _, _ = st.step_rk2(state, spec, cfg)
        moved = st.rebuild_meshes(state, cfg)
        rho, eta = mm.pull_back_nodes(state.mesh_r, state.mesh_z, moved.mesh_r, moved.mesh_z)
        for old, new in ((state.u1, moved.u1), (state.w1, moved.w1)):
            want = ip4_oracle(old.values, rho, eta, "even", "odd")
            want[:, [0, -1]] = 0.0
            if old is state.u1:
                want[-1, :] = 0.0
            assert np.array_equal(new.values, want)

    def test_rebuild_computes_one_stencil_per_axis(self, monkeypatch):
        # Work-count guard: u1 and w1 share the stencils of the move.
        cfg = st.RunConfig(n=64, m=32)
        state = st.build_initial_state(cfg)
        calls = []
        real = mm._cubic_stencil

        def stencil(q, n, *ends):
            calls.append(n)
            return real(q, n, *ends)

        monkeypatch.setattr(mm, "_cubic_stencil", stencil)
        st.rebuild_meshes(state, cfg)
        assert calls == [64, 32]

    def test_case4_counts_rlpf(self):
        cfg = st.RunConfig(case=4, rlpf_k=5, n=128, m=64, t_end=3e-7)
        res = st.run(cfg)
        assert res.counters["rlpf_applications"] > 0
        assert res.reason == "completed"


class TestCheckpointRoundTrip:
    def test_truncated_file_names_path_and_sizes(self, tmp_path):
        state = small_state(16, 8)
        path = tmp_path / "state.bin"
        runio.write_checkpoint(path, 0.0, 1, state.u1, state.w1,
                               state.mesh_r, state.mesh_z)
        assert os.listdir(tmp_path) == ["state.bin"]
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        expected = 2 * 17 * 9 * 8
        with pytest.raises(ValueError,
                           match=f"state.bin: checkpoint payload has {expected - 100} "
                                 f"bytes, expected {expected}"):
            runio.read_checkpoint(path)

    def _write_header_without(self, path, prefix, count=1):
        """A checkpoint whose header lacks the count-th line that starts with prefix."""
        state = small_state(16, 8)
        runio.write_checkpoint(path, 0.0, 1, state.u1, state.w1, state.mesh_r, state.mesh_z)
        head, sep, data = path.read_bytes().partition(b"\ndata:\n")
        lines = head.split(b"\n")
        seen = [k for k, x in enumerate(lines) if x.startswith(prefix)]
        del lines[seen[count - 1]]
        path.write_bytes(b"\n".join(lines) + sep + data)

    def test_empty_file_names_path(self, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="state.bin is not a checkpoint file"):
            runio.read_checkpoint(path)

    @pytest.mark.parametrize("field", ["n", "knots"])
    def test_header_without_field_names_it(self, tmp_path, field):
        path = tmp_path / "state.bin"
        self._write_header_without(path, f"{field}:".encode())
        with pytest.raises(ValueError,
                           match=f"state.bin: checkpoint header has no '{field}' field"):
            runio.read_checkpoint(path)

    def test_bad_header_value_names_path(self, tmp_path):
        state = small_state(16, 8)
        path = tmp_path / "state.bin"
        runio.write_checkpoint(path, 0.0, 1, state.u1, state.w1, state.mesh_r, state.mesh_z)
        path.write_bytes(path.read_bytes().replace(b"\nn: 16\n", b"\nn: sixteen\n", 1))
        with pytest.raises(ValueError, match="state.bin: bad checkpoint header value: "
                                             ".*'sixteen'"):
            runio.read_checkpoint(path)

    @pytest.mark.parametrize("section, count", [("mesh_r", 1), ("mesh_z", 2)])
    def test_missing_end_mesh_names_section(self, tmp_path, section, count):
        path = tmp_path / "state.bin"
        self._write_header_without(path, b"end_mesh", count)
        with pytest.raises(ValueError, match=f"state.bin: checkpoint header has no "
                                             f"'end_mesh' after '{section}:'"):
            runio.read_checkpoint(path)

    def test_bit_exact(self, tmp_path):
        cfg = st.RunConfig(case=1, n=128, m=64, t_end=2e-7)
        res = st.run(cfg)
        path = tmp_path / "state.bin"
        runio.write_checkpoint(path, res.state.t, cfg.case, res.state.u1,
                               res.state.w1, res.state.mesh_r, res.state.mesh_z)
        back = runio.read_checkpoint(path)
        assert back.t == res.state.t
        assert np.array_equal(back.u1.values, res.state.u1.values)
        assert np.array_equal(back.w1.values, res.state.w1.values)
        assert np.array_equal(back.mesh_r.nodes_y, res.state.mesh_r.nodes_y)
        assert np.array_equal(back.mesh_z.nodes_y, res.state.mesh_z.nodes_y)
