"""Each correctness check of the benchmark accepts good output and rejects a
deliberately corrupted input.

    python -m pytest bench/tests -q
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

import checks
import run
from axiblow import diagnostics as dg
from axiblow import fitting
from axiblow import meshmap as mm
from axiblow import physics
from axiblow import poisson as ps
from axiblow import runio
from axiblow import stepper as st
from axiblow.errors import NonFinite
from axiblow.fields import FieldGrid
from tracing import Tracer


@pytest.fixture(scope="module")
def short_run():
    """Eight Case-1 steps at 128x64 from the initial data."""
    cfg = st.RunConfig(case=1, n=128, m=64, t_end=1.0, max_steps=8, diag_every=4)
    return cfg, st.run(cfg)


@pytest.fixture(scope="module")
def post(tmp_path_factory):
    """The post-processing workload after one round."""
    wl = run.Postprocess(seed=7, out_dir=str(tmp_path_factory.mktemp("post")))
    wl.run_round()
    return wl


def record_of(cfg, state, swirl_scale):
    """Diagnostics record of ``state`` with its swirl multiplied by ``swirl_scale``."""
    scaled = replace(state, u1=state.u1.like(swirl_scale * state.u1.values))
    omega = st.omega_theta_sup(scaled.w1, scaled.mesh_r)
    spec = physics.spec_for_case(cfg.case, cfg.mu)
    _, _, aux = st.rhs(scaled.u1, scaled.w1, scaled, spec, cfg, omega)
    return st.make_record(scaled, aux, 0.0, False)


class TestSolverChecks:
    def test_good_run_passes(self, short_run):
        _, res = short_run
        assert res.reason == "max-steps"
        for check in (checks.circulation, checks.energy, checks.focusing):
            assert check(res.records).ok, check(res.records).detail

    def test_circulation_rejects_scaled_swirl(self, short_run):
        cfg, res = short_run
        bad = res.records + [record_of(cfg, res.state, 1.01)]
        assert not checks.circulation(bad).ok

    def test_energy_rejects_scaled_swirl(self, short_run):
        cfg, res = short_run
        bad = res.records + [record_of(cfg, res.state, 1.01)]
        assert not checks.energy(bad).ok

    def test_focusing_rejects_decayed_swirl(self, short_run):
        cfg, res = short_run
        u0 = res.records[0].u1_max
        bad = res.records + [record_of(cfg, res.state, 0.99 * u0 / res.records[-1].u1_max)]
        assert not checks.focusing(bad).ok

    def test_poisson_passes_on_final_pair(self, short_run):
        _, res = short_run
        s = res.state
        _, w = checks.manufactured_pair(s.mesh_r, s.mesh_z)
        assert checks.poisson(s.system.solve(w).values, s.mesh_r, s.mesh_z).ok

    def test_poisson_rejects_stale_system(self, short_run):
        """A system assembled on another mesh pair must not pass."""
        _, res = short_run
        s = res.state
        mesh_r = mm.build_map(mm.R_KNOTS, mm.DensityCoeffs(0.0, 1.0, 0.0, 0.0), 1.0, s.mesh_r.n)
        mesh_z = mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 0.5, 0.0, 0.0), 0.5, s.mesh_z.n)
        _, w = checks.manufactured_pair(mesh_r, mesh_z)
        assert checks.poisson(ps.assemble(mesh_r, mesh_z).solve(w).values, mesh_r, mesh_z).ok
        assert not checks.poisson(s.system.solve(w).values, mesh_r, mesh_z).ok


class TestCheckpointCheck:
    @pytest.fixture
    def written(self, short_run, tmp_path):
        s = short_run[1].state
        path = tmp_path / "ckpt.bin"
        runio.write_checkpoint(path, s.t, 1, s.u1, s.w1, s.mesh_r, s.mesh_z)
        return path, s

    def check(self, path, s):
        return checks.checkpoint(path, s.t, s.u1.values, s.w1.values, s.mesh_r, s.mesh_z)

    def test_round_trip_passes(self, written):
        assert self.check(*written).ok

    def test_truncated_file_rejected(self, written):
        path, s = written
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        assert not self.check(path, s).ok

    def test_float32_payload_rejected(self, written, tmp_path):
        _, s = written
        path = tmp_path / "f32.bin"
        lossy = [f.like(f.values.astype(np.float32).astype(np.float64)) for f in (s.u1, s.w1)]
        runio.write_checkpoint(path, s.t, 1, *lossy, s.mesh_r, s.mesh_z)
        assert not self.check(path, s).ok


class TestPostprocessChecks:
    def test_round_passes_every_check(self, post):
        for c in post.checks():
            assert c.ok, f"{c.name}: {c.detail}"

    def test_fit_rejects_perturbed_rate(self, post):
        c, series = post.series[0]
        window = (1.6e-4, 1.75e-4)
        drifted = fitting.TimeSeries(series.t, series.v ** ((c + 0.01) / c))
        c_fit = fitting.fit_model2(drifted, window, fitting.fit_model1(drifted, window).c).c
        assert not checks.fit(c_fit, c).ok

    def test_rotation_rejects_radial_drift(self, post):
        u1, ur, uz = post.spin
        r = post.state.mesh_r.nodes_y[:, None]
        leak = FieldGrid(0.01 * r * np.ones_like(ur.values), "odd", "even")
        pts, exited = dg.streamline(u1, leak, uz, post.state.mesh_r, post.state.mesh_z,
                                    post.spin_start, s_max=2.0, ds=0.25)
        assert not exited
        assert not checks.rotation(pts, post.spin_start[0]).ok

    def test_stokes_rejects_inconsistent_flow(self, post):
        """Axial velocity scaled by 1.2 no longer follows the level sets of r^2 psi1."""
        s = post.state
        uz = post.uz.like(1.2 * post.uz.values)
        pts, exited = dg.streamline(s.u1, post.ur, uz, s.mesh_r, s.mesh_z, post.starts[0],
                                    s_max=run.STREAMLINE_STEPS * post.ds, ds=post.ds)
        assert not exited
        assert not checks.stokes(pts, post.psi.values, s.mesh_r, s.mesh_z).ok

    def test_sampling_rejects_values_from_another_mesh(self, post):
        """Nodal values tabulated on a uniform grid, sampled through the adaptive maps."""
        s = post.state
        r = np.linspace(0.0, 1.0, s.mesh_r.n + 1)[:, None]
        z = np.linspace(0.0, 0.5, s.mesh_z.n + 1)[None, :]
        sampled = mm.sample_ip4(run.analytic_field(r, z), s.mesh_r, s.mesh_z,
                                post.sample_r, post.sample_z, "even", "odd")
        exact = run.analytic_field(post.sample_r[:, None], post.sample_z[None, :])
        assert not checks.sampling(sampled, exact).ok


class TestHaltedRound:
    """A solver round that halts counts its remaining steps as failed."""

    STEPS = 6

    @pytest.fixture
    def halting(self, monkeypatch):
        """Makes a 64x32 Case-1 workload whose fourth step of round two blows up."""
        monkeypatch.setitem(run.SOLVERS, "tiny",
                            run.SolverWorkload(1, 64, 32, self.STEPS, 2, 0, 0, False))
        step, taken = st.step_rk2, [0]

        def halting_step(*args, **kwargs):
            taken[0] += 1
            if taken[0] == self.STEPS + 4:
                raise NonFinite("planted")
            return step(*args, **kwargs)

        monkeypatch.setattr(st, "step_rk2", halting_step)
        # Solver rebinds this; monkeypatch puts the original back afterwards.
        monkeypatch.setattr(st, "build_initial_state", st.build_initial_state)
        return lambda out_dir: run.Solver("tiny", seed=3, out_dir=out_dir)

    def test_run_stops_after_the_halted_round(self, halting, tmp_path):
        wl = halting(str(tmp_path))
        rounds, attempted, failed, _ = run.measure(wl, seconds=60.0)
        assert wl.result.reason == "nonfinite"
        # Round one: the initial record and six steps.  Round two: the
        # initial record, three steps and the step that raised.
        assert [len(r) for r in rounds] == [self.STEPS + 1, 5]
        assert (attempted, failed) == (2 * self.STEPS, self.STEPS - 3)
        whole = run.whole_rounds(rounds, wl.pieces)
        assert whole == rounds[:1]
        assert run.fastest_pieces(whole) == pytest.approx(sum(rounds[0]))

    def test_halted_run_prints_its_result(self, halting, monkeypatch, capsys):
        monkeypatch.setattr(run, "make_workload", lambda name, seed, out_dir: halting(out_dir))
        argv = ["--workload", "case1-256-remesh", "--seed", "3", "--seconds", "60"]
        assert run.main(argv) == 0
        res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert (res["attempted"], res["failed"]) == (2 * self.STEPS, self.STEPS - 3)
        assert set(res["metrics"]) == {"setup_s", "run_s", "peak_rss_mb"}


def test_every_per_layer_metric_has_a_rule():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    tracer = Tracer()
    for m in bench["per_layer"]:
        assert tracer.metric(m["name"], 1) == 0.0
