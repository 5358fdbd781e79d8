"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1-3 and the property roll-up run in the default suite; the
desk-scale PDE studies (4-6) carry the ``slow`` marker and are run with
``pytest -m slow``.  The full-fidelity rate reproduction (criterion 8) is
a multi-day target gated behind AXIBLOW_FULL_FIDELITY=1.
"""

import os
import time

import numpy as np
import pytest
import sympy as sym

from axiblow import cli
from axiblow import diagnostics as dg
from axiblow import fields as fd
from axiblow import filters as fl
from axiblow import fitting as ft
from axiblow import meshmap as mm
from axiblow import physics as ph
from axiblow import poisson as ps
from axiblow import stepper as st
from axiblow.fields import FieldGrid

from conftest import gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z

RATIO_BAND = (3.3, 4.8)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}")
    return passed


class TestCriterion1Poisson:
    def test_manufactured_solution_convergence(self):
        start = time.time()
        errs = []
        for m in (64, 128):
            mesh_r, mesh_z = identity_mesh_r(2 * m), identity_mesh_z(m)
            system = ps.assemble(mesh_r, mesh_z)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            w = (8.0 + 4.0 * np.pi**2 * (1 - r**2)) * np.sin(2 * np.pi * z)
            psi = system.solve(w)
            errs.append(np.abs(psi.values - (1 - r**2) * np.sin(2 * np.pi * z)).max())
        ratio = errs[0] / errs[1]
        elapsed = time.time() - start
        ok = RATIO_BAND[0] < ratio < RATIO_BAND[1] and elapsed < 30.0
        assert report(1, ok, f"sup-error ratio {ratio:.3f} in {RATIO_BAND}, "
                             f"errors {errs[0]:.2e}->{errs[1]:.2e}, {elapsed:.1f}s")


class TestCriterion2Kernels:
    def test_derivative_and_diffusion_orders(self):
        start = time.time()
        ratios = {}

        errs = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            r = mesh_r.nodes_y[:, None]
            f = FieldGrid(np.sin(2 * np.pi * r) * np.ones((1, n // 2 + 1)), None, None)
            out = fd.ddr(f, mesh_r).values
            errs.append(np.abs(out - 2 * np.pi * np.cos(2 * np.pi * r)).max())
        ratios["d/dr"] = errs[0] / errs[1]

        w = 2 * np.pi
        fz = lambda z: np.sin(w * z) ** 3
        fzz = lambda z: 3 * w**2 * np.sin(w * z) * (2 * np.cos(w * z) ** 2
                                                    - np.sin(w * z) ** 2)
        errs = []
        for n in (64, 128):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            f = FieldGrid((1 - r**2) * fz(z), "even", "odd")
            err_r = np.abs(fd.d2dr2(f, mesh_r).values + 2.0 * fz(z)).max()
            err_z = np.abs(fd.d2dz2(f, mesh_z).values - (1 - r**2) * fzz(z)).max()
            errs.append(max(err_r, err_z))
        ratios["d2"] = errs[0] / errs[1]

        rs, zs = sym.symbols("r z", real=True)
        ss = sym.sin(sym.pi * zs) / sym.pi
        nu_r = 10 * rs**2 / (1 + 10**8 * rs**2) \
            + 10**2 * ss**2 / (1 + 10**11 * ss**2) + sym.Rational(1, 10**7)
        nu_z = rs**2 / (10 * (1 + 10**8 * rs**2)) \
            + 10**4 * ss**2 / (1 + 10**11 * ss**2) + sym.Rational(1, 10**7)
        u = (1 + sym.cos(sym.pi * rs)) * sym.sin(2 * sym.pi * zs) ** 3
        expr = (nu_r * (sym.diff(u, rs, 2) + 3 * sym.diff(u, rs) / rs)
                + nu_z * sym.diff(u, zs, 2)
                + sym.diff(nu_r, rs) / rs * u
                + sym.diff(nu_r, rs) * sym.diff(u, rs)
                + sym.diff(nu_z, zs) * sym.diff(u, zs))
        # The unsimplified expression lambdifies in milliseconds; simplify
        # alone took longer than the time bound below.
        oracle = sym.lambdify((rs, zs), expr, "numpy")
        ufun = sym.lambdify((rs, zs), u, "numpy")
        errs = []
        for n in (96, 192):
            mesh_r, mesh_z = gentle_mesh_r(n), gentle_mesh_z(n // 2)
            spec = ph.DiffusionSpec(ph.CASE_DEGENERATE)
            nuf = ph.nu_eval(spec, mesh_r.nodes_y, mesh_z.nodes_y,
                             omega_theta_max=spec.tdp_scale / 1e-7)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            u1 = FieldGrid(ufun(r, z), "even", "odd")
            got = fd.diffusion_u1_from(u1, fd.derivatives(u1, mesh_r, mesh_z), nuf, mesh_r)
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = oracle(r, z)
            errs.append(np.abs(got[1:] - expect[1:]).max())
        ratios["diffusion"] = errs[0] / errs[1]

        elapsed = time.time() - start
        ok = all(RATIO_BAND[0] < v < RATIO_BAND[1] for v in ratios.values()) \
            and elapsed < 10.0
        detail = ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items())
        assert report(2, ok, f"refinement ratios {detail} "
                             f"(band {RATIO_BAND}), {elapsed:.1f}s")


class TestCriterion3Fitting:
    def test_synthetic_rates(self):
        start = time.time()
        T = 1.791e-4
        t = np.linspace(1.58e-4, 1.755e-4, 160)
        window = (1.60e-4, 1.75e-4)
        worst_clean, worst_r2 = 0.0, 1.0
        for c_true in (0.5, 1.0, 1.5, 2.0):
            series = ft.TimeSeries(t, (T - t) ** (-c_true))
            crude = ft.fit_model1(series, window)
            fine = ft.fit_model2(series, window, crude.c)
            worst_clean = max(worst_clean, abs(fine.c - c_true))
            worst_r2 = min(worst_r2, fine.r2)
        worst_noisy = 0.0
        tn = np.linspace(1.58e-4, 1.755e-4, 45)
        for c_true in (0.5, 1.0, 1.5, 2.0):
            rng = np.random.default_rng(int(10 * c_true))
            vn = (T - tn) ** (-c_true) * (1 + 0.01 * rng.standard_normal(len(tn)))
            series = ft.TimeSeries(tn, vn)
            try:
                seed = ft.fit_model1(series, window).c
            except ft.DegenerateFit:
                seed = 1.0
            fine = ft.fit_model2(series, window, seed)
            worst_noisy = max(worst_noisy, abs(fine.c - c_true))
        elapsed = time.time() - start
        ok = worst_clean < 2e-3 and worst_r2 > 1.0 - 1e-8 \
            and worst_noisy < 0.1 and elapsed < 5.0
        assert report(3, ok, f"clean |dc| {worst_clean:.2e} (<2e-3), "
                             f"R2 {worst_r2:.10f} (>1-1e-8), "
                             f"noisy |dc| {worst_noisy:.3f} (<0.1), {elapsed:.1f}s")


@pytest.mark.slow
class TestCriterion4Convergence:
    def test_short_horizon_order(self, tmp_path_factory):
        # Case 1 to t = 1e-5 at (512,256), (768,384) vs next-finer
        # references per the resolution-study convention; the measured
        # order must be at least 2.
        out = str(tmp_path_factory.mktemp("study"))
        instant = 1e-5
        start = time.time()
        for p in (2, 3, 4):
            cfg = st.RunConfig(case=1, n=256 * p, m=128 * p, t_end=instant,
                               snap_times=(instant,), diag_every=200,
                               out_dir=os.path.join(out, f"p{p}"))
            res = st.run(cfg)
            assert res.reason == "completed"
            print(f"[criterion 4] p={p} steps={res.steps} "
                  f"({time.time() - start:.0f}s elapsed)")
        errors, orders = cli.study_errors(out, [2, 3, 4], instant)
        beta = orders["u1"][3]
        elapsed = time.time() - start
        detail = (f"e_2={errors['u1'][2]:.3e} e_3={errors['u1'][3]:.3e} "
                  f"beta={beta:.2f} (>=2), {elapsed:.0f}s")
        assert report(4, beta >= 2.0, detail)


@pytest.mark.slow
class TestCriterion5Growth:
    def test_case1_amplification(self):
        start = time.time()
        cfg = st.RunConfig(case=1, n=512, m=256, t_end=1.6e-4, diag_every=100)
        res = st.run(cfg, progress=500)
        assert res.reason == "completed"
        r0, r1 = res.records[0], res.records[-1]
        amp_u = r1.u1_max / r0.u1_max
        amp_w = r1.omega_vec_max / r0.omega_vec_max
        elapsed = time.time() - start
        ok = amp_u >= 30.0 and amp_w >= 500.0
        assert report(5, ok, f"|u1| amplification {amp_u:.1f} (>=30), "
                             f"|omega| amplification {amp_w:.1f} (>=500), "
                             f"{elapsed:.0f}s, steps={res.steps}")


@pytest.mark.slow
class TestCriterion6ConstantDiffusion:
    def test_case2_bounded_and_decreasing(self):
        start = time.time()
        cfg = st.RunConfig(case=2, mu=1e-5, n=256, m=128, t_end=2.5e-4,
                           diag_every=50)
        res = st.run(cfg, progress=1000)
        assert res.reason == "completed"
        t = np.array([r.t for r in res.records])
        wv = np.array([r.omega_vec_max for r in res.records])
        bounded = wv.max() <= 5.0 * wv[0]
        tail = wv[t >= 0.8 * cfg.t_end]
        decreasing = len(tail) >= 3 and tail[-1] < tail[0] \
            and np.all(np.diff(tail) <= tail[:-1] * 1e-3)
        elapsed = time.time() - start
        ok = bounded and decreasing
        assert report(6, ok, f"max/initial {wv.max() / wv[0]:.2f} (<=5), "
                             f"final-20% trend {tail[0]:.3e}->{tail[-1]:.3e}, "
                             f"{elapsed:.0f}s")


class TestCriterion7Properties:
    def test_property_suite_rollup(self):
        # the detailed checks live in test_properties.py; this rolls up the
        # same assertions as one gate with the stated runtime bound
        start = time.time()
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             os.path.join(os.path.dirname(__file__), "test_properties.py")],
            capture_output=True, text=True)
        elapsed = time.time() - start
        ok = proc.returncode == 0 and elapsed < 60.0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
        assert report(7, ok, f"{tail}, {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("AXIBLOW_FULL_FIDELITY"),
                    reason="multi-day full-fidelity reproduction; "
                           "set AXIBLOW_FULL_FIDELITY=1 to run")
class TestCriterion8FullFidelity:
    def test_swirl_rate_at_production_resolution(self, tmp_path):
        out = str(tmp_path / "full")
        cfg = st.RunConfig(case=1, n=1024, m=512, t_end=1.75e-4,
                           diag_every=20, out_dir=out)
        res = st.run(cfg, progress=1000)
        assert res.reason == "completed"
        t = np.array([r.t for r in res.records])
        u = np.array([r.u1_max for r in res.records])
        series = ft.TimeSeries(t[u > 0], u[u > 0])
        window = (1.60e-4, 1.75e-4)
        crude = ft.fit_model1(series, window)
        fine = ft.fit_model2(series, window, crude.c)
        assert report(8, abs(fine.c - 1.0129) <= 0.05,
                      f"fitted swirl rate {fine.c:.4f} vs 1.0129 +/- 0.05")
