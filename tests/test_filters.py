"""Low-pass filter, L-shaped strength, and the re-meshed variant."""

import numpy as np
import pytest

from axiblow import filters as fl
from axiblow import meshmap as mm
from axiblow.fields import FieldGrid

from conftest import identity_mesh_r, identity_mesh_z, ip4_oracle


class TestLPF:
    def test_zero_strength_is_identity(self, rng):
        f = FieldGrid(rng.standard_normal((17, 9)), "even", "even")
        out = fl.lpf(f, 0.0)
        assert np.array_equal(out.values, f.values)

    def test_constant_preserved(self):
        f = FieldGrid(np.full((17, 9), 2.5), "even", "even")
        out = fl.lpf(f, 1.0)
        assert out.values == pytest.approx(f.values, abs=1e-14)

    def test_nyquist_annihilated_interior(self):
        i = np.arange(33)[:, None]
        f = FieldGrid(np.broadcast_to((-1.0) ** i, (33, 17)).copy(), None, None)
        out = fl.lpf(f, 1.0)
        assert np.abs(out.values[1:-1, 1:-1]).max() < 1e-14

    def test_linear_and_odd(self, rng):
        a = FieldGrid(rng.standard_normal((17, 9)), "even", "odd")
        b = FieldGrid(rng.standard_normal((17, 9)), "even", "odd")
        fa = fl.lpf(a, 0.7).values
        fb = fl.lpf(b, 0.7).values
        combo = FieldGrid(2.0 * a.values - 3.0 * b.values, "even", "odd")
        assert fl.lpf(combo, 0.7).values == pytest.approx(2 * fa - 3 * fb)
        neg = fl.lpf(FieldGrid(-a.values, "even", "odd"), 0.7).values
        assert neg == pytest.approx(-fa)

    def test_parity_preserved(self, rng):
        v = rng.standard_normal((17, 9))
        v[:, 0] = 0.0
        v[:, -1] = 0.0
        f = FieldGrid(v, "even", "odd")
        out = fl.lpf(f, 1.0)
        assert out.parity_r == "even" and out.parity_z == "odd"
        assert not out.values[:, 0].any() and not out.values[:, -1].any()

    def test_second_difference_energy_contracts(self, rng):
        # Interior second-difference energy cannot grow for constant c.
        v = rng.standard_normal((25, 13))
        f = FieldGrid(v, "even", "odd")

        def energy(u):
            d2r = u[2:, :] + u[:-2, :] - 2.0 * u[1:-1, :]
            d2z = u[:, 2:] + u[:, :-2] - 2.0 * u[:, 1:-1]
            return (d2r**2).sum() + (d2z**2).sum()

        for c in (0.1, 0.5, 1.0):
            out = fl.lpf(f, c)
            assert energy(out.values) <= energy(v) * (1.0 + 1e-12)

    def test_smooth_field_perturbation_second_order(self):
        errs = []
        for n in (32, 64):
            mesh_r, mesh_z = identity_mesh_r(n), identity_mesh_z(n // 2)
            f = FieldGrid(np.cos(np.pi * mesh_r.nodes_y)[:, None]
                          * np.sin(2 * np.pi * mesh_z.nodes_y)[None, :], "even", "odd")
            out = fl.lpf(f, 1.0)
            errs.append(np.abs(out.values - f.values).max())
        assert 3.3 < errs[0] / errs[1] < 4.8


class TestStrengthCL:
    # On the 20 x 20 grid, node k sits at rho (or eta) = k / 20.
    def test_quiet_in_singular_box(self):
        assert fl.l_shape_strength(20, 20)[4, 4] < 0.01

    def test_active_on_tail_band(self):
        c = fl.l_shape_strength(20, 20)
        assert c[13, 4] > 0.95
        assert c[4, 13] > 0.95

    def test_quiet_in_far_field(self):
        assert fl.l_shape_strength(20, 20)[19, 19] < 0.01

    def test_range(self):
        c = fl.l_shape_strength(100, 100)
        assert c.min() >= 0.0 and c.max() <= 1.0


class TestRLPF:
    @staticmethod
    def _front_setup(n=256, m=128):
        coarse_r, coarse_z = identity_mesh_r(n), identity_mesh_z(m)
        r = coarse_r.nodes_y[:, None]
        z = coarse_z.nodes_y[None, :]
        u1 = np.exp(-((r - 2e-2) / 6e-3) ** 2) * np.exp(-((z - 4e-3) / 2e-3) ** 2)
        mesh_r, mesh_z = mm.build_pair(*mm.derive_targets(u1, coarse_r, coarse_z), n, m)
        rr = mesh_r.nodes_y[:, None]
        zz = mesh_z.nodes_y[None, :]
        u1m = np.exp(-((rr - 2e-2) / 6e-3) ** 2) * np.exp(-((zz - 4e-3) / 2e-3) ** 2)
        return mesh_r, mesh_z, u1m

    def test_same_map_roundtrip_exact_on_cubics(self):
        # Coarsening along the *same* analytic map pulls coarse nodes back
        # to rational fine coordinates, so the bicubic round trip is exact.
        mesh_r, mesh_z, _ = self._front_setup()
        coarse_r = mm.build_map(mesh_r.knots, mesh_r.coeffs, mesh_r.L, mesh_r.n // 2)
        coarse_z = mm.build_map(mesh_z.knots, mesh_z.coeffs, mesh_z.L, mesh_z.n // 2)
        rho = mesh_r.nodes_s[:, None]
        eta = mesh_z.nodes_s[None, :]
        f = rho**3 - 2 * rho * eta**2 + eta**3
        down = mm.interpolate_ip4(f, mesh_r, mesh_z, coarse_r, coarse_z)
        up = mm.interpolate_ip4(down, coarse_r, coarse_z, mesh_r, mesh_z)
        assert np.abs(up - f).max() < 1e-10

    def test_zero_passes_roundtrip_near_identity(self):
        # rlpf rebuilds the coarse mesh from the current solution, so the
        # k = 0 round trip is a 4th-order-small perturbation, not exact.
        mesh_r, mesh_z, u1 = self._front_setup()
        rho = mesh_r.nodes_s[:, None]
        eta = mesh_z.nodes_s[None, :]
        f = FieldGrid(rho**3 - 2 * rho * eta**2 + eta**3, None, None)
        N, M = mesh_r.n // 2, mesh_z.n // 2
        out, = fl.rlpf((f,), u1, mesh_r, mesh_z, k=0, N=N, M=M, c=fl.l_shape_strength(N, M))
        scale = np.abs(f.values).max()
        assert np.abs(out.values - f.values).max() < 1e-4 * scale

    def test_smooth_field_change_bounded_by_coarse_cells(self):
        mesh_r, mesh_z, u1 = self._front_setup()
        f = FieldGrid(np.sin(2 * np.pi * mesh_r.nodes_s)[:, None]
                      * np.sin(np.pi * mesh_z.nodes_s)[None, :] ** 2, None, None)
        changes = []
        for frac in (2, 4):
            N, M = mesh_r.n // frac, mesh_z.n // frac
            out, = fl.rlpf((f,), u1, mesh_r, mesh_z, k=5, N=N, M=M, c=1.0)
            changes.append(np.abs(out.values - f.values).max())
        # halving the coarse resolution quadruples the perturbation
        assert 2.5 < changes[1] / changes[0] < 6.0

    def test_many_passes_stay_bounded(self):
        mesh_r, mesh_z, u1 = self._front_setup()
        f = FieldGrid(np.sin(2 * np.pi * mesh_r.nodes_s)[:, None]
                      * np.sin(np.pi * mesh_z.nodes_s)[None, :] ** 2, None, None)
        out, = fl.rlpf((f,), u1, mesh_r, mesh_z, k=50, N=mesh_z.n, M=mesh_z.n,
                       c=fl.l_shape_strength(mesh_z.n, mesh_z.n))
        assert np.isfinite(out.values).all()
        assert np.abs(out.values).max() <= np.abs(f.values).max() * 1.05

    def test_field_pair_matches_single_fields(self):
        # Both fields share one coarse pair and its pull-backs; each result
        # equals filtering that field alone, bit for bit.
        mesh_r, mesh_z, u1 = self._front_setup(128, 64)
        rho = mesh_r.nodes_s[:, None]
        eta = mesh_z.nodes_s[None, :]
        a = FieldGrid(np.sin(3 * rho) * np.cos(np.pi * eta), "odd", "even")
        b = FieldGrid(np.cos(2 * rho) * np.sin(2 * np.pi * eta), "even", "odd")
        args = (u1, mesh_r, mesh_z, 5, 64, 64, fl.l_shape_strength(64, 64))
        pair = fl.rlpf((a, b), *args)
        assert [(f.parity_r, f.parity_z) for f in pair] == [("odd", "even"), ("even", "odd")]
        assert np.array_equal(pair[0].values, fl.rlpf((a,), *args)[0].values)
        assert np.array_equal(pair[1].values, fl.rlpf((b,), *args)[0].values)

    def _pair_setup(self):
        mesh_r, mesh_z, u1 = self._front_setup(128, 64)
        rho = mesh_r.nodes_s[:, None]
        eta = mesh_z.nodes_s[None, :]
        a = FieldGrid(np.sin(3 * rho) * np.cos(np.pi * eta), "odd", "even")
        b = FieldGrid(np.cos(2 * rho) * np.sin(2 * np.pi * eta), "even", "odd")
        return (a, b), (u1, mesh_r, mesh_z, 5, 64, 64, fl.l_shape_strength(64, 64))

    def test_pair_matches_per_field_stencils(self):
        # Oracle: each field moved down and back up with stencils computed
        # for that field alone; the shared stencils give the same bits.
        fs, args = self._pair_setup()
        u1, mesh_r, mesh_z, k, N, M, c = args
        coarse_r, coarse_z = mm.build_pair(*mm.derive_targets(u1, mesh_r, mesh_z), N, M)
        down = mm.pull_back_nodes(mesh_r, mesh_z, coarse_r, coarse_z)
        up = mm.pull_back_nodes(coarse_r, coarse_z, mesh_r, mesh_z)
        for got, f in zip(fl.rlpf(fs, *args), fs):
            g = f.like(ip4_oracle(f.values, *down, f.parity_r, f.parity_z))
            for _ in range(k):
                g = fl.lpf(g, c)
            assert np.array_equal(got.values, ip4_oracle(g.values, *up, f.parity_r, f.parity_z))

    def test_one_stencil_per_axis_per_direction(self, monkeypatch):
        # Work-count guard: both fields share the stencils of each
        # direction, one per axis (one per field and axis makes 8).
        fs, args = self._pair_setup()
        calls = []
        real = mm._cubic_stencil

        def stencil(q, n, *ends):
            calls.append((len(q), n))
            return real(q, n, *ends)

        monkeypatch.setattr(mm, "_cubic_stencil", stencil)
        fl.rlpf(fs, *args)
        # down: fine-grid values at the 65 x 65 coarse nodes; up: the reverse
        assert calls == [(65, 128), (65, 64), (129, 64), (65, 64)]
