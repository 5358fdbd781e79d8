"""Mesh-map construction, target solving, update criteria, interpolation."""

import numpy as np
import pytest
from scipy.integrate import quad

from axiblow import meshmap as mm
from axiblow.errors import DegenerateProfile, NonPositiveDensity, OutOfDomain

from conftest import (gentle_mesh_r, gentle_mesh_z, identity_mesh_r, identity_mesh_z,
                      ip4_oracle)


class TestEvalQ:
    def test_midpoint(self):
        assert mm.eval_q(0.0, 60) == pytest.approx(0.5, abs=1e-15)

    def test_left_end_vanishes(self):
        assert mm.eval_q(-1.0, 60) == 0.0

    def test_right_end_saturates(self):
        expected = 2.0**60 / (1.0 + 2.0**60)
        assert mm.eval_q(1.0, 60) == pytest.approx(expected, rel=1e-15)
        assert 1.0 - mm.eval_q(1.0, 60) < 1e-17

    def test_monotone(self):
        x = np.linspace(-1.0, 1.0, 401)
        q = mm.eval_q(x, 60)
        assert np.all(np.diff(q) >= 0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mm.eval_q(1.5, 60)

    def test_odd_b_rejected(self):
        with pytest.raises(ValueError):
            mm.eval_q(0.0, 7)


class TestSolvePhaseCoeffs:
    def test_identity_targets(self):
        t = mm.MeshTargets(0.1, 0.5, 0.85, 1.0)
        c = mm.solve_phase_coeffs(mm.R_KNOTS, t)
        assert (c.a0, c.a1, c.a2, c.a3) == pytest.approx((0.0, 1.0, 0.0, 0.0), abs=1e-15)

    def test_front_targets_match_linear_system_oracle(self):
        # Oracle: solve the ideal piecewise-constant constraints as a
        # general linear system instead of by the closed form.
        k, t = mm.R_KNOTS, mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0)
        A = np.array([
            [k.s1, k.s1, 0.0, 0.0],
            [0.0, k.s2 - k.s1, 0.0, 0.0],
            [0.0, k.s3 - k.s2, k.s3 - k.s2, 0.0],
            [0.0, 1.0 - k.s3, 1.0 - k.s3, 1.0 - k.s3],
        ])
        rhs = np.array([t.y1, t.y2 - t.y1, t.y3 - t.y2, t.L - t.y3])
        a_oracle = np.linalg.solve(A, rhs)
        c = mm.solve_phase_coeffs(k, t)
        assert (c.a0, c.a1, c.a2, c.a3) == pytest.approx(tuple(a_oracle), rel=1e-12, abs=1e-18)
        assert c.a1 == pytest.approx(7e-4, rel=1e-12)
        assert c.a2 == pytest.approx(1.4285714285714292e-05, rel=1e-10)
        assert c.a3 == pytest.approx(6.66195238095238, rel=1e-12)

    def test_violated_gap_constraint(self):
        # y2 > (s2/s1) y1 forces a0 = 0.5 - 1.375 < 0.
        with pytest.raises(NonPositiveDensity):
            mm.solve_phase_coeffs(mm.R_KNOTS, mm.MeshTargets(0.05, 0.6, 0.8, 1.0))

    def test_three_phase_axis(self):
        c = mm.solve_phase_coeffs(mm.Z_KNOTS, mm.MeshTargets(0.0, 1.5e-5, 1.5e-4, 0.5))
        assert c.a0 == 0.0
        assert c.a1 == pytest.approx(5e-5, rel=1e-12)

    def test_ideal_density_reproduces_targets_exactly(self):
        # Plugging the coefficients back into the ideal indicator density
        # must hit every target exactly (closed-form consistency).
        k = mm.R_KNOTS
        t = mm.MeshTargets(2e-4, 9e-4, 3.1e-3, 1.0)
        c = mm.solve_phase_coeffs(k, t)

        def ideal_integral(x):
            pieces = [
                (min(x, k.s1), c.a0 + c.a1),
                (max(0.0, min(x, k.s2) - k.s1), c.a1),
                (max(0.0, min(x, k.s3) - k.s2), c.a1 + c.a2),
                (max(0.0, x - k.s3), c.a1 + c.a2 + c.a3),
            ]
            return sum(w * p for w, p in pieces)

        assert ideal_integral(k.s1) == pytest.approx(t.y1, rel=1e-13)
        assert ideal_integral(k.s2) == pytest.approx(t.y2, rel=1e-13)
        assert ideal_integral(k.s3) == pytest.approx(t.y3, rel=1e-13)
        assert ideal_integral(1.0) == pytest.approx(t.L, rel=1e-13)


class TestBuildMap:
    def test_identity_map_exact(self):
        mesh = identity_mesh_r(64)
        x = np.linspace(0.0, 1.0, 97)
        assert np.abs(mesh.value(x) - x).max() < 1e-15

    def test_endpoint_after_rescale(self):
        for mesh in (gentle_mesh_r(32), gentle_mesh_z(32)):
            assert abs(mesh.value(1.0) - mesh.L) < 1e-14 * mesh.L
            assert mesh.value(0.0) == 0.0

    def test_strictly_increasing_nodes(self):
        mesh = gentle_mesh_r(256)
        assert np.all(np.diff(mesh.nodes_y) > 0.0)

    def test_quadrature_against_adaptive_oracle(self):
        # Independent oracle: scipy adaptive quadrature of the density.
        k = mm.R_KNOTS
        c = mm.solve_phase_coeffs(k, mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0))
        mesh = mm.build_map(k, c, 1.0, 128)
        for x in (0.07, 0.1, 0.33, 0.5, 0.77, 0.85, 0.97):
            ref, err = quad(lambda s: mm.density(s, k, c), 0.0, x,
                            points=[k.s1, k.s2, k.s3], limit=200)
            assert mesh.value(x) == pytest.approx(mesh.rescale * ref, rel=1e-12)

    def test_front_map_hits_inner_targets(self):
        # The softened steps displace P(s1), P(s2) from the ideal targets by
        # well under 1%; P(s3) additionally absorbs the left tail of the
        # (large) far-field step, bounded by ~0.01 * a3.
        k = mm.R_KNOTS
        t = mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0)
        c = mm.solve_phase_coeffs(k, t)
        mesh = mm.build_map(k, c, 1.0, 128)
        assert mesh.value(k.s1) == pytest.approx(t.y1, rel=0.01)
        assert mesh.value(k.s2) == pytest.approx(t.y2, rel=0.01)
        assert abs(mesh.value(k.s3) - t.y3) < 0.012 * c.a3

    def test_density_even_at_zero(self):
        k = mm.R_KNOTS
        c = mm.solve_phase_coeffs(k, mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0))
        s = np.linspace(1e-4, 0.2, 57)
        gap = np.abs(mm.density(s, k, c) - mm.density(-s, k, c))
        scale = max(c.a0, c.a1, c.a2, c.a3)
        assert gap.max() < 1e-13 * scale

    def test_density_even_at_one_without_outer_steps(self):
        # Evenness at s=1 is machine-exact when the steps at s2, s3 are
        # absent; an active far-field step leaves a residual ~ a3 * q'(1-s3).
        k = mm.R_KNOTS
        c = mm.DensityCoeffs(0.8, 1.0, 0.0, 0.0)
        s = np.linspace(1e-4, 0.05, 33)
        gap = np.abs(mm.density(1.0 - s, k, c) - mm.density(1.0 + s, k, c))
        assert gap.max() < 1e-15

    def test_nonpositive_density_rejected(self):
        with pytest.raises(NonPositiveDensity):
            mm.DensityCoeffs(0.0, -1.0, 0.0, 0.0)

    def test_inverse_roundtrip(self):
        mesh = gentle_mesh_r(128)
        s = np.linspace(0.0, 1.0, 211)
        assert np.abs(mesh.inverse(mesh.value(s)) - s).max() < 1e-13


def bisect_inverse(mesh, y, sweeps=60):
    """Oracle: plain bisection on the map value, independent of the cell table."""
    lo, hi = np.zeros_like(y), np.ones_like(y)
    for _ in range(sweeps):
        mid = 0.5 * (lo + hi)
        low = mesh.value(mid) < y
        lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
    return 0.5 * (lo + hi)


# Extreme fronts: phase 1 squeezed to ~1e-9 of the extent, for a soft and a
# sharp step exponent.
EXTREME_MAPS = [
    (knots, targets, L, b)
    for knots, targets, L in ((mm.R_KNOTS, mm.MeshTargets(1e-9, 5e-9, 1e-8, 1.0), 1.0),
                              (mm.Z_KNOTS, mm.MeshTargets(0.0, 1e-10, 1e-9, 0.5), 0.5))
    for b in (2, 60)
]


class TestInverse:
    @pytest.mark.parametrize("knots,targets,L,b", EXTREME_MAPS)
    def test_matches_bisection_oracle(self, knots, targets, L, b):
        mesh = mm.build_map(knots, mm.solve_phase_coeffs(knots, targets, b), L, 256)
        s = np.concatenate([np.random.default_rng(b).random(2000), mesh.nodes_s])
        y = mesh.value(s)
        got = mesh.inverse(y)
        assert np.abs(got - bisect_inverse(mesh, y)).max() < 1e-13
        assert np.abs(got - s).max() < 1e-13

    @pytest.mark.parametrize("knots,targets,L,b", EXTREME_MAPS)
    def test_cell_edges_and_ends(self, knots, targets, L, b):
        mesh = mm.build_map(knots, mm.solve_phase_coeffs(knots, targets, b), L, 256)
        edges = mesh._edges
        y = np.concatenate([mesh.value(edges), [0.0, L, L * (1.0 + 5e-10)]])
        expect = np.concatenate([edges, [0.0, 1.0, 1.0]])
        got = mesh.inverse(y)
        assert np.abs(got - bisect_inverse(mesh, y)).max() < 1e-13
        assert np.abs(got - expect).max() < 1e-13
        assert mesh.inverse(L * (1.0 + 5e-10)) == 1.0
        assert mesh.inverse(0.0) == 0.0

    def test_b_limit(self):
        # At b = MAX_B the inverse still matches bisection to 1e-13; above
        # it build_map refuses the map, naming b and the limit.
        knots, targets = mm.R_KNOTS, mm.MeshTargets(1e-9, 5e-9, 1e-8, 1.0)
        assert mm.MAX_B == 200
        mesh = mm.build_map(knots, mm.solve_phase_coeffs(knots, targets, 200), 1.0, 256)
        s = np.concatenate([np.random.default_rng(200).random(2000), mesh.nodes_s])
        y = mesh.value(s)
        assert np.abs(mesh.inverse(y) - bisect_inverse(mesh, y)).max() < 1e-13
        with pytest.raises(ValueError, match="b = 202 exceeds the limit 200"):
            mm.build_map(knots, mm.solve_phase_coeffs(knots, targets, 202), 1.0, 256)

    def test_scalar_and_array_returns(self):
        mesh = gentle_mesh_r(64)
        assert isinstance(mesh.inverse(0.3), float)
        assert mesh.inverse([0.3]).shape == (1,)

    @pytest.mark.parametrize("y", [-2e-9, 1.0 + 2e-9, [0.5, 1.1]])
    def test_out_of_domain(self, y):
        with pytest.raises(OutOfDomain):
            gentle_mesh_r(64).inverse(y)

    def test_density_evaluations_per_inverse(self, monkeypatch):
        # Work-count guard: three Newton steps, no bisection sweeps, and
        # each step takes P and P' from one density evaluation (a step
        # that calls value and deriv apart makes 6).
        mesh = gentle_mesh_r(256)
        y = mesh.nodes_y.copy()
        calls = []
        real = mm.density

        def density(s, knots, coeffs):
            calls.append(np.shape(s))
            return real(s, knots, coeffs)

        monkeypatch.setattr(mm, "density", density)
        mesh.inverse(y)
        assert calls == [(257, 7)] * 3


# The map formulas as they stood when every step of the density, and every
# map query, was evaluated on its own; kept as oracles, since evaluating
# them together must not change a single bit.

def _q_oracle(x, b):
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -1.0), 1.0)
    with np.errstate(divide="ignore"):
        w = b * np.log1p(x)
    return 1.0 / (1.0 + np.exp(-w))


def _dq_oracle(x, b):
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -1.0), 1.0)
    q = _q_oracle(x, b)
    out = np.zeros_like(q)
    inner = x > -1.0
    out[inner] = b / (1.0 + x[inner]) * q[inner] * (1.0 - q[inner])
    return out


def density_oracle(s, k, c):
    s = np.asarray(s, dtype=float)
    p = c.a1 + c.a2 * _q_oracle(s - k.s2, c.b) + c.a3 * _q_oracle(s - k.s3, c.b)
    if c.a0 != 0.0:
        p = p + c.a0 * (_q_oracle(k.s1 - s, c.b) + _q_oracle(k.s1 + s, c.b) - 1.0)
    return p


def density_deriv_oracle(s, k, c):
    s = np.asarray(s, dtype=float)
    dp = c.a2 * _dq_oracle(s - k.s2, c.b) + c.a3 * _dq_oracle(s - k.s3, c.b)
    if c.a0 != 0.0:
        dp = dp + c.a0 * (-_dq_oracle(k.s1 - s, c.b) + _dq_oracle(k.s1 + s, c.b))
    return dp


def value_oracle(edges, cum, rescale, k, c, s):
    s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, 1.0)
    j = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, len(edges) - 2)
    lo = edges[j]
    half = 0.5 * (s - lo)
    xq = lo[:, None] + half[:, None] * (mm._GAUSS_X + 1.0)
    part = (half[:, None] * mm._GAUSS_W * density_oracle(xq, k, c)).sum(axis=1)
    return rescale * (cum[j] + part)


def inverse_oracle(mesh, y):
    y = np.clip(np.atleast_1d(np.asarray(y, dtype=float)), 0.0, mesh.L)
    table = mesh._edge_y
    j = np.clip(np.searchsorted(table, y, side="right") - 1, 0, len(table) - 2)
    lo, hi = mesh._edges[j], mesh._edges[j + 1]
    s = lo + (hi - lo) * (y - table[j]) / (table[j + 1] - table[j])
    for _ in range(3):
        value = value_oracle(mesh._edges, mesh._cum, mesh.rescale, mesh.knots, mesh.coeffs, s)
        slope = mesh.rescale * density_oracle(s, mesh.knots, mesh.coeffs)
        s = np.clip(s - (value - y) / slope, lo, hi)
    return s


def build_oracle(k, c, L, n):
    """build_map's quadrature table and MeshMap's nodal caches."""
    breakpoints = [0.0, k.s1, k.s2, k.s3, 1.0]
    edges = np.concatenate([[0.0]] + [np.linspace(lo, hi, mm.CELLS_PER_PHASE + 1)[1:]
                                      for lo, hi in zip(breakpoints[:-1], breakpoints[1:])
                                      if hi > lo])
    widths = np.diff(edges)
    gx = edges[:-1, None] + np.outer(widths, 0.5 * (mm._GAUSS_X + 1.0))
    raw = np.outer(widths, 0.5 * mm._GAUSS_W) * density_oracle(gx, k, c)
    cum = np.concatenate([[0.0], np.cumsum(raw.sum(axis=1))])
    rescale = L / cum[-1]
    h, s = 1.0 / n, np.linspace(0.0, 1.0, n + 1)
    dy = rescale * density_oracle(s, k, c)
    d2y = rescale * density_deriv_oracle(s, k, c)
    return {"_cum": cum, "rescale": rescale,
            "nodes_y": value_oracle(edges, cum, rescale, k, c, s),
            "nodes_dy": dy, "nodes_d2y": d2y,
            "w_d1": 1.0 / (2.0 * h * dy), "w_d2": 1.0 / (h * dy) ** 2,
            "w_d2y": d2y / (2.0 * h * dy**3),
            "_knot_y": value_oracle(edges, cum, rescale, k, c, [k.s1, k.s2])}


SAME_NUMBER_MAPS = EXTREME_MAPS + [
    (mm.R_KNOTS, mm.MeshTargets(1e-9, 5e-9, 1e-8, 1.0), 1.0, 200),
    (mm.R_KNOTS, mm.MeshTargets(7e-5, 3.5e-4, 6e-4, 1.0), 1.0, 60),
    (mm.Z_KNOTS, mm.MeshTargets(0.0, 1.5e-5, 1.5e-4, 0.5), 0.5, 60),
]


class TestSameNumbers:
    @staticmethod
    def _mesh(knots, targets, L, b, n=256):
        return mm.build_map(knots, mm.solve_phase_coeffs(knots, targets, b), L, n)

    @pytest.mark.parametrize("knots,targets,L,b", SAME_NUMBER_MAPS)
    def test_density_matches_step_by_step(self, knots, targets, L, b):
        c = mm.solve_phase_coeffs(knots, targets, b)
        s = np.linspace(-0.2, 1.2, 1400).reshape(7, 200)
        with np.errstate(over="ignore"):  # exp(-w) at the far end of a b = 200 step
            assert np.array_equal(mm.density(s, knots, c), density_oracle(s, knots, c))
            assert np.array_equal(mm.density_deriv(s, knots, c),
                                  density_deriv_oracle(s, knots, c))
        assert mm.density(0.37, knots, c) == density_oracle(0.37, knots, c)

    @pytest.mark.parametrize("knots,targets,L,b", SAME_NUMBER_MAPS)
    def test_build_caches_match(self, knots, targets, L, b):
        for n in (64, 257):
            mesh = self._mesh(knots, targets, L, b, n)
            for name, want in build_oracle(knots, mesh.coeffs, L, n).items():
                assert np.array_equal(getattr(mesh, name), want), name

    @pytest.mark.parametrize("knots,targets,L,b", SAME_NUMBER_MAPS)
    def test_inverse_matches(self, knots, targets, L, b):
        mesh = self._mesh(knots, targets, L, b)
        s = np.concatenate([np.random.default_rng(b).random(2000), mesh.nodes_s, mesh._edges])
        y = np.concatenate([mesh.value(s), mesh._edge_y, [0.0, L, L * (1.0 + 5e-10)]])
        assert np.array_equal(mesh.inverse(y), inverse_oracle(mesh, y))
        assert np.array_equal(mesh.value(s), value_oracle(mesh._edges, mesh._cum, mesh.rescale,
                                                          knots, mesh.coeffs, s))
        for one in y[::397]:
            assert mesh.inverse(one) == inverse_oracle(mesh, one)[0]

    def test_shared_stencils_match_per_field(self, rng):
        # One stencil per axis, folded per parity, against each field's own.
        vals = [rng.standard_normal((49, 25)) for _ in range(4)]
        rho = np.concatenate([rng.random(40), [0.0, 1.0, 1.0 / 48, 47.0 / 48]])
        eta = np.concatenate([rng.random(30), [0.0, 1.0, 1.0 / 24, 23.0 / 24]])
        parities = [("odd", "even"), ("even", "odd"), ("even", "odd"), (None, None)]
        fields = [(v, pr, pz) for v, (pr, pz) in zip(vals, parities)]
        for got, (v, pr, pz) in zip(mm._evaluate_many(rho, eta, fields), fields):
            assert np.array_equal(got, ip4_oracle(v, rho, eta, pr, pz))
            assert np.array_equal(mm.evaluate_ip4(v, rho, eta, pr, pz), got)


class TestDeriveTargets:
    @staticmethod
    def _bump_field(mesh_r, mesh_z, R, Z, wr, wz):
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        return np.exp(-((r - R) / wr) ** 2) * np.exp(-((z - Z) / wz) ** 2)

    def test_radial_formulas(self):
        # R = 2e-4, R_r = 1.5e-4 -> d_r = 5e-5 -> (7e-5, 3.5e-4, 6e-4).
        R, Rr, Z = 2e-4, 1.5e-4, 1e-5
        d = R - Rr
        r2 = R + 3 * d
        r1 = max(Rr - 4 * d, 0.2 * r2)
        r3 = max(3 * R, r2 + (0.35 / 0.4) * (r2 - r1))
        assert (r1, r2, r3) == pytest.approx((7e-5, 3.5e-4, 6e-4))

    def test_radial_targets_from_synthetic_front(self):
        # Gaussian bump: u1_r peaks at R - w/sqrt(2), so d_r = w/sqrt(2).
        mesh_r = mm.build_map(
            mm.R_KNOTS, mm.solve_phase_coeffs(mm.R_KNOTS, mm.MeshTargets(1e-3, 4e-3, 1.2e-2, 1.0)),
            1.0, 768)
        mesh_z = mm.build_map(
            mm.Z_KNOTS, mm.solve_phase_coeffs(mm.Z_KNOTS, mm.MeshTargets(0.0, 6e-4, 6e-3, 0.5)),
            0.5, 384)
        R, Z, w = 2e-3, 3e-4, 4e-4
        u1 = self._bump_field(mesh_r, mesh_z, R, Z, w, 2e-4)
        d_r = w / np.sqrt(2.0)
        t, tz = mm.derive_targets(u1, mesh_r, mesh_z)
        assert t.y2 == pytest.approx(R + 3 * d_r, rel=0.02)
        assert t.y1 == pytest.approx(R - d_r - 4 * d_r, rel=0.05)
        assert tz.y1 == 0.0
        assert tz.y2 == pytest.approx(1.5 * Z, rel=0.02)
        assert tz.y3 == pytest.approx(15.0 * Z, rel=0.02)

    def test_degenerate_profile(self):
        # Monotone-increasing-in-r field: gradient max sits right of the peak.
        mesh_r = identity_mesh_r(64)
        mesh_z = identity_mesh_z(32)
        r = mesh_r.nodes_y[:, None]
        z = mesh_z.nodes_y[None, :]
        u1 = r ** 2 * np.sin(2 * np.pi * z)
        with pytest.raises(DegenerateProfile):
            mm.profile_features(u1, mesh_r, mesh_z)


class TestNeedsUpdate:
    def _meshes_for(self, u1_builder, R, Z, wr, wz, n=512, m=256):
        coarse_r = identity_mesh_r(n)
        coarse_z = identity_mesh_z(m)
        u1 = u1_builder(coarse_r, coarse_z, R, Z, wr, wz)
        return mm.build_pair(*mm.derive_targets(u1, coarse_r, coarse_z), n, m)

    def test_fresh_mesh_is_adequate(self):
        build = TestDeriveTargets._bump_field
        R, Z, wr, wz = 2e-2, 4e-3, 6e-3, 2e-3
        mesh_r, mesh_z = self._meshes_for(build, R, Z, wr, wz)
        u1 = build(mesh_r, mesh_z, R, Z, wr, wz)
        flag, reason = mm.needs_update(u1, mesh_r, mesh_z)
        assert not flag and reason is None

    def test_front_escape_triggers(self):
        build = TestDeriveTargets._bump_field
        R, Z, wr, wz = 2e-2, 4e-3, 6e-3, 2e-3
        mesh_r, mesh_z = self._meshes_for(build, R, Z, wr, wz)
        # Move the front left past the phase-1 boundary.
        u1 = build(mesh_r, mesh_z, 0.25 * R, Z, wr, wz)
        flag, reason = mm.needs_update(u1, mesh_r, mesh_z)
        assert flag and reason == "front_r"

    def test_point_count_triggers(self):
        build = TestDeriveTargets._bump_field
        R, Z, wr, wz = 2e-2, 4e-3, 6e-3, 2e-3
        mesh_r, mesh_z = self._meshes_for(build, R, Z, wr, wz)
        # Same front location but a much smaller feature width.
        u1 = build(mesh_r, mesh_z, R, Z, wr / 24.0, wz)
        flag, reason = mm.needs_update(u1, mesh_r, mesh_z)
        assert flag and reason in ("points_r", "front_r")

    def test_monotone_under_shrinking_z(self):
        # Once the axial point count drops below threshold it stays below
        # as Z keeps shrinking on the frozen mesh.
        build = TestDeriveTargets._bump_field
        R, wr = 2e-2, 6e-3
        mesh_r, mesh_z = self._meshes_for(build, R, 4e-3, wr, 2e-3)
        state = False
        for Z in np.geomspace(4e-3, 1e-4, 12):
            u1 = build(mesh_r, mesh_z, R, Z, wr, Z / 2.0)
            flag, _ = mm.needs_update(u1, mesh_r, mesh_z)
            assert flag or not state
            state = state or flag
        assert state


class TestInterpolateIP4:
    def test_same_mesh_reproduces_nodes(self):
        mesh_r = gentle_mesh_r(48)
        mesh_z = gentle_mesh_z(24)
        rho = mesh_r.nodes_s[:, None]
        eta = mesh_z.nodes_s[None, :]
        f = rho ** 3 * eta ** 2
        out = mm.interpolate_ip4(f, mesh_r, mesh_z, mesh_r, mesh_z)
        assert np.abs(out - f).max() < 1e-13

    def test_bicubic_exactness_across_meshes(self):
        src_r, src_z = identity_mesh_r(40), identity_mesh_z(20)
        dst_r, dst_z = gentle_mesh_r(56), gentle_mesh_z(28)
        # Cubic in the *source computational* coordinates = cubic in (r, z)
        # here because the source maps are affine.
        f = lambda r, z: (2 * r ** 3 - r + 0.5) * (z ** 3 - 3 * z ** 2 + 2)
        src = f(src_r.nodes_y[:, None], src_z.nodes_y[None, :])
        expect = f(dst_r.nodes_y[:, None], dst_z.nodes_y[None, :])
        out = mm.interpolate_ip4(src, src_r, src_z, dst_r, dst_z)
        assert np.abs(out - expect).max() < 1e-12 * np.abs(expect).max()

    def test_fourth_order_refinement(self):
        # Oracle: halving h must cut the sup error by ~2^4.
        dst_r, dst_z = gentle_mesh_r(64), gentle_mesh_z(32)
        expect = np.sin(2 * np.pi * dst_r.nodes_y)[:, None] * np.cos(
            2 * np.pi * dst_z.nodes_y)[None, :]
        errs = []
        for m in (20, 40):
            src_r, src_z = identity_mesh_r(2 * m), identity_mesh_z(m)
            src = np.sin(2 * np.pi * src_r.nodes_y)[:, None] * np.cos(
                2 * np.pi * src_z.nodes_y)[None, :]
            out = mm.interpolate_ip4(src, src_r, src_z, dst_r, dst_z)
            errs.append(np.abs(out - expect).max())
        ratio = errs[0] / errs[1]
        assert 10.0 < ratio < 26.0

    def test_parity_ghosts_preserve_symmetric_fields(self):
        # Even-in-rho, odd-in-eta data interpolated with parity ghosts stays
        # exact for a field that is cubic inside and symmetric at the ends.
        src_r, src_z = identity_mesh_r(32), identity_mesh_z(16)
        dst_r, dst_z = identity_mesh_r(48), identity_mesh_z(24)
        f = lambda r, z: np.cos(np.pi * r)[:, None] * np.sin(2 * np.pi * z)[None, :]
        src = f(src_r.nodes_y, src_z.nodes_y)
        out = mm.interpolate_ip4(src, src_r, src_z, dst_r, dst_z,
                                 parity_r="even", parity_z="odd")
        expect = f(dst_r.nodes_y, dst_z.nodes_y)
        assert np.abs(out - expect).max() < 2e-4  # smooth-field 4th-order level

    def test_mismatched_extent_rejected(self):
        src_r, src_z = identity_mesh_r(16), identity_mesh_z(8)
        bad_z = mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 1.0, 0.0, 0.0), 1.0, 8)
        with pytest.raises(OutOfDomain):
            mm.interpolate_ip4(np.zeros((17, 9)), src_r, src_z, src_r, bad_z)

    def test_sample_is_pull_back_then_evaluation(self, rng):
        src_r, src_z = gentle_mesh_r(48), gentle_mesh_z(24)
        vals = rng.standard_normal((49, 25))
        r_pts, z_pts = rng.random(37), 0.5 * rng.random(23)
        rho, eta = mm.pull_back(src_r, src_z, r_pts, z_pts)
        for parity in ((None, None), ("even", "odd"), ("odd", "even")):
            assert np.array_equal(mm.sample_ip4(vals, src_r, src_z, r_pts, z_pts, *parity),
                                  mm.evaluate_ip4(vals, rho, eta, *parity))


class TestDumpParse:
    def test_roundtrip(self):
        mesh = gentle_mesh_r(37)
        text = mm.dump_mesh(mesh)
        back = mm.parse_mesh(text)
        assert back.n == mesh.n
        assert back.L == mesh.L
        assert np.array_equal(back.nodes_y, mesh.nodes_y)
        assert back.rescale == mesh.rescale
