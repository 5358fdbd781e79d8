"""Analytic adaptive mesh maps.

The computational square [0,1]^2 is mapped onto the physical cross-section
[0,1] x [0,L_z] by a pair of monotone analytic maps r(rho), z(eta).  Each
map is the antiderivative of a density built from sharp sigmoid steps,

    p(s) = a1 + a2*q_b(s - s2) + a3*q_b(s - s3)
              + a0*(q_b(s1 - s) + q_b(s1 + s) - 1),

so that the mesh concentrates points in up to four phases (inner gap,
singular front, traveling-wave body, far field) whose physical extents
track the solution.  For large even b the step q_b is close to an
indicator, which makes the phase-coefficient solve a small closed-form
linear problem, while p stays analytic and (to ~1e-13) even at s=0 and
s=1 so fields extend smoothly across the symmetry planes.

Map queries are bound by call overhead, not arithmetic, so each one
evaluates the density once: the steps of all its points are stacked into
one q_b call, and a Newton step of the inverse takes P (6-point Gauss rule)
and P' = p from the same call.  Fields interpolated at one pull-back share
its cubic stencils.  Each fused path rounds exactly as the separate calls
it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProfile, NonPositiveDensity, OutOfDomain
from .fields import _difference

DEFAULT_B = 60

# Fixed phase breakpoints of the computational coordinate.  The z map uses
# s1 = 0: no inner-gap phase in the axial direction.
R_KNOTS: "PhaseKnots"
Z_KNOTS: "PhaseKnots"

# Quadrature cells per phase of build_map; they resolve a density step, as
# MeshMap.inverse needs, up to b = MAX_B (at b = 600 it is off by 3.4e-7).
CELLS_PER_PHASE = 96
MAX_B = 200

# Minimum number of grid points that must cover the feature intervals
# [R_r, R] and [0, Z] before a mesh rebuild is triggered.
MIN_POINTS_R = 16
MIN_POINTS_Z = 16

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
_GAUSS_X1 = _GAUSS_X + 1.0


@dataclass(frozen=True)
class PhaseKnots:
    """Phase breakpoints 0 <= s1 < s2 < s3 < 1 of the computational axis."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not (0.0 <= self.s1 < self.s2 < self.s3 < 1.0):
            raise ValueError(f"knots must satisfy 0 <= s1 < s2 < s3 < 1, got {self}")


R_KNOTS = PhaseKnots(0.1, 0.5, 0.85)
Z_KNOTS = PhaseKnots(0.0, 0.3, 0.85)


@dataclass(frozen=True)
class DensityCoeffs:
    """Density magnitudes (physical length per unit computational length)."""

    a0: float
    a1: float
    a2: float
    a3: float
    b: int = DEFAULT_B

    def __post_init__(self):
        if min(self.a0, self.a1, self.a2, self.a3) < 0.0 or self.a1 <= 0.0:
            raise NonPositiveDensity(
                f"density coefficients must be nonnegative with a1 > 0, got {self}"
            )
        if self.b < 2 or self.b % 2 != 0:
            raise ValueError(f"sharpness exponent b must be even and >= 2, got b={self.b}")


@dataclass(frozen=True)
class MeshTargets:
    """Physical phase-boundary coordinates 0 <= y1 <= y2 <= y3 <= L."""

    y1: float
    y2: float
    y3: float
    L: float


def eval_q(x, b: int = DEFAULT_B):
    """Sigmoid step q_b(x) = (1+x)^b / (1 + (1+x)^b) on [-1, 1].

    Monotone increasing, q_b(-1) = 0, q_b(0) = 1/2, q_b(1) ~ 1.  Computed
    through b*log1p(x) so large b cannot overflow.
    """
    if b < 2 or b % 2 != 0:
        raise ValueError(f"b must be even and >= 2, got {b}")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("eval_q argument outside [-1, 1]; clamp or reject upstream")
    return _q_raw(x, b)[()]


def _q_raw(x, b, deriv=False):
    # x is clamped to [-1, 1]; at x = -1 the log is -inf and q is exactly 0.
    x = np.minimum(np.maximum(np.asarray(x, dtype=float), -1.0), 1.0)
    with np.errstate(divide="ignore"):
        w = b * np.log1p(x)
    q = 1.0 / (1.0 + np.exp(-w))
    if not deriv:
        return q
    # q' = b/(1+x) * q * (1-q) from the same q; it vanishes at both
    # saturation ends.
    with np.errstate(divide="ignore", invalid="ignore"):
        return q, np.where(x > -1.0, b / (1.0 + x) * q * (1.0 - q), 0.0)


def _step_args(s, knots: PhaseKnots, coeffs: DensityCoeffs):
    """The arguments s - s2, s - s3 (and, with an inner gap, s1 - s and
    s1 + s) of the density's steps, stacked on a new leading axis so that
    one _q_raw call evaluates every step."""
    s = np.asarray(s, dtype=float)
    x = np.empty((4 if coeffs.a0 != 0.0 else 2,) + s.shape)
    np.subtract(s, knots.s2, out=x[0, ...])
    np.subtract(s, knots.s3, out=x[1, ...])
    if coeffs.a0 != 0.0:
        np.subtract(knots.s1, s, out=x[2, ...])
        np.add(knots.s1, s, out=x[3, ...])
    return x


def _p_from_steps(q, coeffs: DensityCoeffs):
    p = coeffs.a1 + coeffs.a2 * q[0] + coeffs.a3 * q[1]
    if coeffs.a0 != 0.0:
        p = p + coeffs.a0 * (q[2] + q[3] - 1.0)
    return p


def _dp_from_steps(dq, coeffs: DensityCoeffs):
    dp = coeffs.a2 * dq[0] + coeffs.a3 * dq[1]
    if coeffs.a0 != 0.0:
        dp = dp + coeffs.a0 * (-dq[2] + dq[3])
    return dp


def density(s, knots: PhaseKnots, coeffs: DensityCoeffs):
    """Evaluate the phase density p(s) (q arguments clamped to [-1, 1])."""
    return _p_from_steps(_q_raw(_step_args(s, knots, coeffs), coeffs.b), coeffs)


def density_deriv(s, knots: PhaseKnots, coeffs: DensityCoeffs):
    """dp/ds, analytic (used for the second derivative of the map)."""
    return _dp_from_steps(_q_raw(_step_args(s, knots, coeffs), coeffs.b, deriv=True)[1], coeffs)


def _density_and_deriv(s, knots: PhaseKnots, coeffs: DensityCoeffs):
    """p(s) and dp/ds from one evaluation of the steps."""
    q, dq = _q_raw(_step_args(s, knots, coeffs), coeffs.b, deriv=True)
    return _p_from_steps(q, coeffs), _dp_from_steps(dq, coeffs)


def solve_phase_coeffs(knots: PhaseKnots, targets: MeshTargets, b: int = DEFAULT_B) -> DensityCoeffs:
    """Solve the ideal piecewise-constant density for the phase targets.

    Treating q_b as an indicator, requiring the map to hit (y1, y2, y3, L)
    at (s1, s2, s3, 1) gives a triangular linear system with the closed
    form below.  Negative coefficients mean the targets violate the
    geometric constraints and are rejected.
    """
    s1, s2, s3 = knots.s1, knots.s2, knots.s3
    y1, y2, y3, L = targets.y1, targets.y2, targets.y3, targets.L
    if s1 == 0.0:
        if y1 != 0.0:
            raise NonPositiveDensity("three-phase map (s1 = 0) requires y1 = 0")
        a1 = y2 / s2
        a0 = 0.0
    else:
        a1 = (y2 - y1) / (s2 - s1)
        a0 = y1 / s1 - a1
    a2 = (y3 - y2) / (s3 - s2) - a1
    a3 = (L - y3) / (1.0 - s3) - (y3 - y2) / (s3 - s2)
    # Targets sitting exactly on a constraint boundary (e.g. the clamped
    # r1 = (s1/s2) r2 configuration, where a0 and a2 vanish identically)
    # produce coefficients that are zero up to round-off; clamp those.
    tol = 1e-12 * max(a1, abs(a0), abs(a2), abs(a3))
    cleaned = [0.0 if -tol <= v < 0.0 else v for v in (a0, a1, a2, a3)]
    for name, val in zip(("a0", "a1", "a2", "a3"), cleaned):
        if val < 0.0:
            raise NonPositiveDensity(
                f"{name} = {val:.6g} < 0 for targets {targets} with knots {knots}"
            )
    if cleaned[1] <= 0.0:
        raise NonPositiveDensity(f"a1 = {cleaned[1]:.6g} must be positive")
    return DensityCoeffs(*cleaned, b)


class MeshMap:
    """One monotone analytic map from [0,1] onto [0,L].

    Construct with :func:`build_map`.  The antiderivative of the density is
    evaluated by composite Gauss-Legendre quadrature on subcells aligned to
    the phase knots, accurate to ~1e-13 relative; the density itself (and
    its derivative) are analytic, so the metric terms dy/ds and d2y/ds2
    carry no discretization error.
    """

    def __init__(self, knots, coeffs, L, n, rescale, cell_edges, cum):
        self.knots = knots
        self.coeffs = coeffs
        self.L = float(L)
        self.n = int(n)
        self.rescale = float(rescale)
        self._edges = cell_edges
        self._cum = cum
        # The map is exact at the cell edges: P(_edges) = _edge_y.
        self._edge_y = self.rescale * cum
        # Nodal caches for the uniform computational grid, and the map at
        # the knots s1 and s2 (read by needs_update), from one evaluation
        # of the density and its derivative.
        self.h = 1.0 / self.n
        self.nodes_s = np.linspace(0.0, 1.0, self.n + 1)
        s = np.concatenate([self.nodes_s, [knots.s1, knots.s2]])
        j, half, x = self._gauss_points(s, with_point=True)
        p, dp = _density_and_deriv(x, knots, coeffs)
        y, n1 = self._integral(j, half, p), self.n + 1
        self.nodes_y, self._knot_y = y[:n1], y[n1:]
        self.nodes_dy = self.rescale * p[:n1, 6]
        self.nodes_d2y = self.rescale * dp[:n1, 6]
        # Metric folded into centered-difference weights (see fields).
        self.w_d1 = 1.0 / (2.0 * self.h * self.nodes_dy)
        self.w_d2 = 1.0 / (self.h * self.nodes_dy) ** 2
        self.w_d2y = self.nodes_d2y / (2.0 * self.h * self.nodes_dy**3)

    def _gauss_points(self, s, with_point):
        """Quadrature of P at each s of a 1-D array in [0, 1]: the cell j
        holding s, half the width of [edge_j, s], and that interval's 6
        Gauss points as the rows of x; ``with_point`` appends s itself as
        a 7th column, so one density call also gives P'(s)."""
        # s >= 0 = _edges[0] puts j >= 0; s = 1 belongs to the last cell.
        j = np.minimum(np.searchsorted(self._edges, s, side="right") - 1, len(self._edges) - 2)
        lo = self._edges[j]
        half = 0.5 * (s - lo)
        x = np.empty((len(s), 7 if with_point else 6))
        x[:, :6] = lo[:, None] + half[:, None] * _GAUSS_X1
        if with_point:
            x[:, 6] = s
        return j, half, x

    def _integral(self, j, half, p):
        """P(s) from the density p at the Gauss points of _gauss_points."""
        return self.rescale * (self._cum[j] + (half[:, None] * _GAUSS_W * p[:, :6]).sum(axis=1))

    def _value_and_deriv(self, s):
        """P(s) and P'(s) for a 1-D array s in [0, 1], from one density call."""
        j, half, x = self._gauss_points(s, with_point=True)
        p = density(x, self.knots, self.coeffs)
        return self._integral(j, half, p), self.rescale * p[:, 6]

    def deriv(self, s):
        return self.rescale * density(s, self.knots, self.coeffs)

    def deriv2(self, s):
        return self.rescale * density_deriv(s, self.knots, self.coeffs)

    def value(self, s):
        """Map value P(s) = rescale * int_0^s p, vectorized."""
        scalar = np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
            raise OutOfDomain("map argument outside [0, 1]")
        j, half, x = self._gauss_points(np.clip(s, 0.0, 1.0), with_point=False)
        out = self._integral(j, half, density(x, self.knots, self.coeffs))
        return float(out[0]) if scalar else out

    def inverse(self, y):
        """Preimage s = P^{-1}(y), vectorized.

        Each y is bracketed in its quadrature cell by the monotone edge
        table, started at the cell's linear interpolant and polished by
        three Newton steps on the analytic density, each clipped to the
        cell.  Each step takes P and P' from one density evaluation on
        the 6 Gauss points and the point.  This relies on cells much
        narrower than the 1/b width of a density step, which build_map's
        CELLS_PER_PHASE cells give up to b = MAX_B: there two steps leave
        ~1e-10 and the third reaches round-off.
        """
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        tol = 1e-9 * self.L
        if (y < -tol).any() or (y > self.L + tol).any():
            raise OutOfDomain("inverse-map argument outside [0, L]")
        y = np.clip(y, 0.0, self.L)
        table = self._edge_y
        j = np.minimum(np.searchsorted(table, y, side="right") - 1, len(table) - 2)
        lo, hi = self._edges[j], self._edges[j + 1]
        s = lo + (hi - lo) * (y - table[j]) / (table[j + 1] - table[j])
        for _ in range(3):
            # A step may land on the cell's right edge, which belongs to
            # the next cell: _value_and_deriv re-brackets s as value() does.
            # The clip calls the ufuncs directly: np.clip's Python-level
            # argument checks are a large share of a one-point step.
            value, slope = self._value_and_deriv(s)
            s = np.minimum(np.maximum(s - (value - y) / slope, lo), hi)
        return float(s[0]) if scalar else s


def build_map(knots: PhaseKnots, coeffs: DensityCoeffs, L: float, n: int) -> MeshMap:
    """Build a MeshMap, rescaling the density so the endpoint hits L exactly.

    Quadrature subcells are aligned to the phase knots; CELLS_PER_PHASE
    subcells per phase keep the cell width well under the 1/b transition
    width of the sigmoid steps (for b <= MAX_B, else ValueError), so the
    composite 6-point rule resolves P to ~1e-13.
    """
    if coeffs.b > MAX_B:
        raise ValueError(f"sharpness exponent b = {coeffs.b} exceeds the limit {MAX_B}")
    breakpoints = [0.0, knots.s1, knots.s2, knots.s3, 1.0]
    edges = [np.array([0.0])]
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi > lo:
            edges.append(np.linspace(lo, hi, CELLS_PER_PHASE + 1)[1:])
    cell_edges = np.concatenate(edges)

    # One density call serves the positivity probe and the cell quadrature.
    probe = np.linspace(0.0, 1.0, 4097)
    widths = np.diff(cell_edges)
    gx = cell_edges[:-1, None] + np.outer(widths, 0.5 * _GAUSS_X1)
    p = density(np.concatenate([probe, gx.ravel()]), knots, coeffs)
    pmin = p[:probe.size].min()
    if pmin <= 0.0:
        raise NonPositiveDensity(f"density minimum {pmin:.6g} <= 0")
    raw = np.outer(widths, 0.5 * _GAUSS_W) * p[probe.size:].reshape(gx.shape)
    cum = np.concatenate([[0.0], np.cumsum(raw.sum(axis=1))])
    total = cum[-1]
    if total <= 0.0:
        raise NonPositiveDensity("density integrates to a non-positive length")
    return MeshMap(knots, coeffs, L, n, L / total, cell_edges, cum)


@dataclass(frozen=True)
class ProfileFeatures:
    """Front location data extracted from a swirl field u1 on a mesh pair."""

    R: float
    Z: float
    R_r: float
    d_r: float
    i_peak: int
    j_peak: int


def refine_peak_parabolic(v3, x0: float, h: float) -> float:
    """Vertex abscissa of the parabola through three equispaced samples.

    ``v3`` holds (f(x0-h), f(x0), f(x0+h)); falls back to x0 when the
    samples are not locally concave.
    """
    denom = v3[0] - 2.0 * v3[1] + v3[2]
    if denom >= 0.0:
        return x0
    shift = 0.5 * (v3[0] - v3[2]) / denom
    return x0 + h * float(np.clip(shift, -0.5, 0.5))


def profile_features(u1: np.ndarray, mesh_r: MeshMap, mesh_z: MeshMap) -> ProfileFeatures:
    """Locate the maximum (R, Z) of u1 and the max-gradient point R_r.

    R_r is the argmax of u1_r on the cross-section through the peak row;
    the peak and R_r are refined off-node by 3-point parabolic fits in the
    computational coordinate.  Raises DegenerateProfile when the gradient
    maximum is not strictly left of the peak (d_r <= 0).
    """
    u1 = np.asarray(u1)
    i0, j0 = np.unravel_index(int(np.argmax(u1)), u1.shape)
    n, m = mesh_r.n, mesh_z.n

    rho = mesh_r.nodes_s[i0]
    if 0 < i0 < n:
        rho = refine_peak_parabolic(u1[i0 - 1:i0 + 2, j0], rho, mesh_r.h)
    eta = mesh_z.nodes_s[j0]
    if 0 < j0 < m:
        eta = refine_peak_parabolic(u1[i0, j0 - 1:j0 + 2], eta, mesh_z.h)
    Z = float(mesh_z.value(eta))

    # u1_r on the peak row, even at the axis and walled.  Dividing by 2h and
    # dy, not multiplying by w_d1, keeps the rounding the rebuilt maps see.
    u1_r = _difference(u1[:, j0], 0, "even", None, np.empty(n + 1))
    u1_r /= 2.0 * mesh_r.h
    u1_r /= mesh_r.nodes_dy

    ir = int(np.argmax(u1_r))
    rho_r = mesh_r.nodes_s[ir]
    if 0 < ir < n:
        rho_r = refine_peak_parabolic(u1_r[ir - 1:ir + 2], rho_r, mesh_r.h)
    R, R_r = (float(y) for y in mesh_r.value(np.array([rho, rho_r])))

    d_r = R - R_r
    if d_r <= 0.0:
        raise DegenerateProfile(
            f"max-gradient point R_r = {R_r:.6g} is not left of the peak R = {R:.6g}"
        )
    return ProfileFeatures(R, Z, R_r, d_r, int(i0), int(j0))


def targets_from_features(f: ProfileFeatures, axis: str) -> MeshTargets:
    """Phase targets for a located front, for axis 'r' or 'z'.

    Radial: phase 1 covers [R_r - 4 d_r, R + 3 d_r] around the front and
    phase 2 extends to 3R (or preserves the phase-1 density if that is
    wider).  Axial: phase 1 covers [0, 1.5 Z], phase 2 extends to 15 Z.
    """
    if axis == "r":
        k = R_KNOTS
        r2 = f.R + 3.0 * f.d_r
        r1 = max(f.R_r - 4.0 * f.d_r, (k.s1 / k.s2) * r2)
        r3 = max(3.0 * f.R, r2 + (k.s3 - k.s2) / (k.s2 - k.s1) * (r2 - r1))
        return MeshTargets(r1, r2, r3, 1.0)
    if axis == "z":
        return MeshTargets(0.0, 1.5 * f.Z, 15.0 * f.Z, 0.5)
    raise ValueError(f"axis must be 'r' or 'z', got {axis!r}")


def derive_targets(u1: np.ndarray, mesh_r: MeshMap, mesh_z: MeshMap):
    """Radial and axial phase targets adapted to the current solution on its
    mesh pair, from one front location."""
    f = profile_features(u1, mesh_r, mesh_z)
    return targets_from_features(f, "r"), targets_from_features(f, "z")


def build_pair(targets_r: MeshTargets, targets_z: MeshTargets, n: int, m: int):
    """The radial map (n cells onto [0, 1]) and the axial map (m cells onto
    [0, 1/2]) that hit a pair of phase targets."""
    return (build_map(R_KNOTS, solve_phase_coeffs(R_KNOTS, targets_r), 1.0, n),
            build_map(Z_KNOTS, solve_phase_coeffs(Z_KNOTS, targets_z), 0.5, m))


def needs_update(u1: np.ndarray, mesh_r: MeshMap, mesh_z: MeshMap):
    """Check the mesh-rebuild criteria against the current solution.

    Returns (flag, reason) with reason one of 'front_r', 'front_z',
    'points_r', 'points_z' or None.  Triggers when the singular region
    leaves phase 1 in either direction, or when the number of grid points
    across [R_r, R] or [0, Z] drops below its threshold.
    """
    f = profile_features(u1, mesh_r, mesh_z)
    r_lo, r_hi = float(mesh_r._knot_y[0]), float(mesh_r._knot_y[1])
    if mesh_r.coeffs.a0 <= 1e-9 * mesh_r.coeffs.a1:
        # Clamped build (r1 = (s1/s2) r2): the inner gap carries phase-1
        # density, so the resolved region extends all the way to the axis.
        r_lo = 0.0
    if f.R_r - f.d_r < r_lo or f.R + f.d_r > r_hi:
        return True, "front_r"
    z_hi = float(mesh_z._knot_y[1])
    if 1.5 * f.Z > z_hi:
        return True, "front_z"
    ry = mesh_r.nodes_y
    if int(np.count_nonzero((ry >= f.R_r) & (ry <= f.R))) < MIN_POINTS_R:
        return True, "points_r"
    zy = mesh_z.nodes_y
    if int(np.count_nonzero(zy <= f.Z)) < MIN_POINTS_Z:
        return True, "points_z"
    return False, None


def _cubic_stencil(q, n: int, inward_left: bool, inward_right: bool):
    """Piecewise-cubic Lagrange stencils on the uniform grid {i/n}.

    Returns (idx, w) of shape (len(q), 4).  Stencils are centered on the
    containing interval; at an ``inward`` end they shift inside the grid,
    at the other end they may reach the ghost nodes -1 or n + 1, which
    _parity_fold maps back.
    """
    h = 1.0 / n
    t = np.asarray(q, dtype=float) / h
    j = np.minimum(np.maximum(np.floor(t).astype(int), 0), n - 1)
    base = j - 1
    if inward_left:
        base = np.maximum(base, 0)
    if inward_right:
        base = np.minimum(base, n - 3)
    u = t - base
    w = np.empty((len(t), 4))
    w[:, 0] = -(u - 1.0) * (u - 2.0) * (u - 3.0) / 6.0
    w[:, 1] = u * (u - 2.0) * (u - 3.0) / 2.0
    w[:, 2] = -u * (u - 1.0) * (u - 3.0) / 2.0
    w[:, 3] = u * (u - 1.0) * (u - 2.0) / 6.0
    return base[:, None] + np.arange(4)[None, :], w


def _parity_fold(idx, w, n: int, parity_left, parity_right):
    """Fold the ghost nodes of a stencil back onto the grid with the parity
    sign of their end (parity None: the stencil was shifted inward)."""
    if parity_left is not None:
        neg = idx < 0
        if neg.any():
            idx = np.where(neg, -idx, idx)
            if parity_left == "odd":
                w = np.where(neg, -w, w)
    if parity_right is not None:
        over = idx > n
        if over.any():
            idx = np.where(over, 2 * n - idx, idx)
            if parity_right == "odd":
                w = np.where(over, -w, w)
    return idx, w


def _axis_weights(q, n: int, ends):
    """Folded stencils of one axis for each (parity_left, parity_right) in
    ``ends``; the stencil itself is computed once per end rule."""
    stencils, out = {}, {}
    for left, right in ends:
        rule = (left is None, right is None)
        if rule not in stencils:
            stencils[rule] = _cubic_stencil(q, n, *rule)
        out[left, right] = _parity_fold(*stencils[rule], n, left, right)
    return out


def _tensor_eval(values, idx_r, w_r, idx_z, w_z):
    tmp = np.einsum("qk,qkj->qj", w_r, values[idx_r, :])
    return np.einsum("pk,qpk->qp", w_z, tmp[:, idx_z])


def _evaluate_many(rho, eta, fields):
    """:func:`evaluate_ip4` of every (values, parity_r, parity_z) of
    ``fields``, all on one grid, at one pull-back (rho, eta).

    The stencils of each axis are computed once and folded once per
    parity, not once per field.
    """
    n, m = fields[0][0].shape[0] - 1, fields[0][0].shape[1] - 1
    w_r = _axis_weights(rho, n, {(pr, None) for _, pr, _ in fields})
    w_z = _axis_weights(eta, m, {(pz, pz) for _, _, pz in fields})
    return [_tensor_eval(v, *w_r[pr, None], *w_z[pz, pz]) for v, pr, pz in fields]


def pull_back(src_r: MeshMap, src_z: MeshMap, r_pts, z_pts):
    """Computational coordinates (rho, eta) of physical points on a mesh pair.

    One pull-back serves every field sampled at the same points; see
    :func:`evaluate_ip4`.
    """
    return src_r.inverse(np.atleast_1d(r_pts)), src_z.inverse(np.atleast_1d(z_pts))


def pull_back_nodes(src_r: MeshMap, src_z: MeshMap, dst_r: MeshMap, dst_z: MeshMap):
    """Pull the nodes of a destination pair back onto a source pair."""
    if not np.isclose(src_r.L, dst_r.L) or not np.isclose(src_z.L, dst_z.L):
        raise OutOfDomain("source and destination maps must cover the same extent")
    return pull_back(src_r, src_z, dst_r.nodes_y, dst_z.nodes_y)


def evaluate_ip4(values: np.ndarray, rho, eta, parity_r=None, parity_z=None) -> np.ndarray:
    """Interpolate nodal values at the tensor product of computational points.

    ``values`` lives on the uniform (n+1) x (m+1) grid.  Tensor-product
    piecewise-cubic Lagrange stencils are exact on bicubics.  Ghost
    values at rho = 0 and both eta ends follow the declared parity; the
    rho = 1 end always shifts the stencil inward.
    """
    return _evaluate_many(rho, eta, [(values, parity_r, parity_z)])[0]


def sample_ip4(values: np.ndarray, src_r: MeshMap, src_z: MeshMap,
               r_pts, z_pts, parity_r=None, parity_z=None) -> np.ndarray:
    """Sample a gridded field at the tensor product of physical points."""
    return evaluate_ip4(values, *pull_back(src_r, src_z, r_pts, z_pts), parity_r, parity_z)


def interpolate_ip4(values: np.ndarray, src_r: MeshMap, src_z: MeshMap,
                    dst_r: MeshMap, dst_z: MeshMap,
                    parity_r=None, parity_z=None) -> np.ndarray:
    """Move a field between meshes (4th-order accurate on smooth fields)."""
    return evaluate_ip4(values, *pull_back_nodes(src_r, src_z, dst_r, dst_z),
                        parity_r, parity_z)


def dump_mesh(mesh: MeshMap) -> str:
    """Plain-text mesh dump: parameter header plus one node coordinate per line."""
    lines = [
        "# axiblow mesh map",
        f"knots: {mesh.knots.s1:.17g} {mesh.knots.s2:.17g} {mesh.knots.s3:.17g}",
        "coeffs: " + " ".join(f"{a:.17g}" for a in
                              (mesh.coeffs.a0, mesh.coeffs.a1, mesh.coeffs.a2, mesh.coeffs.a3)),
        f"b: {mesh.coeffs.b}",
        f"L: {mesh.L:.17g}",
        f"rescale: {mesh.rescale:.17g}",
        f"n: {mesh.n}",
        "nodes:",
    ]
    lines.extend(f"{y:.17g}" for y in mesh.nodes_y)
    return "\n".join(lines) + "\n"


def parse_mesh(text: str) -> MeshMap:
    """Rebuild a MeshMap from its dump (nodes are recomputed, not trusted)."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "nodes:":
            break
        key, _, rest = line.partition(":")
        fields[key.strip()] = rest.split()
    knots = PhaseKnots(*(float(v) for v in fields["knots"]))
    a = [float(v) for v in fields["coeffs"]]
    coeffs = DensityCoeffs(*a, b=int(fields["b"][0]))
    mesh = build_map(knots, coeffs, float(fields["L"][0]), int(fields["n"][0]))
    return mesh
