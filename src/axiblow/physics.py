"""Problem definition: initial data, diffusion-coefficient variants, circulation.

The initial swirl and angular vorticity are sharply peaked near
(r, z) ~ (1e-3, 1e-4), normalized so the swirl sup-norm is m_u1 and the
vorticity sup-norm is ~ m_u1^2 (the empirical blowup scaling).  Three
diffusion variants are supported: the degenerate variable coefficients
(O(r^2) + O(z^2) near the origin plus a decaying time-dependent floor),
a constant coefficient, and zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from .fields import FieldGrid
from .meshmap import MeshMap


def soft_cutoff(x, a: float, b: float):
    """Logistic ramp e^{(x-a)/b} / (e^{(x-a)/b} + e^{-(x-a)/b}).

    Evaluated as a saturating sigmoid so large |x - a| / b neither
    overflows nor loses the 0/1 limits.
    """
    return expit(2.0 * (np.asarray(x, dtype=float) - a) / b)


@dataclass(frozen=True)
class InitialDataParams:
    """Amplitudes and shape scales of the initial data."""

    m_u1: float = 7.6e3
    m_u2: float = 50.0
    m_w1: float = 8.6e7
    m_w2: float = 50.0
    a_z1: float = 1.2e-4 * np.pi
    a_z2: float = 2.5e-4 * np.pi
    a_r1: float = 9e-4
    a_r2: float = 5e-3
    b_z1: float = 1e-4 * np.pi
    b_z2: float = 1.5e-4 * np.pi
    b_r1: float = 9e-4
    b_r2: float = 3e-3

    def key(self):
        return tuple(getattr(self, f.name) for f in dc_fields(self))


def _axial_factor(z, s1, s2):
    s = np.sin(np.pi * np.asarray(z, dtype=float))
    return np.sin(2.0 * np.pi * np.asarray(z)) / (1.0 + (s / s1) ** 2 + (s / s2) ** 4)


def _radial_factor(r, c1, c2):
    r = np.asarray(r, dtype=float)
    return r**8 * (1.0 - r**2) / (1.0 + (r / c1) ** 10 + (r / c2) ** 14)


def _corner_shape(r, z, p: InitialDataParams):
    """Soft-cutoff factor g(r, z) carving the corner of the vorticity seed."""
    s = np.sin(np.pi * np.asarray(z, dtype=float)) / np.pi
    edge = soft_cutoff(r, p.b_r1 + 0.5 * p.b_z1, p.b_z1)
    top = soft_cutoff(s, 0.7 * p.b_z1, 0.5 * p.b_z1)
    bot = soft_cutoff(-s, 0.7 * p.b_z1, 0.5 * p.b_z1)
    return (1.0 - top * edge) * (1.0 - bot * edge)


def u1_seed(r, z, p: InitialDataParams):
    """Unnormalized swirl component (peaked, separable)."""
    return _axial_factor(z, p.a_z1, p.a_z2) * _radial_factor(r, p.a_r1, p.a_r2)


def w1_seed(r, z, p: InitialDataParams):
    """Unnormalized vorticity component (peaked, with the corner cutoff)."""
    return _corner_shape(r, z, p) * _axial_factor(z, p.b_z1, p.b_z2) \
        * _radial_factor(r, p.b_r1, p.b_r2)


_NORM_CACHE: dict = {}


def _dense_sup_norm(func, chunk_rows: int = 64) -> float:
    """Sup norm by dense log-refined sampling plus a simplex polish.

    The components peak near (r, z) ~ (1e-3, 1e-4); a 4096^2 geometric
    grid covers every decade, and a Nelder-Mead polish in log coordinates
    removes the residual grid-offset error.
    """
    rs = np.geomspace(1e-8, 1.0, 4096)
    zs = np.geomspace(1e-9, 0.5, 4096)
    best = -np.inf
    best_rz = (rs[0], zs[0])
    for lo in range(0, len(rs), chunk_rows):
        block = np.abs(func(rs[lo:lo + chunk_rows, None], zs[None, :]))
        i, j = np.unravel_index(int(np.argmax(block)), block.shape)
        if block[i, j] > best:
            best = float(block[i, j])
            best_rz = (rs[lo + i], zs[j])

    def neg(logxy):
        return -abs(float(func(np.exp(logxy[0]), np.exp(logxy[1]))))

    res = minimize(neg, np.log(np.array(best_rz)), method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 0.0, "maxiter": 400})
    return max(best, -float(res.fun))


def initial_sup_norms(p: InitialDataParams):
    """Cached continuum sup norms of the two unnormalized components."""
    key = p.key()
    if key not in _NORM_CACHE:
        nu = _dense_sup_norm(lambda r, z: u1_seed(r, z, p))
        nw = _dense_sup_norm(lambda r, z: w1_seed(r, z, p))
        _NORM_CACHE[key] = (nu, nw)
    return _NORM_CACHE[key]


def initial_point_values(r, z, p: InitialDataParams):
    """(u1, w1) initial data at arbitrary coordinates."""
    nu, nw = initial_sup_norms(p)
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    u = p.m_u1 * u1_seed(r, z, p) / nu + p.m_u2 * np.sin(2 * np.pi * z) * r**2 * (1 - r**2)
    w = p.m_w1 * w1_seed(r, z, p) / nw + p.m_w2 * np.sin(2 * np.pi * z) * r**2 * (1 - r**2)
    return u, w


def initial_fields(p: InitialDataParams, mesh_r: MeshMap, mesh_z: MeshMap):
    """Nodal initial data on a mesh pair (even in r, odd in z)."""
    u, w = initial_point_values(mesh_r.nodes_y[:, None], mesh_z.nodes_y[None, :], p)
    # The analytic formulas vanish on the symmetry rows only up to round-off
    # of sin(2 pi z); pin them exactly.
    for f in (u, w):
        f[:, 0] = 0.0
        f[:, -1] = 0.0
    return FieldGrid(u, "even", "odd"), FieldGrid(w, "even", "odd")


# -- diffusion coefficients --------------------------------------------------

CASE_DEGENERATE = 1
CASE_CONSTANT = 2
CASE_INVISCID = 3


@dataclass(frozen=True)
class DiffusionSpec:
    """Selects the diffusion-coefficient variant.

    variant 1: degenerate space-dependent parts plus the time-dependent
    floor tdp_scale / max|omega^theta|; variant 2: constant mu; variant 3:
    zero (inviscid).
    """

    variant: int = CASE_DEGENERATE
    mu: float = 0.0
    tdp_scale: float = 2.5e-2

    def __post_init__(self):
        if self.variant not in (CASE_DEGENERATE, CASE_CONSTANT, CASE_INVISCID):
            raise ValueError(f"unknown diffusion variant {self.variant}")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")


@dataclass
class NuFields:
    """Diffusion coefficients and every derivative the kernels consume.

    Entries are broadcastable against (n+1, m+1) nodal arrays; ratios like
    nu_r_r_over_r are the analytic odd-derivative-over-r limits, finite on
    the axis.  Scalars (0.0 or mu) stand in for fields that are constant.
    """

    nu_r: np.ndarray | float
    nu_z: np.ndarray | float
    nu_r_r: np.ndarray | float = 0.0
    nu_r_z: np.ndarray | float = 0.0
    nu_r_rr: np.ndarray | float = 0.0
    nu_r_r_over_r: np.ndarray | float = 0.0
    nu_z_z: np.ndarray | float = 0.0
    nu_z_zz: np.ndarray | float = 0.0
    nu_z_r_over_r: np.ndarray | float = 0.0

    def max_values(self):
        return float(np.max(self.nu_r)), float(np.max(self.nu_z))


_RAD = {"nu_r": (10.0, 1e8), "nu_z": (0.1, 1e8)}
_AX = {"nu_r": (1e2, 1e11), "nu_z": (1e4, 1e11)}


def _radial_part(r, A, B):
    den = 1.0 + B * r * r
    val = A * r * r / den
    d1 = 2.0 * A * r / den**2
    d2 = 2.0 * A * (1.0 - 3.0 * B * r * r) / den**3
    d1_over_r = 2.0 * A / den**2
    return val, d1, d2, d1_over_r


def _axial_part(z, C, D):
    s = np.sin(np.pi * z) / np.pi
    sp = np.cos(np.pi * z)
    spp = -np.pi * np.sin(np.pi * z)
    den = 1.0 + D * s * s
    val = C * s * s / den
    d1 = 2.0 * C * s * sp / den**2
    d2 = 2.0 * C * ((sp * sp + s * spp) * den - 4.0 * D * s * s * sp * sp) / den**3
    return val, d1, d2


def nu_eval(spec: DiffusionSpec, r, z, omega_theta_max: float | None = None) -> NuFields:
    """Evaluate the diffusion coefficients and derivatives at (r, z) nodes.

    ``r`` and ``z`` are 1-D nodal arrays; outputs broadcast to the tensor
    grid.  The degenerate variant needs the current max|omega^theta| for
    its time-dependent part and raises ZeroDivisionError when it is zero.
    """
    if spec.variant == CASE_INVISCID:
        return NuFields(0.0, 0.0)
    if spec.variant == CASE_CONSTANT:
        return NuFields(spec.mu, spec.mu)
    if not omega_theta_max or omega_theta_max <= 0.0:
        raise ZeroDivisionError("degenerate diffusion needs max|omega^theta| > 0")
    r = np.asarray(r, dtype=float)[:, None]
    z = np.asarray(z, dtype=float)[None, :]
    tdp = spec.tdp_scale / omega_theta_max
    vr_r, vr_r_d1, vr_r_d2, vr_r_ratio = _radial_part(r, *_RAD["nu_r"])
    vz_r, _, _, vz_r_ratio = _radial_part(r, *_RAD["nu_z"])
    vr_z, vr_z_d1, _ = _axial_part(z, *_AX["nu_r"])
    vz_z, vz_z_d1, vz_z_d2 = _axial_part(z, *_AX["nu_z"])
    return NuFields(
        nu_r=vr_r + vr_z + tdp,
        nu_z=vz_r + vz_z + tdp,
        nu_r_r=vr_r_d1,
        nu_r_z=vr_z_d1,
        nu_r_rr=vr_r_d2,
        nu_r_r_over_r=vr_r_ratio,
        nu_z_z=vz_z_d1,
        nu_z_zz=vz_z_d2,
        nu_z_r_over_r=vz_r_ratio,
    )


def spec_for_case(case: int, mu: float = 0.0) -> DiffusionSpec:
    """Map a run case number (1-4) onto a DiffusionSpec."""
    if case in (1, 4):
        return DiffusionSpec(CASE_DEGENERATE)
    if case == 2:
        return DiffusionSpec(CASE_CONSTANT, mu=mu)
    if case == 3:
        return DiffusionSpec(CASE_INVISCID)
    raise ValueError(f"unknown case {case}")


def circulation(u1: FieldGrid, mesh_r: MeshMap) -> FieldGrid:
    """Total circulation Gamma = r^2 u1 (transported, maximum principle)."""
    return FieldGrid(mesh_r.nodes_y[:, None] ** 2 * u1.values, "even", u1.parity_z)
