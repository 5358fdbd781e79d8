"""Measured quantities: norms, peak tracking, vorticity vector, energy,
mesh effectiveness, level-set alignment, rescaled profiles, streamlines.

Everything here is read-only over solution snapshots; records are written
by the run loop as flat CSV rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import fields as fd
from . import meshmap as mm
from .errors import OutOfDomain, ZeroField
from .fields import FieldGrid
from .meshmap import MeshMap, refine_peak_parabolic


@dataclass
class DiagnosticsRecord:
    """One CSV row of the run's time series."""

    t: float
    u1_max: float
    w1_max: float
    omega_theta_max: float
    omega_r_max: float
    omega_z_max: float
    omega_vec_max: float
    psi1_r_max: float
    psi1_z_max: float
    u1_r_max: float
    u1_z_max: float
    R: float
    Z: float
    energy: float
    align_ratio: float
    gamma_at_peak: float
    gamma_max: float
    me_rho_u1: float
    me_eta_u1: float
    me_rho_w1: float
    me_eta_w1: float
    dt: float
    mesh_updated: int
    poisson_residual: float  # ||A c - f|| / ||f|| of the record's own solve

    @classmethod
    def header(cls):
        return [f.name for f in dc_fields(cls)]

    def row(self):
        return [getattr(self, f.name) for f in dc_fields(self)]


def max_location(u1, mesh_r: MeshMap, mesh_z: MeshMap):
    """Peak location (R, Z) and value of a field, parabolic sub-grid refinement.

    The nodal argmax (ties resolved to the lowest flat index) is refined by
    3-point parabolic fits in each computational coordinate; the refined
    value adds both one-dimensional vertex gains.
    """
    v = u1.values if isinstance(u1, FieldGrid) else np.asarray(u1)
    i, j = np.unravel_index(int(np.argmax(v)), v.shape)
    rho, eta = mesh_r.nodes_s[i], mesh_z.nodes_s[j]
    value = float(v[i, j])
    if 0 < i < mesh_r.n:
        tri = v[i - 1:i + 2, j]
        rho = refine_peak_parabolic(tri, rho, mesh_r.h)
        denom = tri[0] - 2.0 * tri[1] + tri[2]
        if denom < 0.0:
            value += -0.125 * (tri[2] - tri[0]) ** 2 / denom
    if 0 < j < mesh_z.n:
        tri = v[i, j - 1:j + 2]
        eta = refine_peak_parabolic(tri, eta, mesh_z.h)
        denom = tri[0] - 2.0 * tri[1] + tri[2]
        if denom < 0.0:
            value += -0.125 * (tri[2] - tri[0]) ** 2 / denom
    return float(mesh_r.value(rho)), float(mesh_z.value(eta)), value


def vorticity_vector(u1: FieldGrid, w1: FieldGrid, mesh_r: MeshMap, mesh_z: MeshMap):
    """(omega^theta, omega^r, omega^z) = (r w1, -r u1_z, 2 u1 + r u1_r)."""
    return vorticity_from(u1, w1, fd.ddr(u1, mesh_r).values, fd.ddz(u1, mesh_z).values,
                          mesh_r)


def vorticity_from(u1: FieldGrid, w1: FieldGrid, u1_r: np.ndarray, u1_z: np.ndarray,
                   mesh_r: MeshMap):
    """The vorticity vector from u1, w1 and the swirl derivatives u1_r, u1_z."""
    r = mesh_r.nodes_y[:, None]
    return r * w1.values, -r * u1_z, 2.0 * u1.values + r * u1_r


def vorticity_sup_norms(u1: FieldGrid, w1: FieldGrid, mesh_r: MeshMap, mesh_z: MeshMap):
    """Sup norms of the vorticity components and of the full vector magnitude."""
    return sup_norms(*vorticity_vector(u1, w1, mesh_r, mesh_z))


def sup_norms(w_theta, w_r, w_z):
    """Sup norms of three vector components and of the vector magnitude."""
    mag = np.sqrt(w_theta**2 + w_r**2 + w_z**2)
    return (float(np.abs(w_theta).max()), float(np.abs(w_r).max()),
            float(np.abs(w_z).max()), float(mag.max()))


def kinetic_energy(u1: FieldGrid, ur: FieldGrid, uz: FieldGrid,
                   mesh_r: MeshMap, mesh_z: MeshMap) -> float:
    """E = (1/2) int (|u^r|^2 + |u^theta|^2 + |u^z|^2) r dr dz (trapezoid)."""
    r = mesh_r.nodes_y[:, None]
    utheta = r * u1.values
    dens = (ur.values**2 + utheta**2 + uz.values**2) * r \
        * mesh_r.nodes_dy[:, None] * mesh_z.nodes_dy[None, :]
    wr = np.ones(mesh_r.n + 1)
    wr[0] = wr[-1] = 0.5
    wz = np.ones(mesh_z.n + 1)
    wz[0] = wz[-1] = 0.5
    total = wr @ dens @ wz * mesh_r.h * mesh_z.h
    return 0.5 * float(total)


def mesh_effectiveness(v, mesh_r: MeshMap, mesh_z: MeshMap):
    """Largest relative per-cell increment (ME_rho, ME_eta) of a field.

    ME_rho = sup |h_rho v_rho| / ||v||_inf with v_rho the centered
    difference in the computational coordinate (one-sided at the ends).
    """
    vals = v.values if isinstance(v, FieldGrid) else np.asarray(v)
    norm = float(np.abs(vals).max())
    if norm == 0.0:
        raise ZeroField("mesh effectiveness of an identically zero field")
    d_rho = np.abs(vals[2:, :] - vals[:-2, :]).max() / 2.0 if vals.shape[0] > 2 else 0.0
    d_rho = max(d_rho, np.abs(vals[1, :] - vals[0, :]).max(),
                np.abs(vals[-1, :] - vals[-2, :]).max())
    d_eta = np.abs(vals[:, 2:] - vals[:, :-2]).max() / 2.0 if vals.shape[1] > 2 else 0.0
    d_eta = max(d_eta, np.abs(vals[:, 1] - vals[:, 0]).max(),
                np.abs(vals[:, -1] - vals[:, -2]).max())
    return d_rho / norm, d_eta / norm


def level_set_parallelism(u1: FieldGrid, w1: FieldGrid, mesh_r: MeshMap, mesh_z: MeshMap,
                          half_width: float | None = None) -> float:
    """RMS normalized gradient cross product of (u1, w1) near the peak.

    Small values mean the level sets of the two fields are locally
    parallel.  The window is a box around the peak of u1 with half-width
    proportional to the axial peak height Z (default 2.5 Z).
    """
    R, Z, _ = max_location(u1, mesh_r, mesh_z)
    if half_width is None:
        half_width = 2.5 * Z
    u_r = fd.ddr(u1, mesh_r).values
    u_z = fd.ddz(u1, mesh_z).values
    w_r = fd.ddr(w1, mesh_r).values
    w_z = fd.ddz(w1, mesh_z).values
    rmask = np.abs(mesh_r.nodes_y - R) <= half_width
    zmask = mesh_z.nodes_y <= Z + half_width
    sel = np.ix_(rmask, zmask)
    cross = u_r[sel] * w_z[sel] - u_z[sel] * w_r[sel]
    gu = np.hypot(u_r[sel], u_z[sel])
    gw = np.hypot(w_r[sel], w_z[sel])
    ratio = np.abs(cross) / (gu * gw + 1e-300)
    return float(np.sqrt(np.mean(ratio**2)))


def rescaled_profile(f, mesh_r: MeshMap, mesh_z: MeshMap, R: float, Z: float,
                     xi, zeta, parity_r=None, parity_z=None):
    """Sample f on the peak-centered stretched raster (xi, zeta).

    Physical coordinates are r = R + Z xi, z = Z zeta; profiles frozen in
    these coordinates across snapshots indicate local self-similarity.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    r_pts = R + Z * xi
    z_pts = Z * zeta
    if r_pts.min() < 0.0:
        raise OutOfDomain("rescaled window crosses the symmetry axis r = 0")
    vals = f.values if isinstance(f, FieldGrid) else np.asarray(f)
    return mm.sample_ip4(vals, mesh_r, mesh_z, r_pts, z_pts,
                         parity_r=parity_r, parity_z=parity_z)


def streamline(u1: FieldGrid, ur: FieldGrid, uz: FieldGrid,
               mesh_r: MeshMap, mesh_z: MeshMap,
               start, s_max: float, ds: float):
    """Integrate one velocity-field streamline in 3-space (classical RK4).

    ``start`` is (r0, theta0, z0).  The azimuthal velocity is u^theta =
    r u1.  Integration stops at s_max or when the point leaves the
    half-period domain; the traversed polyline (Cartesian points) and the
    exit flag are returned as data.
    """
    r0, th0, z0 = start
    pos = np.array([r0 * np.cos(th0), r0 * np.sin(th0), z0])

    def velocity(p):
        r = float(np.hypot(p[0], p[1]))
        z = p[2]
        if not (0.0 <= r <= 1.0 and 0.0 <= z <= mesh_z.L):
            return None
        rho, eta = mm.pull_back(mesh_r, mesh_z, [r], [z])
        vals = np.array([
            mm.evaluate_ip4(ur.values, rho, eta, "odd", "even")[0, 0],
            mm.evaluate_ip4(u1.values, rho, eta, "even", "odd")[0, 0],
            mm.evaluate_ip4(uz.values, rho, eta, "even", "odd")[0, 0],
        ])
        v_r, u_theta, v_z = vals[0], r * vals[1], vals[2]
        if r == 0.0:
            return np.array([0.0, 0.0, v_z])
        c, s = p[0] / r, p[1] / r
        return np.array([v_r * c - u_theta * s, v_r * s + u_theta * c, v_z])

    points = [pos.copy()]
    exited = False
    nsteps = int(round(s_max / ds))
    for _ in range(nsteps):
        k1 = velocity(pos)
        if k1 is None:
            exited = True
            break
        k2 = velocity(pos + 0.5 * ds * k1)
        k3 = velocity(pos + 0.5 * ds * k2) if k2 is not None else None
        k4 = velocity(pos + ds * k3) if k3 is not None else None
        if k2 is None or k3 is None or k4 is None:
            exited = True
            break
        pos = pos + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        points.append(pos.copy())
    return np.array(points), exited
