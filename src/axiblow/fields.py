"""Grid fields, mapped-coordinate finite differences, and diffusion terms.

All derivatives are 2nd-order centered differences in the computational
coordinates, converted to physical derivatives through the analytic map
metric (v_r = v_rho / r_rho, v_rr = v_rhorho / r_rho^2 - r_rhorho v_rho /
r_rho^3).  Every stencil here and in the low-pass filter runs on one
ghost-padded array (``_pad``): one ghost row beyond each end, mirrored
for an even end, mirrored and negated for an odd end, and extrapolated by
the cubic through the four end rows at the solid wall rho = 1 and at any
end without a parity.  Terms with an explicit 1/r factor are evaluated at
r = 0 by their parity limits instead of one-sided differencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .meshmap import MeshMap
    from .physics import NuFields

_FLIP = {"even": "odd", "odd": "even", None: None}


@dataclass
class FieldGrid:
    """A scalar field on the (n+1) x (m+1) tensor grid with symmetry tags.

    ``parity_r`` is the reflection parity at rho = 0; ``parity_z`` the
    parity at both eta = 0 and eta = 1 (the half-period symmetry makes the
    two axial ends behave identically).  Either may be None for data with
    no usable symmetry; such an end gets the cubic-extrapolation ghost of
    the wall.
    """

    values: np.ndarray
    parity_r: str | None = None
    parity_z: str | None = None

    def like(self, values: np.ndarray, parity_r=0, parity_z=0) -> "FieldGrid":
        return FieldGrid(values,
                         self.parity_r if parity_r == 0 else parity_r,
                         self.parity_z if parity_z == 0 else parity_z)


def _ghost(rows: np.ndarray, parity) -> np.ndarray:
    """Ghost row beyond ``rows[0]``: mirrored for a parity, else cubic extrapolation."""
    if parity == "even":
        return rows[1]
    if parity == "odd":
        return -rows[1]
    return 4.0 * rows[0] - 6.0 * rows[1] + 4.0 * rows[2] - rows[3]


def _pad(v: np.ndarray, axis: int, lo, hi) -> np.ndarray:
    """``v`` with one ghost row at each end of ``axis``, that axis moved first.

    ``lo`` and ``hi`` are the parities of the two ends: "even" mirrors the
    row next to the end, "odd" mirrors it negated, and None (the solid
    wall, or data with no symmetry) extrapolates the cubic through the
    four end rows.  The padded array is stored in ``v``'s axis order, so a
    stencil result moved back with ``np.moveaxis`` has ``v``'s layout.
    """
    shape = list(v.shape)
    shape[axis] += 2
    p = np.moveaxis(np.empty(shape), axis, 0)
    v = np.moveaxis(v, axis, 0)
    p[1:-1] = v
    p[0] = _ghost(v, lo)
    p[-1] = _ghost(v[::-1], hi)
    return p


def _first_difference(f: FieldGrid, mesh: "MeshMap", axis: int):
    """The padded values of ``f`` along ``axis`` and their centered difference.

    Axis 0 is rho: its rho = 0 end takes the radial parity and rho = 1 is
    the wall.  Axis 1 is eta: both ends take the axial parity.
    """
    lo, hi = (f.parity_r, None) if axis == 0 else (f.parity_z, f.parity_z)
    p = _pad(f.values, axis, lo, hi)
    return p, (p[2:] - p[:-2]) / (2.0 * mesh.h)


def _first(f: FieldGrid, mesh: "MeshMap", axis: int) -> np.ndarray:
    """Physical first derivative of ``f`` along ``axis``."""
    _, d1 = _first_difference(f, mesh, axis)
    return np.moveaxis(d1 / mesh.nodes_dy[:, None], 0, axis)


def _first_second(f: FieldGrid, mesh: "MeshMap", axis: int):
    """Physical first and second derivatives of ``f`` along ``axis``, padded once."""
    p, d1 = _first_difference(f, mesh, axis)
    h = mesh.h
    dy = mesh.nodes_dy[:, None]
    d2y = mesh.nodes_d2y[:, None]
    d2 = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / (h * h)
    return (np.moveaxis(d1 / dy, 0, axis),
            np.moveaxis(d2 / dy**2 - d2y * d1 / dy**3, 0, axis))


def ddr(f: FieldGrid, mesh_r: "MeshMap") -> FieldGrid:
    """Physical d/dr; flips the radial parity."""
    return f.like(_first(f, mesh_r, 0), parity_r=_FLIP[f.parity_r])


def ddz(f: FieldGrid, mesh_z: "MeshMap") -> FieldGrid:
    """Physical d/dz; flips the axial parity."""
    return f.like(_first(f, mesh_z, 1), parity_z=_FLIP[f.parity_z])


def d2dr2(f: FieldGrid, mesh_r: "MeshMap") -> FieldGrid:
    return f.like(_first_second(f, mesh_r, 0)[1])


def d2dz2(f: FieldGrid, mesh_z: "MeshMap") -> FieldGrid:
    return f.like(_first_second(f, mesh_z, 1)[1])


class Derivatives(NamedTuple):
    """Physical first and second derivatives of one field in r and z."""

    r: np.ndarray
    rr: np.ndarray
    z: np.ndarray
    zz: np.ndarray


def derivatives(f: FieldGrid, mesh_r: "MeshMap", mesh_z: "MeshMap") -> Derivatives:
    """The values of ddr, d2dr2, ddz and d2dz2 of ``f``, each axis padded once."""
    return Derivatives(*_first_second(f, mesh_r, 0), *_first_second(f, mesh_z, 1))


def over_r(values: np.ndarray, mesh_r: "MeshMap", axis_limit: np.ndarray) -> np.ndarray:
    """values / r with the r = 0 row replaced by its parity limit."""
    out = np.empty_like(values)
    out[1:] = values[1:] / mesh_r.nodes_y[1:, None]
    out[0] = axis_limit[0] if axis_limit.ndim == 2 else axis_limit
    return out


def velocity_from_stream(psi: FieldGrid, mesh_r: "MeshMap", mesh_z: "MeshMap",
                         psi_r: FieldGrid | None = None,
                         psi_z: FieldGrid | None = None):
    """Recover (u^r, u^z) = (-r psi_z, 2 psi + r psi_r) from psi = psi^theta/r.

    Pre-filtered derivative fields may be supplied; otherwise they are
    computed here.  The wall row of u^r is pinned to zero (no-flow).
    """
    if psi_r is None:
        psi_r = ddr(psi, mesh_r)
    if psi_z is None:
        psi_z = ddz(psi, mesh_z)
    r = mesh_r.nodes_y[:, None]
    ur = -r * psi_z.values
    ur[-1, :] = 0.0
    uz = 2.0 * psi.values + r * psi_r.values
    return (FieldGrid(ur, "odd", "even"), FieldGrid(uz, "even", "odd"))


def diffusion_u1(u1: FieldGrid, nu: "NuFields", mesh_r: "MeshMap",
                 mesh_z: "MeshMap") -> FieldGrid:
    """Variable-coefficient diffusion term of the swirl equation."""
    return u1.like(diffusion_u1_from(u1, derivatives(u1, mesh_r, mesh_z), nu, mesh_r))


def diffusion_u1_from(u1: FieldGrid, du: Derivatives, nu: "NuFields",
                      mesh_r: "MeshMap") -> np.ndarray:
    """Swirl diffusion from u1 and its derivatives ``du``.

    nu_r*(u_rr + 3 u_r / r) + nu_z*u_zz + (nu_r_r / r)*u + nu_r_r*u_r
    + nu_z_z*u_z, with (3/r) u_r -> 3 u_rr at the axis and nu_r_r / r
    supplied analytically.
    """
    lap = nu.nu_r * (du.rr + 3.0 * over_r(du.r, mesh_r, du.rr)) + nu.nu_z * du.zz
    lower = nu.nu_r_r_over_r * u1.values + nu.nu_r_r * du.r + nu.nu_z_z * du.z
    return lap + lower


def diffusion_w1(w1: FieldGrid, g: FieldGrid, uz: FieldGrid, nu: "NuFields",
                 mesh_r: "MeshMap", mesh_z: "MeshMap") -> FieldGrid:
    """Diffusion term of the angular-vorticity equation, cross terms included."""
    dw = derivatives(w1, mesh_r, mesh_z)
    return w1.like(diffusion_w1_from(w1, dw, g, uz, nu, mesh_r, mesh_z))


def diffusion_w1_from(w1: FieldGrid, dw: Derivatives, g: FieldGrid, uz: FieldGrid,
                      nu: "NuFields", mesh_r: "MeshMap", mesh_z: "MeshMap") -> np.ndarray:
    """Angular-vorticity diffusion from w1 and its derivatives ``dw``.

    ``g`` is u^r / r = -psi_z (stored undivided; even in r and z), so the
    1/r-singular velocity groupings reduce to regular expressions:
    (1/r)(u^r_rr + u^r_r/r - u^r/r^2) = g_rr + 3 g_r / r, u^r_z / r = g_z
    and u^r_zz / r = g_zz.  Groupings against odd nu derivatives use the
    analytic ratios nu_*_r / r.  Each coefficient is a radial part plus an
    axial part, so the mixed derivatives nu_r_rz and nu_z_rz vanish and
    their terms are left out.
    """
    out = nu.nu_r * (dw.rr + 3.0 * over_r(dw.r, mesh_r, dw.rr)) + nu.nu_z * dw.zz \
        + nu.nu_r_r_over_r * w1.values + nu.nu_r_r * dw.r + nu.nu_z_z * dw.z
    dg = derivatives(g, mesh_r, mesh_z)
    uz_r, uz_rr = _first_second(uz, mesh_r, 0)
    uz_zz = _first_second(uz, mesh_z, 1)[1]     # uz_z is read by no term
    uz_r_over_r = over_r(uz_r, mesh_r, uz_rr)
    cross = nu.nu_r_z * (dg.rr + 3.0 * over_r(dg.r, mesh_r, dg.rr)) \
        + nu.nu_z_z * dg.zz \
        - nu.nu_r_r_over_r * (uz_rr + uz_r_over_r) \
        - nu.nu_z_r_over_r * uz_zz \
        + nu.nu_z_zz * dg.z \
        - nu.nu_r_rr * uz_r_over_r
    return out + cross


def wall_psi_rr(psi: FieldGrid, mesh_r: "MeshMap") -> np.ndarray:
    """One-sided 2nd-order psi_rr on the wall row rho = 1."""
    v = psi.values
    h = mesh_r.h
    d1 = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    d2 = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    dy = mesh_r.nodes_dy[-1]
    d2y = mesh_r.nodes_d2y[-1]
    return d2 / dy**2 - d2y * d1 / dy**3


def enforce_boundary(u1: FieldGrid, w1: FieldGrid, psi: FieldGrid,
                     mesh_r: "MeshMap", mesh_z: "MeshMap"):
    """No-slip wall row and odd-symmetry axial rows, enforced in place.

    u1 vanishes on the wall, w1 there equals -psi_rr (one-sided stencil),
    and the odd-in-z rows j = 0, m are pinned to zero so round-off cannot
    leak across the symmetry planes.  Idempotent.
    """
    u1.values[-1, :] = 0.0
    w1.values[-1, :] = -wall_psi_rr(psi, mesh_r)
    for f in (u1, w1):
        f.values[:, 0] = 0.0
        f.values[:, -1] = 0.0
    return u1, w1
