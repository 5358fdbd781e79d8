"""Grid fields, mapped-coordinate finite differences, and diffusion terms.

All derivatives are 2nd-order centered differences in the computational
coordinates, converted to physical derivatives through the analytic map
metric (v_r = v_rho / r_rho, v_rr = v_rhorho / r_rho^2 - r_rhorho v_rho /
r_rho^3), which each mesh folds once into nodal weights.  Every stencil
here, in the low-pass filter and in the front locator takes interior rows
from slices of the field, closes each end row with one ghost row
(``_ghost``: mirrored for an even end, negated mirror for an odd end, the
cubic through the four end rows at the wall rho = 1 and at ends without a
parity) and writes in place into C-ordered arrays, with no padded copy.
Terms with an explicit 1/r factor are evaluated at r = 0 by their parity
limits instead of one-sided differencing.
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


def _difference(v: np.ndarray, axis: int, lo, hi, out: np.ndarray) -> np.ndarray:
    """v[i+1] - v[i-1] along ``axis`` into ``out``; ``lo``/``hi`` are the end parities.

    The interior is one pass over the arrays flattened in C order (``out``
    is C-ordered), where a neighbour along ``axis`` is ``s`` elements away;
    the end rows it gets wrong (across rows, along the last axis) are then
    closed by ghost rows, taken from ``(v, out)`` or their transposes.
    """
    s = out.strides[axis] // out.itemsize
    flat = v.ravel()
    np.subtract(flat[2 * s:], flat[:-2 * s], out=out.ravel()[s:-s])
    e, o = (v, out) if axis == 0 else (v.T, out.T)
    o[0] = e[1] - _ghost(e, lo)
    o[-1] = _ghost(e[::-1], hi) - e[-2]
    return out


def _second_difference(v: np.ndarray, axis: int, lo, hi, out: np.ndarray) -> np.ndarray:
    """v[i+1] - 2 v[i] + v[i-1] along ``axis`` into ``out``, as in _difference."""
    s = out.strides[axis] // out.itemsize
    flat, inner = v.ravel(), out.ravel()[s:-s]
    np.multiply(flat[s:-s], -2.0, out=inner)
    inner += flat[2 * s:]
    inner += flat[:-2 * s]
    e, o = (v, out) if axis == 0 else (v.T, out.T)
    o[0] = e[1] - 2.0 * e[0] + _ghost(e, lo)
    o[-1] = _ghost(e[::-1], hi) - 2.0 * e[-1] + e[-2]
    return out


def _first_second(f: FieldGrid, mesh: "MeshMap", axis: int, second: bool = True):
    """Physical first and (if ``second``) second derivatives of ``f`` along ``axis``.

    v_y = D w_d1 and v_yy = S w_d2 - D w_d2y for the first and second
    differences D and S.  Axis 0 is rho: its rho = 0 end takes the radial
    parity and rho = 1 is the wall.  Axis 1 is eta: both ends take the
    axial parity.
    """
    lo, hi = (f.parity_r, None) if axis == 0 else (f.parity_z, f.parity_z)
    w_d1, w_d2, w_d2y = (w[:, None] if axis == 0 else w
                         for w in (mesh.w_d1, mesh.w_d2, mesh.w_d2y))
    v = f.values
    d1 = _difference(v, axis, lo, hi, np.empty(v.shape))
    if not second:
        d1 *= w_d1
        return d1
    d2 = _second_difference(v, axis, lo, hi, np.empty(v.shape))
    d2 *= w_d2
    d2 -= d1 * w_d2y
    d1 *= w_d1
    return d1, d2


def ddr(f: FieldGrid, mesh_r: "MeshMap") -> FieldGrid:
    """Physical d/dr; flips the radial parity."""
    return f.like(_first_second(f, mesh_r, 0, False), parity_r=_FLIP[f.parity_r])


def ddz(f: FieldGrid, mesh_z: "MeshMap") -> FieldGrid:
    """Physical d/dz; flips the axial parity."""
    return f.like(_first_second(f, mesh_z, 1, False), parity_z=_FLIP[f.parity_z])


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
    """The values of ddr, d2dr2, ddz and d2dz2 of ``f``."""
    return Derivatives(*_first_second(f, mesh_r, 0), *_first_second(f, mesh_z, 1))


def over_r(values: np.ndarray, mesh_r: "MeshMap", axis_limit: np.ndarray) -> np.ndarray:
    """values / r with the r = 0 row replaced by its parity limit."""
    out = np.empty_like(values)
    np.divide(values[1:], mesh_r.nodes_y[1:, None], out=out[1:])
    out[0] = axis_limit[0]
    return out


def _radial(d: Derivatives, mesh_r: "MeshMap") -> np.ndarray:
    """v_rr + 3 v_r / r, with 3 v_r / r -> 3 v_rr at the axis."""
    out = over_r(d.r, mesh_r, d.rr)
    out *= 3.0
    out += d.rr
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


def diffusion_u1_from(u1: FieldGrid, du: Derivatives, nu: "NuFields",
                      mesh_r: "MeshMap") -> np.ndarray:
    """Swirl diffusion from u1 and its derivatives ``du``.

    nu_r*(u_rr + 3 u_r / r) + nu_z*u_zz + (nu_r_r / r)*u + nu_r_r*u_r
    + nu_z_z*u_z, with (3/r) u_r -> 3 u_rr at the axis and nu_r_r / r
    supplied analytically.
    """
    out = _radial(du, mesh_r)
    out *= nu.nu_r
    out += nu.nu_z * du.zz
    out += nu.nu_r_r_over_r * u1.values
    out += nu.nu_r_r * du.r
    out += nu.nu_z_z * du.z
    return out


def diffusion_w1_from(w1: FieldGrid, dw: Derivatives, g: FieldGrid, uz: FieldGrid,
                      nu: "NuFields", mesh_r: "MeshMap", mesh_z: "MeshMap") -> np.ndarray:
    """Angular-vorticity diffusion from w1 and its derivatives ``dw``.

    The swirl operator of :func:`diffusion_u1_from` applied to w1, plus
    the cross terms through the velocity.  ``g`` is u^r / r = -psi_z
    (stored undivided; even in r and z), so the 1/r-singular velocity
    groupings reduce to regular expressions:
    (1/r)(u^r_rr + u^r_r/r - u^r/r^2) = g_rr + 3 g_r / r, u^r_z / r = g_z
    and u^r_zz / r = g_zz.  Groupings against odd nu derivatives use the
    analytic ratios nu_*_r / r.  Each coefficient is a radial part plus an
    axial part, so the mixed derivatives nu_r_rz and nu_z_rz vanish and
    their terms are left out.
    """
    out = diffusion_u1_from(w1, dw, nu, mesh_r)
    dg = derivatives(g, mesh_r, mesh_z)
    out += nu.nu_r_z * _radial(dg, mesh_r)
    out += nu.nu_z_z * dg.zz
    out += nu.nu_z_zz * dg.z
    del dg                                      # freed before uz's are formed
    duz = derivatives(uz, mesh_r, mesh_z)       # duz.z is read by no term
    out -= (nu.nu_r_r_over_r + nu.nu_r_rr) * over_r(duz.r, mesh_r, duz.rr)
    out -= nu.nu_r_r_over_r * duz.rr
    out -= nu.nu_z_r_over_r * duz.zz
    return out


def wall_psi_rr(psi: FieldGrid, mesh_r: "MeshMap") -> np.ndarray:
    """One-sided 2nd-order psi_rr on the wall row rho = 1."""
    v = psi.values
    return ((2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) * mesh_r.w_d2[-1]
            - (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) * mesh_r.w_d2y[-1])


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
