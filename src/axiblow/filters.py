"""Low-pass filtering in the computational plane.

The basic filter is one damped-Jacobi-style pass per direction,

    f <- f + (c/4) (f_{i-1} + f_{i+1} - 2 f_i),

applied first along rho, then along eta, on the ghost-padded rows the
derivative stencils use (``fields._pad``).  The strength c(rho, eta) in
[0, 1] is either uniform or the L-shaped product of soft cutoffs that
covers the tail region of the solution (phase 2 of the adaptive mesh)
while leaving the singular phase-1 box and the far field untouched.

The re-meshed variant interpolates the field onto a coarser mesh adapted
to the *current* solution, filters k times there, and interpolates back;
this smooths on the coarse-cell scale, which is what suppresses the
shear-driven tail oscillations that the plain filter is too weak to damp.
"""

from __future__ import annotations

import numpy as np

from . import meshmap as mm
from .fields import FieldGrid, _pad
from .physics import soft_cutoff


class UniformStrength:
    """Constant filter strength c in [0, 1]."""

    def __init__(self, c: float):
        if not 0.0 <= c <= 1.0:
            raise ValueError("filter strength must lie in [0, 1]")
        self.c = float(c)

    def values(self, rho, eta):
        return self.c


class LShapeStrength:
    """Tail-region strength: ~1 on the L-shaped band, ~0 elsewhere.

    c(rho, eta) = fbar(rho; .8, .05) fbar(eta; .8, .05)
                  * (1 - fbar(rho; .45, .05) fbar(eta; .45, .05)),
    with fbar = 1 - soft_cutoff: vanishes in the phase-1 box (both
    coordinates below ~0.45) and beyond ~0.8 in either coordinate.
    """

    def values(self, rho, eta):
        fr8 = 1.0 - soft_cutoff(rho, 0.8, 0.05)
        fe8 = 1.0 - soft_cutoff(eta, 0.8, 0.05)
        fr45 = 1.0 - soft_cutoff(rho, 0.45, 0.05)
        fe45 = 1.0 - soft_cutoff(eta, 0.45, 0.05)
        return fr8 * fe8 * (1.0 - fr45 * fe45)


def strength_cL(rho, eta):
    """L-shaped strength value at (rho, eta)."""
    return LShapeStrength().values(np.asarray(rho), np.asarray(eta))


def _strength_grid(c, nodes_rho, nodes_eta):
    if np.isscalar(c) or isinstance(c, float):
        return float(c)
    if isinstance(c, np.ndarray):
        return c
    return c.values(nodes_rho[:, None], nodes_eta[None, :])


def lpf(f: FieldGrid, c, mesh_r: mm.MeshMap, mesh_z: mm.MeshMap) -> FieldGrid:
    """One low-pass filtering sweep (rho pass then eta pass).

    ``c`` may be a scalar, a nodal array, or a strength object.  Ghost
    rows come from ``fields._pad``, as for the derivative stencils.
    """
    cg = _strength_grid(c, mesh_r.nodes_s, mesh_z.nodes_s)
    quarter = 0.25 * cg
    p = _pad(f.values, 0, f.parity_r, None)
    mid = f.values + quarter * (p[2:] + p[:-2] - 2.0 * p[1:-1])
    p = _pad(mid, 1, f.parity_z, f.parity_z)
    second = np.moveaxis(p[2:] + p[:-2] - 2.0 * p[1:-1], 0, 1)
    return f.like(mid + quarter * second)


def rlpf(fs: tuple, u1_current: np.ndarray, mesh_r: mm.MeshMap, mesh_z: mm.MeshMap,
         k: int, N: int, M: int, c) -> tuple:
    """Re-meshed low-pass filter: coarse-mesh round trip with k passes.

    The coarse (N, M) mesh is rebuilt from the current swirl field so its
    phases track the solution now, not at the last reference time.  Every
    field of ``fs`` shares that mesh pair and its two pull-backs; each is
    filtered on its own and returned in order.  k = 0 performs the bare
    interpolation round trip (exact on bicubics).
    """
    tr = mm.derive_targets(u1_current, mesh_r, mesh_z, "r")
    tz = mm.derive_targets(u1_current, mesh_r, mesh_z, "z")
    coarse_r = mm.build_map(mm.R_KNOTS, mm.solve_phase_coeffs(mm.R_KNOTS, tr), 1.0, N)
    coarse_z = mm.build_map(mm.Z_KNOTS, mm.solve_phase_coeffs(mm.Z_KNOTS, tz), 0.5, M)
    down = mm.pull_back_nodes(mesh_r, mesh_z, coarse_r, coarse_z)
    up = mm.pull_back_nodes(coarse_r, coarse_z, mesh_r, mesh_z)
    out = []
    for f in fs:
        coarse = f.like(mm.evaluate_ip4(f.values, *down, f.parity_r, f.parity_z))
        for _ in range(k):
            coarse = lpf(coarse, c, coarse_r, coarse_z)
        out.append(f.like(mm.evaluate_ip4(coarse.values, *up, f.parity_r, f.parity_z)))
    return tuple(out)
