"""Low-pass filtering in the computational plane.

The basic filter is one damped-Jacobi-style pass per direction,

    f <- f + (c/4) (f_{i-1} + f_{i+1} - 2 f_i),

applied first along rho, then along eta, with the second differences and
ghost rows of the derivative stencils (``fields``) and no padded copy.
The strength c(rho, eta) in [0, 1] is a scalar or the cached L-shaped
product of soft cutoffs that covers the tail region of the solution
(phase 2 of the adaptive mesh) while leaving the singular phase-1 box and
the far field untouched.

The re-meshed variant interpolates the field onto a coarser mesh adapted
to the *current* solution, filters k times there, and interpolates back;
this smooths on the coarse-cell scale, which is what suppresses the
shear-driven tail oscillations that the plain filter is too weak to damp.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import meshmap as mm
from .fields import FieldGrid, _second_difference
from .physics import soft_cutoff


@lru_cache(maxsize=None)
def l_shape_strength(n: int, m: int) -> np.ndarray:
    """Tail-region strength on the (n+1) x (m+1) grid: ~1 on the L band, ~0 elsewhere.

    c(rho, eta) = fbar(rho; .8, .05) fbar(eta; .8, .05)
                  * (1 - fbar(rho; .45, .05) fbar(eta; .45, .05)),
    with fbar = 1 - soft_cutoff: vanishes in the phase-1 box (both
    coordinates below ~0.45) and beyond ~0.8 in either coordinate.  The
    grid is cached per (n, m) and read-only.
    """
    rho = np.linspace(0.0, 1.0, n + 1)[:, None]
    eta = np.linspace(0.0, 1.0, m + 1)[None, :]
    fr8 = 1.0 - soft_cutoff(rho, 0.8, 0.05)
    fe8 = 1.0 - soft_cutoff(eta, 0.8, 0.05)
    fr45 = 1.0 - soft_cutoff(rho, 0.45, 0.05)
    fe45 = 1.0 - soft_cutoff(eta, 0.45, 0.05)
    c = fr8 * fe8 * (1.0 - fr45 * fe45)
    c.flags.writeable = False
    return c


def lpf(f: FieldGrid, c) -> FieldGrid:
    """One low-pass filtering sweep (rho pass then eta pass) in the
    computational coordinates; ``c`` is a scalar or a nodal array."""
    quarter = 0.25 * c
    v = f.values
    mid = _second_difference(v, 0, f.parity_r, None, np.empty(v.shape))
    mid *= quarter
    mid += v
    out = _second_difference(mid, 1, f.parity_z, f.parity_z, np.empty(v.shape))
    out *= quarter
    out += mid
    return f.like(out)


def rlpf(fs: tuple, u1_current: np.ndarray, mesh_r: mm.MeshMap, mesh_z: mm.MeshMap,
         k: int, N: int, M: int, c) -> tuple:
    """Re-meshed low-pass filter: coarse-mesh round trip with k passes.

    The coarse (N, M) mesh is rebuilt from the current swirl field so its
    phases track the solution now, not at the last reference time.  Every
    field of ``fs`` shares that mesh pair and its two pull-backs; each is
    filtered on its own, with strength ``c`` on the coarse grid, and
    returned in order.  k = 0 performs the bare interpolation round trip
    (exact on bicubics).
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
            coarse = lpf(coarse, c)
        out.append(f.like(mm.evaluate_ip4(coarse.values, *up, f.parity_r, f.parity_z)))
    return tuple(out)
