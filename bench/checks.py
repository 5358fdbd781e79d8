"""Correctness checks of the benchmark workloads.

Every check compares a program output with a quantity computed apart
from the program (an analytic field, a known exponent, the bytes just
written) or with a property the method must have (the circulation
maximum principle, energy decay, focusing growth).  None compares with a
stored copy of earlier output.  Each returns a :class:`Check`; the
benchmark's tests feed each one a corrupted input and confirm that it
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from axiblow import meshmap as mm
from axiblow import runio

# Largest relative rise of max(r^2 u1) over the records.  Round-off and
# the filters move it by about 2.5e-5 over 200 steps at 256x128.
GAMMA_REL_TOL = 1e-3
# Largest relative rise of the kinetic energy over the records.
ENERGY_REL_TOL = 1e-3
# Sup error of the manufactured Poisson solve on a 256x128 adaptive mesh
# pair (about 3e-3 there); the solver is second order, so the bound
# scales with (256 / n)^2 at other resolutions.
POISSON_SUP_BOUND_256 = 1e-2
# Absolute error of a recovered inverse-power-law exponent.
FIT_ABS_TOL = 1e-3
# Relative radius drift of a streamline in a pure rotation.
ROTATION_REL_TOL = 1e-4
# Relative drift of the Stokes stream function r^2 psi1 along a streamline.
STOKES_REL_TOL = 1e-3
# Relative sup error of sample_ip4 on a smooth analytic field.
SAMPLE_REL_TOL = 1e-3


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def circulation(records) -> Check:
    """max(r^2 u1) never exceeds its initial value (maximum principle)."""
    g0 = records[0].gamma_max
    rise = max(r.gamma_max for r in records) / g0 - 1.0
    return Check("circulation", rise <= GAMMA_REL_TOL,
                 f"gamma_max rose by {rise:.3e} of its initial {g0:.6e} (tol {GAMMA_REL_TOL:g})")


def energy(records) -> Check:
    """Kinetic energy does not grow (the system is dissipative)."""
    e0 = records[0].energy
    rise = max(r.energy for r in records) / e0 - 1.0
    return Check("energy", rise <= ENERGY_REL_TOL,
                 f"energy rose by {rise:.3e} of its initial {e0:.6e} (tol {ENERGY_REL_TOL:g})")


def focusing(records) -> Check:
    """The swirl maximum at the end exceeds its initial value."""
    u0, u1 = records[0].u1_max, records[-1].u1_max
    return Check("focusing", u1 > u0, f"u1_max {u0:.9e} -> {u1:.9e}")


def manufactured_pair(mesh_r: mm.MeshMap, mesh_z: mm.MeshMap):
    """psi = (1 - r^2) sin(2 pi z) and its load w = -(psi_rr + 3 psi_r / r + psi_zz)."""
    r = mesh_r.nodes_y[:, None]
    z = mesh_z.nodes_y[None, :]
    psi = (1.0 - r**2) * np.sin(2.0 * np.pi * z)
    w = (8.0 + 4.0 * np.pi**2 * (1.0 - r**2)) * np.sin(2.0 * np.pi * z)
    return psi, w


def poisson(psi: np.ndarray, mesh_r: mm.MeshMap, mesh_z: mm.MeshMap) -> Check:
    """A solve of the manufactured load is within the second-order bound."""
    bound = POISSON_SUP_BOUND_256 * (256 / mesh_r.n) ** 2
    exact, _ = manufactured_pair(mesh_r, mesh_z)
    err = float(np.abs(psi - exact).max())
    return Check("poisson", err <= bound,
                 f"manufactured sup error {err:.3e} on {mesh_r.n}x{mesh_z.n} (bound {bound:g})")


def checkpoint(path, t: float, u1: np.ndarray, w1: np.ndarray,
               mesh_r: mm.MeshMap, mesh_z: mm.MeshMap) -> Check:
    """A checkpoint reads back bit for bit equal to the in-memory state."""
    try:
        back = runio.read_checkpoint(path)
    except (OSError, ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
        return Check("checkpoint", False, f"reading {path} failed: {exc!r}")
    same = (back.t == t
            and back.u1.values.tobytes() == np.asarray(u1, dtype="<f8").tobytes()
            and back.w1.values.tobytes() == np.asarray(w1, dtype="<f8").tobytes()
            and np.array_equal(back.mesh_r.nodes_y, mesh_r.nodes_y)
            and np.array_equal(back.mesh_z.nodes_y, mesh_z.nodes_y))
    return Check("checkpoint", same,
                 f"{path} at t = {t:.17g} {'matches' if same else 'differs from'} the state")


def fit(c_fit: float, c_true: float) -> Check:
    """A fitted exponent recovers the exponent the series was made with."""
    err = abs(c_fit - c_true)
    return Check("fit", err <= FIT_ABS_TOL,
                 f"c = {c_fit:.6f} for true {c_true:.6f} (tol {FIT_ABS_TOL:g})")


def rotation(points: np.ndarray, r0: float) -> Check:
    """A streamline of a pure rotation keeps its starting radius."""
    drift = float(np.abs(np.hypot(points[:, 0], points[:, 1]) / r0 - 1.0).max())
    return Check("rotation", drift <= ROTATION_REL_TOL,
                 f"radius drift {drift:.3e} over {len(points) - 1} steps "
                 f"(tol {ROTATION_REL_TOL:g})")


def stokes(points: np.ndarray, psi: np.ndarray, mesh_r: mm.MeshMap,
           mesh_z: mm.MeshMap) -> Check:
    """r^2 psi1, the Stokes stream function, is constant along a streamline."""
    r = np.hypot(points[:, 0], points[:, 1])
    z = points[:, 2]
    stream = np.array([r[k] ** 2 * mm.sample_ip4(psi, mesh_r, mesh_z, [r[k]], [z[k]],
                                                  "even", "odd")[0, 0]
                       for k in range(len(r))])
    drift = float(np.abs(stream / stream[0] - 1.0).max())
    return Check("stokes", drift <= STOKES_REL_TOL,
                 f"r^2 psi1 drift {drift:.3e} over {len(points) - 1} steps "
                 f"(tol {STOKES_REL_TOL:g})")


def sampling(sampled: np.ndarray, exact: np.ndarray) -> Check:
    """sample_ip4 of a smooth analytic field matches the field."""
    err = float(np.abs(sampled - exact).max() / np.abs(exact).max())
    return Check("sampling", err <= SAMPLE_REL_TOL,
                 f"relative sup error {err:.3e} (tol {SAMPLE_REL_TOL:g})")
