"""Time integration: filtering schedule, CFL step control, RK2, mesh updates.

One right-hand-side evaluation follows a fixed schedule: the prognostic
fields are low-pass filtered (uniform 0.1 pass, then the L-shaped tail
pass), the stream function is solved from the filtered vorticity and
filtered once, its derivatives are filtered (with the re-meshed filter
inserted in case 4), velocities are recovered, and the advection, vortex
stretching, and diffusion tendencies are evaluated on the filtered
fields.  The returned tendencies advance the *unfiltered* state, so
filtering acts on the velocity path each evaluation without compounding
on the carried solution.

The run loop records diagnostics on a cadence, rebuilds the adaptive mesh
pair when the front outgrows phase 1, and clamps steps to land exactly on
requested snapshot times.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics as dg
from . import fields as fd
from . import filters as fl
from . import meshmap as mm
from . import physics as ph
from . import poisson as ps
from . import runio
from .errors import BadSetting, DegenerateProfile, NonFinite, NonPositiveDensity, SolveFailure
from .fields import FieldGrid

VELOCITY_FLOOR = 1e-30


@dataclass
class RunConfig:
    case: int = 1
    n: int = 256
    m: int = 128
    t_end: float = 1e-5
    cfl: float = 0.1
    mu: float = 1e-5                 # case 2 only
    rlpf_k: int = 0                  # case 4: filter passes per evaluation
    diag_every: int = 20
    ckpt_every: int = 0              # steps between checkpoints, 0 = off
    snap_times: tuple = ()
    max_steps: int | None = None
    out_dir: str | None = None
    init: ph.InitialDataParams = field(default_factory=ph.InitialDataParams)

    def __post_init__(self):
        if not 0.0 < self.cfl < 1.0:
            raise BadSetting("cfl", "cfl must lie in (0, 1)")
        if self.case not in (1, 2, 3, 4):
            raise BadSetting("case", f"unknown case {self.case}")
        if self.diag_every < 1:
            raise BadSetting("diag_every", f"diag_every must be >= 1, got {self.diag_every}")
        if self.ckpt_every < 0:
            raise BadSetting("ckpt_every", f"ckpt_every must be >= 0, got {self.ckpt_every}")
        if self.rlpf_k < 0:
            raise BadSetting("rlpf_k", f"rlpf_k must be >= 0, got {self.rlpf_k}")


@dataclass
class StepReport:
    t: float
    dt: float
    branch: str
    growth_ratio: float


@dataclass
class SolutionState:
    u1: FieldGrid
    w1: FieldGrid
    t: float
    mesh_r: mm.MeshMap
    mesh_z: mm.MeshMap
    system: ps.GalerkinSystem
    ref_time: float = 0.0


@dataclass
class Aux:
    """Derived fields of one right-hand-side evaluation."""

    psi: FieldGrid
    psi_r: FieldGrid
    psi_z: FieldGrid
    ur: FieldGrid
    uz: FieldGrid
    g: FieldGrid
    nu: ph.NuFields
    u1f: FieldGrid
    w1f: FieldGrid


def omega_theta_sup(w1: FieldGrid, mesh_r: mm.MeshMap) -> float:
    return float(np.abs(mesh_r.nodes_y[:, None] * w1.values).max())


def rhs(u1: FieldGrid, w1: FieldGrid, state: SolutionState, spec: ph.DiffusionSpec,
        cfg: RunConfig, omega_max: float, counters: dict | None = None):
    """Tendencies (du1/dt, dw1/dt) plus the derived fields of the evaluation."""
    mesh_r, mesh_z = state.mesh_r, state.mesh_z
    cL = fl.l_shape_strength(mesh_r.n, mesh_z.n)

    u1f = fl.lpf(fl.lpf(u1, 0.1), cL)
    w1f = fl.lpf(fl.lpf(w1, 0.1), cL)

    psi = state.system.solve(w1f)
    psi = fl.lpf(psi, 1.0)
    psi_r = fd.ddr(psi, mesh_r)
    psi_z = fd.ddz(psi, mesh_z)
    if cfg.case == 4 and cfg.rlpf_k > 0:
        m = mesh_z.n
        psi_r, psi_z = fl.rlpf((psi_r, psi_z), u1.values, mesh_r, mesh_z,
                               cfg.rlpf_k, m, m, fl.l_shape_strength(m, m))
        if counters is not None:
            counters["rlpf_applications"] = counters.get("rlpf_applications", 0) + 2
    psi_r = fl.lpf(psi_r, 1.0)
    psi_z = fl.lpf(psi_z, 1.0)

    ur, uz = fd.velocity_from_stream(psi, mesh_r, mesh_z, psi_r=psi_r, psi_z=psi_z)
    g = FieldGrid(-psi_z.values, "even", "even")
    nu = ph.nu_eval(spec, mesh_r.nodes_y, mesh_z.nodes_y, omega_max)

    # one set of derivatives per field serves advection and diffusion
    du1 = fd.derivatives(u1f, mesh_r, mesh_z)
    dw1 = fd.derivatives(w1f, mesh_r, mesh_z)

    du = -(ur.values * du1.r + uz.values * du1.z) + 2.0 * u1f.values * psi_z.values
    du += fd.diffusion_u1_from(u1f, du1, nu, mesh_r)
    dw = -(ur.values * dw1.r + uz.values * dw1.z) + 2.0 * u1f.values * du1.z
    dw += fd.diffusion_w1_from(w1f, dw1, g, uz, nu, mesh_r, mesh_z)
    aux = Aux(psi, psi_r, psi_z, ur, uz, g, nu, u1f, w1f)
    return du, dw, aux


def compute_dt(aux: Aux, mesh_r: mm.MeshMap, mesh_z: mm.MeshMap, cfl: float):
    """CFL-limited step: min of the convective and diffusive bounds."""
    cell_r = (mesh_r.h * mesh_r.nodes_dy)[:, None]
    cell_z = (mesh_z.h * mesh_z.nodes_dy)[None, :]
    speed_r = np.maximum(np.abs(aux.ur.values), VELOCITY_FLOOR)
    speed_z = np.maximum(np.abs(aux.uz.values), VELOCITY_FLOOR)
    dt_conv = cfl * min((cell_r / speed_r).min(), (cell_z / speed_z).min())
    nu_r_max, nu_z_max = aux.nu.max_values()
    if nu_r_max <= 0.0 and nu_z_max <= 0.0:
        dt_diff = np.inf
    else:
        with np.errstate(divide="ignore"):
            br = (cell_r**2 / np.maximum(aux.nu.nu_r, 1e-300)).min()
            bz = (cell_z**2 / np.maximum(aux.nu.nu_z, 1e-300)).min()
        dt_diff = cfl * min(br, bz)
    if dt_conv <= dt_diff:
        return float(dt_conv), "convective"
    return float(dt_diff), "diffusive"


def step_rk2(state: SolutionState, spec: ph.DiffusionSpec, cfg: RunConfig,
             dt: float | None = None, max_dt: float | None = None,
             counters: dict | None = None, first: tuple | None = None):
    """Advance one Heun step; the time-dependent diffusion floor is frozen
    at the step's start for both stages, and boundary rows are re-enforced
    after each stage.  ``first``, the ``rhs`` result of ``state`` when the
    caller already has it (a record's), is then the first stage."""
    omega_max = omega_theta_sup(state.w1, state.mesh_r)
    if first is None:
        first = rhs(state.u1, state.w1, state, spec, cfg, omega_max, counters)
    du1, dw1, aux1 = first
    branch = "fixed"
    if dt is None:
        dt, branch = compute_dt(aux1, state.mesh_r, state.mesh_z, cfg.cfl)
    if max_dt is not None and dt > max_dt:
        dt = max_dt
        branch = "clamped"

    u_mid = FieldGrid(state.u1.values + dt * du1, "even", "odd")
    w_mid = FieldGrid(state.w1.values + dt * dw1, "even", "odd")
    fd.enforce_boundary(u_mid, w_mid, aux1.psi, state.mesh_r, state.mesh_z)
    if not (np.isfinite(u_mid.values).all() and np.isfinite(w_mid.values).all()):
        raise NonFinite(f"non-finite stage field at t = {state.t:.6e}")

    du2, dw2, aux2 = rhs(u_mid, w_mid, state, spec, cfg, omega_max, counters)
    u_new = FieldGrid(state.u1.values + 0.5 * dt * (du1 + du2), "even", "odd")
    w_new = FieldGrid(state.w1.values + 0.5 * dt * (dw1 + dw2), "even", "odd")
    fd.enforce_boundary(u_new, w_new, aux2.psi, state.mesh_r, state.mesh_z)

    if not (np.isfinite(u_new.values).all() and np.isfinite(w_new.values).all()):
        raise NonFinite(f"non-finite state after step at t = {state.t:.6e}")

    old_u = float(np.abs(state.u1.values).max())
    old_w = float(np.abs(state.w1.values).max())
    growth = max(
        float(np.abs(u_new.values).max()) / old_u if old_u else 1.0,
        float(np.abs(w_new.values).max()) / old_w if old_w else 1.0,
    ) - 1.0
    new_state = replace(state, u1=u_new, w1=w_new, t=state.t + dt)
    report = StepReport(new_state.t, dt, branch, growth)
    return new_state, report, aux1


def rebuild_meshes(state: SolutionState, cfg: RunConfig) -> SolutionState:
    """Re-derive the adaptive maps from the current swirl and move the state."""
    mesh_r, mesh_z = mm.build_pair(
        *mm.derive_targets(state.u1.values, state.mesh_r, state.mesh_z), cfg.n, cfg.m)
    rho, eta = mm.pull_back_nodes(state.mesh_r, state.mesh_z, mesh_r, mesh_z)
    u1, w1 = (FieldGrid(v, "even", "odd") for v in mm._evaluate_many(
        rho, eta, [(state.u1.values, "even", "odd"), (state.w1.values, "even", "odd")]))
    u1.values[-1, :] = 0.0
    for f in (u1, w1):
        f.values[:, 0] = 0.0
        f.values[:, -1] = 0.0
    system = ps.assemble(mesh_r, mesh_z)
    return replace(state, u1=u1, w1=w1, mesh_r=mesh_r, mesh_z=mesh_z,
                   system=system, ref_time=state.t)


def _initial_feature_guess(params: ph.InitialDataParams) -> mm.ProfileFeatures:
    """Crude front location from a dense logarithmic scan of the seed data."""
    rs = np.geomspace(1e-6, 1.0, 2049)
    zs = np.geomspace(1e-8, 0.5, 1025)
    u, _ = ph.initial_point_values(rs[:, None], zs[None, :], params)
    i, j = np.unravel_index(int(np.argmax(u)), u.shape)
    R, Z = rs[i], zs[j]
    du = np.gradient(u[:, j], rs)
    R_r = rs[int(np.argmax(du))]
    d_r = R - R_r
    if d_r <= 0.0:
        raise DegenerateProfile("seed data has no gradient point left of its peak")
    return mm.ProfileFeatures(float(R), float(Z), float(R_r), float(d_r), int(i), int(j))


def build_initial_state(cfg: RunConfig) -> SolutionState:
    """Meshes adapted to the seed data, evaluated and bootstrapped once.

    A crude analytic scan seeds the first mesh pair; the discrete front
    locator then refines the targets on that pair and the final mesh is
    rebuilt from them, so the run starts with the update criteria green.
    """
    feats = _initial_feature_guess(cfg.init)
    mesh_r, mesh_z = mm.build_pair(mm.targets_from_features(feats, "r"),
                                   mm.targets_from_features(feats, "z"), cfg.n, cfg.m)
    for _ in range(2):
        u1, _ = ph.initial_fields(cfg.init, mesh_r, mesh_z)
        mesh_r, mesh_z = mm.build_pair(*mm.derive_targets(u1.values, mesh_r, mesh_z),
                                       cfg.n, cfg.m)
    u1, w1 = ph.initial_fields(cfg.init, mesh_r, mesh_z)
    system = ps.assemble(mesh_r, mesh_z)
    psi = system.solve(fl.lpf(w1, 0.1))
    fd.enforce_boundary(u1, w1, psi, mesh_r, mesh_z)
    return SolutionState(u1, w1, 0.0, mesh_r, mesh_z, system)


def make_record(state: SolutionState, aux: Aux, dt: float, mesh_updated: bool) -> dg.DiagnosticsRecord:
    """Assemble one diagnostics row from a state and its derived fields."""
    mesh_r, mesh_z = state.mesh_r, state.mesh_z
    u1, w1 = state.u1, state.w1
    u1_r = fd.ddr(u1, mesh_r).values
    u1_z = fd.ddz(u1, mesh_z).values
    wth, wr_, wz_, wvec = dg.sup_norms(*dg.vorticity_from(u1, w1, u1_r, u1_z, mesh_r))
    R, Z, upeak = dg.max_location(u1, mesh_r, mesh_z)
    i, j = np.unravel_index(int(np.argmax(u1.values)), u1.values.shape)
    u_at_peak = u1.values[i, j]
    align = float(aux.psi_z.values[i, j] / u_at_peak) if u_at_peak else 0.0
    gamma = float(mesh_r.nodes_y[i] ** 2 * u_at_peak)
    gamma_max = float((mesh_r.nodes_y[:, None] ** 2 * u1.values).max())
    me_r_u, me_e_u = dg.mesh_effectiveness(u1, mesh_r, mesh_z)
    me_r_w, me_e_w = dg.mesh_effectiveness(w1, mesh_r, mesh_z)
    return dg.DiagnosticsRecord(
        t=state.t,
        u1_max=float(np.abs(u1.values).max()),
        w1_max=float(np.abs(w1.values).max()),
        omega_theta_max=wth,
        omega_r_max=wr_,
        omega_z_max=wz_,
        omega_vec_max=wvec,
        psi1_r_max=float(np.abs(aux.psi_r.values).max()),
        psi1_z_max=float(np.abs(aux.psi_z.values).max()),
        u1_r_max=float(np.abs(u1_r).max()),
        u1_z_max=float(np.abs(u1_z).max()),
        R=R, Z=Z,
        energy=dg.kinetic_energy(u1, aux.ur, aux.uz, mesh_r, mesh_z),
        align_ratio=align,
        gamma_at_peak=gamma,
        gamma_max=gamma_max,
        me_rho_u1=me_r_u, me_eta_u1=me_e_u,
        me_rho_w1=me_r_w, me_eta_w1=me_e_w,
        dt=dt, mesh_updated=int(mesh_updated),
        poisson_residual=state.system.last_residual(),
    )


@dataclass
class RunResult:
    reason: str
    records: list
    state: SolutionState
    steps: int
    counters: dict
    out_dir: str | None = None


def run(cfg: RunConfig, progress=None) -> RunResult:
    """March the configured case to t_end, emitting records and artifacts.

    Halts with reason 'completed', 'nonfinite' (the computation itself
    blew up), or 'mesh-failure' (the front lost the structure the adaptive
    maps need).  Snapshot times are landed on exactly by clamping dt.
    """
    spec = ph.spec_for_case(cfg.case, cfg.mu)
    state = build_initial_state(cfg)
    counters: dict = {"mesh_rebuilds": 0, "rlpf_applications": 0}
    records: list = []

    out = cfg.out_dir
    writer = None
    files = []
    if out:
        os.makedirs(out, exist_ok=True)
        os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(out, "meshes"), exist_ok=True)
        writer = runio.DiagnosticsWriter(os.path.join(out, "diagnostics.csv"),
                                         dg.DiagnosticsRecord.header())
        files.append("diagnostics.csv")

    def emit_meshes(tag):
        if not out:
            return
        for name, mesh in (("r", state.mesh_r), ("z", state.mesh_z)):
            rel = f"meshes/mesh_{tag}_{name}.txt"
            with open(os.path.join(out, rel), "w") as fh:
                fh.write(mm.dump_mesh(mesh))
            files.append(rel)

    def emit_checkpoint():
        if not out:
            return
        rel = f"checkpoints/ckpt_{runio.fmt(state.t)}.bin"
        runio.write_checkpoint(os.path.join(out, rel), state.t, cfg.case,
                               state.u1, state.w1, state.mesh_r, state.mesh_z)
        files.append(rel)

    def emit_record(dt, mesh_updated):
        """Record the current state; returns its rhs, the next step's first stage."""
        evaluation = rhs(state.u1, state.w1, state, spec, cfg,
                         omega_theta_sup(state.w1, state.mesh_r), counters)
        rec = make_record(state, evaluation[2], dt, mesh_updated)
        records.append(rec)
        if writer:
            writer.write(rec.row())
        return evaluation

    reason = "completed"
    steps = 0
    snaps = sorted(t for t in cfg.snap_times if t > 0.0)
    t_scale = max(cfg.t_end, snaps[-1] if snaps else 0.0, 1e-300)
    wall_start = time.time()

    # initial record and artifacts
    first = emit_record(0.0, False)
    emit_meshes("init")
    emit_checkpoint()

    try:
        while state.t < cfg.t_end * (1.0 - 1e-12):
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                reason = "max-steps"
                break
            next_stop = cfg.t_end
            for s in snaps:
                if s > state.t * (1.0 + 1e-12):
                    next_stop = min(next_stop, s)
                    break
            state, report, _ = step_rk2(state, spec, cfg, max_dt=next_stop - state.t,
                                        counters=counters, first=first)
            first = None
            steps += 1

            hit_snap = any(abs(state.t - s) <= 1e-9 * t_scale for s in snaps)
            if hit_snap:
                emit_checkpoint()
            elif cfg.ckpt_every and steps % cfg.ckpt_every == 0:
                emit_checkpoint()

            mesh_updated = False
            flag, why = mm.needs_update(state.u1.values, state.mesh_r, state.mesh_z)
            if flag:
                state = rebuild_meshes(state, cfg)
                counters["mesh_rebuilds"] += 1
                counters[f"rebuild_{why}"] = counters.get(f"rebuild_{why}", 0) + 1
                mesh_updated = True
                emit_meshes(runio.fmt(state.t))

            done = state.t >= cfg.t_end * (1.0 - 1e-12)
            if steps % cfg.diag_every == 0 or mesh_updated or done or hit_snap:
                first = emit_record(report.dt, mesh_updated)
            if progress and steps % progress == 0:
                r = records[-1] if records else None
                print(f"  step {steps}  t={state.t:.6e} dt={report.dt:.3e} "
                      f"|u1|={r.u1_max if r else 0.0:.4e} "
                      f"({time.time() - wall_start:.0f}s)", flush=True)
    except NonFinite:
        reason = "nonfinite"
    except (DegenerateProfile, NonPositiveDensity):
        reason = "mesh-failure"

    final_error = None
    if not records or records[-1].t < state.t:
        try:
            emit_record(0.0, False)
        except (NonFinite, SolveFailure, DegenerateProfile, NonPositiveDensity) as exc:
            # the state that halted the loop can fail again in rhs (rlpf
            # re-derives the same mesh targets); log it, keep the artifacts
            final_error = f"{type(exc).__name__}: {exc}"
    emit_checkpoint()

    if out:
        nu_probe = ph.nu_eval(spec, state.mesh_r.nodes_y, state.mesh_z.nodes_y,
                              max(omega_theta_sup(state.w1, state.mesh_r), 1e-300)
                              if spec.variant == ph.CASE_DEGENERATE else None)
        entries = {
            "case": cfg.case,
            "n": cfg.n, "m": cfg.m,
            "t_end": runio.fmt(cfg.t_end),
            "t_final": runio.fmt(state.t),
            "cfl": runio.fmt(cfg.cfl),
            "reason": reason,
            "steps": steps,
            "nu_variant": {1: "degenerate", 2: "constant", 3: "inviscid"}[spec.variant],
            "nu_r_max": runio.fmt(nu_probe.max_values()[0]),
            "nu_z_max": runio.fmt(nu_probe.max_values()[1]),
            "mu": runio.fmt(cfg.mu) if cfg.case == 2 else "n/a",
            "rlpf_k": cfg.rlpf_k,
        }
        if final_error:
            entries["final_record_error"] = final_error
        entries.update({k: v for k, v in sorted(counters.items())})
        runio.write_manifest(out, entries, files)
        writer.close()
    return RunResult(reason, records, state, steps, counters, out)
