"""Command-line front end: run, study, fit, mesh-dump.

The heavy numerical modules are imported inside the command handlers so
that SIM_THREADS can cap the BLAS/OpenMP pools before numpy starts.
"""

from __future__ import annotations

import argparse
import os
import sys


def _apply_thread_cap():
    cap = os.environ.get("SIM_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def parse_config(path):
    """Read a key = value run configuration file.

    Lines are 'key = value' with '#' comments; keys mirror the run
    configuration plus 'init.<param>' overrides of the initial data.
    Malformed lines report their line number.
    """
    from .errors import ConfigError

    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            values[key] = (val, lineno)
    return values


def build_run_config(file_values=None, overrides=None):
    """Merge config-file values and CLI overrides into a RunConfig."""
    import dataclasses

    from .errors import BadSetting, ConfigError
    from .physics import InitialDataParams
    from .stepper import RunConfig

    cfg_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    init_fields = {f.name for f in dataclasses.fields(InitialDataParams)}
    kwargs = {}
    init_kwargs = {}
    source = {}  # where each setting came from, for RunConfig's range errors

    def convert(name, raw, lineno=None):
        where = f" (line {lineno})" if lineno else ""
        try:
            if name == "snap_times":
                return tuple(float(x) for x in raw.replace(",", " ").split())
            if name == "out_dir":
                return str(raw)
            if name == "max_steps":
                return int(raw)
            if str(cfg_fields[name].type).startswith("int"):
                return int(raw)
            return float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {name!r}{where}: {raw!r} ({exc})") from exc

    for key, (raw, lineno) in (file_values or {}).items():
        if key.startswith("init."):
            pname = key[5:]
            if pname not in init_fields:
                raise ConfigError(f"unknown initial-data parameter {pname!r} (line {lineno})")
            try:
                init_kwargs[pname] = float(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} (line {lineno}): {raw!r}") from exc
            continue
        if key not in cfg_fields or key == "init":
            raise ConfigError(f"unknown configuration key {key!r} (line {lineno})")
        kwargs[key] = convert(key, raw, lineno)
        source[key] = f"line {lineno}"

    for key, val in (overrides or {}).items():
        if val is None:
            continue
        kwargs[key] = val
        source[key] = "command line"

    if init_kwargs:
        kwargs["init"] = InitialDataParams(**init_kwargs)
    try:
        return RunConfig(**kwargs)
    except BadSetting as exc:
        where = source.get(exc.field, "default")
        raise ConfigError(f"bad value for {exc.field!r} ({where}): {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad run configuration: {exc}") from exc


def _add_run_flags(p):
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--out", help="run artifact directory")
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--mu", type=float, help="constant diffusion coefficient (case 2)")
    p.add_argument("--rlpf-k", type=int, dest="rlpf_k", help="re-meshed filter passes (case 4)")
    p.add_argument("--n", type=int, help="radial resolution")
    p.add_argument("--m", type=int, help="axial resolution")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--cfl", type=float)


def _overrides_from(args):
    return {
        "case": args.case,
        "mu": args.mu,
        "rlpf_k": args.rlpf_k,
        "n": args.n,
        "m": args.m,
        "t_end": args.t_end,
        "cfl": args.cfl,
        "out_dir": args.out,
    }


def cmd_run(args) -> int:
    from .stepper import run

    file_values = parse_config(args.config) if args.config else {}
    cfg = build_run_config(file_values, _overrides_from(args))
    res = run(cfg, progress=args.progress)
    last = res.records[-1]
    print(f"run {res.reason}: case={cfg.case} ({cfg.n}x{cfg.m}) "
          f"t={res.state.t:.8e} steps={res.steps}")
    print(f"  |u1|={last.u1_max:.6e} |omega|={last.omega_vec_max:.6e} "
          f"R={last.R:.4e} Z={last.Z:.4e} E={last.energy:.6e}")
    if cfg.out_dir:
        print(f"  artifacts in {cfg.out_dir}")
    return 0 if res.reason == "completed" else 1


def _nearest_checkpoint(run_dir, t):
    import glob

    paths = glob.glob(os.path.join(run_dir, "checkpoints", "ckpt_*.bin"))
    if not paths:
        raise FileNotFoundError(f"no checkpoints under {run_dir}")
    times = [float(os.path.basename(p)[5:-4]) for p in paths]
    best = min(range(len(paths)), key=lambda i: abs(times[i] - t))
    if abs(times[best] - t) > 1e-9 * max(abs(t), 1e-30):
        raise FileNotFoundError(
            f"no checkpoint at t = {t:g} under {run_dir} (nearest {times[best]:g})")
    return paths[best]


def study_errors(out_root, p_values, instant):
    """Sup-norm relative errors and orders against the next-finer run.

    Returns rows (p, mesh label, {field: error}, {field: order or None});
    the vector vorticity uses the magnitude-of-difference convention.
    """
    import numpy as np

    from . import diagnostics as dg
    from . import meshmap as mm
    from . import runio

    fields = ("u1", "w1", "omega_vec")
    errors = {f: {} for f in fields}
    for p, p_next in zip(p_values[:-1], p_values[1:]):
        coarse = runio.read_checkpoint(
            _nearest_checkpoint(os.path.join(out_root, f"p{p}"), instant))
        fine = runio.read_checkpoint(
            _nearest_checkpoint(os.path.join(out_root, f"p{p_next}"), instant))

        def down(values, parity_z="odd"):
            return mm.interpolate_ip4(values, fine.mesh_r, fine.mesh_z,
                                      coarse.mesh_r, coarse.mesh_z,
                                      parity_r="even", parity_z=parity_z)

        for name in ("u1", "w1"):
            f_c = getattr(coarse, name).values
            f_ref = down(getattr(fine, name).values)
            errors[name][p] = float(np.abs(f_c - f_ref).max() / np.abs(f_ref).max())

        wt_c, wr_c, wz_c = dg.vorticity_vector(coarse.u1, coarse.w1,
                                               coarse.mesh_r, coarse.mesh_z)
        wt_f, wr_f, wz_f = dg.vorticity_vector(fine.u1, fine.w1,
                                               fine.mesh_r, fine.mesh_z)
        dt_ = wt_c - down(wt_f, "odd")
        dr_ = wr_c - down(wr_f, "even")
        dz_ = wz_c - down(wz_f, "odd")
        num = np.sqrt(dt_**2 + dr_**2 + dz_**2).max()
        den = np.sqrt(down(wt_f)**2 + down(wr_f, "even")**2 + down(wz_f)**2).max()
        errors["omega_vec"][p] = float(num / den)

    orders = {f: {} for f in fields}
    for name in fields:
        for prev, p in zip(p_values[:-2], p_values[1:-1]):
            e_prev, e_cur = errors[name][prev], errors[name][p]
            orders[name][p] = float(np.log(e_prev / e_cur) / np.log(p / prev))
    return errors, orders


def format_study_table(p_values, instant, errors, orders) -> str:
    from .runio import fmt

    lines = [f"# sup-norm relative errors at t = {fmt(instant)} (reference: next-finer mesh)",
             "mesh,u1,order_u1,w1,order_w1,omega_vec,order_omega_vec"]
    for p in p_values[:-1]:
        cells = [f"{256 * p}x{128 * p}"]
        for name in ("u1", "w1", "omega_vec"):
            cells.append(fmt(errors[name][p]))
            o = orders[name].get(p)
            cells.append(fmt(o) if o is not None else "--")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_study(args) -> int:
    from .stepper import run

    p_values = sorted(int(x) for x in args.p.replace(",", " ").split())
    instants = [float(x) for x in args.instants.replace(",", " ").split()]
    if len(p_values) < 2:
        raise SystemExit("study needs at least two p values")
    file_values = parse_config(args.config) if args.config else {}
    os.makedirs(args.out, exist_ok=True)

    for p in p_values:
        run_dir = os.path.join(args.out, f"p{p}")
        try:
            for t in instants:
                _nearest_checkpoint(run_dir, t)
            print(f"p={p}: reusing artifacts in {run_dir}")
            continue
        except FileNotFoundError:
            pass
        overrides = _overrides_from(args)
        overrides.update({"n": 256 * p, "m": 128 * p, "out_dir": run_dir,
                          "t_end": max(instants), "snap_times": tuple(instants)})
        cfg = build_run_config(file_values, overrides)
        print(f"p={p}: running {cfg.n}x{cfg.m} to t={cfg.t_end:g}")
        res = run(cfg, progress=args.progress)
        if res.reason != "completed":
            raise SystemExit(f"study run p={p} halted: {res.reason}")

    for t in instants:
        errors, orders = study_errors(args.out, p_values, t)
        table = format_study_table(p_values, t, errors, orders)
        name = f"study_errors_t{t:g}.csv"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(table)
        print(table, end="")
        print(f"-> {os.path.join(args.out, name)}")
    return 0


def cmd_fit(args) -> int:
    from .errors import DegenerateFit
    from .fitting import TimeSeries, fit_model1, fit_model2
    from .runio import fmt, read_diagnostics

    data = read_diagnostics(args.csv)
    if args.column not in data:
        raise SystemExit(f"column {args.column!r} not in {args.csv} "
                         f"(have: {', '.join(sorted(data))})")
    t1, t2 = args.window
    mask = data[args.column] > 0.0
    series = TimeSeries(data["t"][mask], data[args.column][mask])
    if not ((series.t >= t1) & (series.t <= t2)).any():
        raise SystemExit(f"window [{t1:g}, {t2:g}] contains no samples")

    lines = [f"# inverse-power-law fit of {args.column} on [{fmt(t1)}, {fmt(t2)}]",
             "model,c,T,r2"]
    try:
        crude = fit_model1(series, (t1, t2))
        lines.append(f"1,{fmt(crude.c)},{fmt(crude.T)},{fmt(crude.r2)}")
        seed = crude.c
    except DegenerateFit as exc:
        lines.append(f"1,degenerate,--,--  # {exc}")
        seed = 1.0
    fine = fit_model2(series, (t1, t2), seed)
    lines.append(f"2,{fmt(fine.c)},{fmt(fine.T)},{fmt(fine.r2)}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


def cmd_mesh_dump(args) -> int:
    from .meshmap import dump_mesh
    from .runio import read_checkpoint

    ck = read_checkpoint(args.checkpoint)
    mesh = ck.mesh_r if args.axis == "r" else ck.mesh_z
    text = dump_mesh(mesh)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = argparse.ArgumentParser(
        prog="axiblow",
        description="Adaptive-mesh axisymmetric flow solver with blowup diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    _add_run_flags(p_run)
    p_run.add_argument("--progress", type=int, default=0,
                       help="print a status line every N steps")
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="resolution study across (256p, 128p) meshes")
    _add_run_flags(p_study)
    p_study.add_argument("--p", required=True, help="comma-separated p values")
    p_study.add_argument("--instants", required=True, help="comparison times")
    p_study.add_argument("--progress", type=int, default=0)
    p_study.set_defaults(func=cmd_study)

    p_fit = sub.add_parser("fit", help="fit an inverse power law to a diagnostics column")
    p_fit.add_argument("csv")
    p_fit.add_argument("column")
    p_fit.add_argument("--window", type=float, nargs=2, metavar=("T1", "T2"),
                       default=(1.60e-4, 1.75e-4))
    p_fit.add_argument("--out", help="also write the report here")
    p_fit.set_defaults(func=cmd_fit)

    p_dump = sub.add_parser("mesh-dump", help="dump a mesh map from a checkpoint")
    p_dump.add_argument("checkpoint")
    p_dump.add_argument("--axis", choices=("r", "z"), default="r")
    p_dump.add_argument("--out")
    p_dump.set_defaults(func=cmd_mesh_dump)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
