"""axiblow benchmark: run one named workload and print its metrics.

    python3 bench/run.py --workload case1-256-remesh --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  After a cold set-up the workload repeats whole rounds of a
fixed amount of work until ``--seconds`` have passed, then checks the
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See bench/README.md for the workloads and metrics.
"""

import os
import sys
import time

# The BLAS/OpenMP pools are sized when numpy loads, so pin them first.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "SIM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "_out")


def seconds_since_process_start() -> float:
    """Wall seconds since this process was started (10 ms resolution, Linux)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_axiblow():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import axiblow
    except ImportError as exc:
        sys.exit(f"bench: cannot import axiblow from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(axiblow.__file__))
    if where != os.path.join(SRC, "axiblow"):
        sys.exit(f"bench: axiblow was imported from {where}, not from {SRC}")


# -- solver workloads ---------------------------------------------------------

@dataclass(frozen=True)
class SolverWorkload:
    case: int
    n: int
    m: int
    steps: int          # Heun steps per round
    diag_every: int
    ckpt_every: int     # 0 = no periodic checkpoints
    rlpf_k: int
    artifacts: bool     # write a run directory each round


# Relative size of the seeded perturbation of the initial swirl.
PERTURBATION = 1e-8

SOLVERS = {
    "case1-256-remesh": SolverWorkload(1, 256, 128, 30, 10, 10, 0, True),
    "case1-512-steady": SolverWorkload(1, 512, 256, 5, 5, 0, 0, False),
    "case4-rlpf-256": SolverWorkload(4, 256, 128, 10, 5, 0, 5, False),
}


def seeded_state(spec: SolverWorkload, seed: int):
    """The initial Case-1 state, its swirl scaled by 1 + 1e-8 phi(rho, eta).

    phi is a seeded sum of cos(k pi rho) cos(2 l pi eta), k, l < 3, which
    keeps u1 even in r, odd in z and zero on the wall and symmetry rows.
    """
    from axiblow import stepper
    from axiblow.fields import FieldGrid

    cfg = stepper.RunConfig(case=spec.case, n=spec.n, m=spec.m, rlpf_k=spec.rlpf_k)
    state = stepper.build_initial_state(cfg)
    amp = np.random.default_rng(seed).standard_normal((3, 3))
    rho = np.pi * state.mesh_r.nodes_s[:, None]
    eta = 2.0 * np.pi * state.mesh_z.nodes_s[None, :]
    phi = sum(amp[k, l] * np.cos(k * rho) * np.cos(l * eta)
              for k in range(3) for l in range(3))
    u1 = FieldGrid(state.u1.values * (1.0 + PERTURBATION * phi), "even", "odd")
    return replace(state, u1=u1)


class Solver:
    """Fixed-step Case-1/Case-4 runs through stepper.run from one seeded state."""

    def __init__(self, name: str, seed: int, out_dir: str):
        from axiblow import stepper

        self.spec = spec = SOLVERS[name]
        self.out_dir = out_dir
        self.state0 = seeded_state(spec, seed)
        self.cfg = stepper.RunConfig(case=spec.case, n=spec.n, m=spec.m, t_end=1.0,
                                     rlpf_k=spec.rlpf_k, diag_every=spec.diag_every,
                                     ckpt_every=spec.ckpt_every, max_steps=spec.steps)
        # stepper.run builds its own initial state; every round starts from
        # a copy of the one made (and timed) during set-up instead.
        stepper.build_initial_state = lambda cfg: replace(
            self.state0, u1=self.state0.u1.like(self.state0.u1.values.copy()),
            w1=self.state0.w1.like(self.state0.w1.values.copy()))
        # A timestamp at the start of every Heun step cuts a round into
        # pieces: one step with the records, checkpoints and rebuild after it.
        step = stepper.step_rk2

        def marked_step(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return step(*args, **kwargs)

        stepper.step_rk2 = marked_step
        self.marks = []
        self.pieces = spec.steps + 1    # pieces in a round that does not halt
        self.rounds = 0
        self.result = None

    def run_round(self):
        from axiblow import stepper

        run_dir = None
        if self.spec.artifacts:
            run_dir = os.path.join(self.out_dir, f"round{self.rounds}")
            shutil.rmtree(os.path.join(self.out_dir, f"round{self.rounds - 1}"),
                          ignore_errors=True)
        cfg = replace(self.cfg, out_dir=run_dir)
        self.result = None
        self.marks = [time.perf_counter()]
        self.result = stepper.run(cfg)
        self.marks.append(time.perf_counter())
        self.rounds += 1
        halted = self.result.reason in ("nonfinite", "mesh-failure")
        failed = self.spec.steps - self.result.steps if halted else 0
        return list(np.diff(self.marks)), self.spec.steps, failed

    def checks(self):
        import checks
        from axiblow import runio

        res = self.result
        state = res.state
        _, w = checks.manufactured_pair(state.mesh_r, state.mesh_z)
        out = [checks.circulation(res.records), checks.energy(res.records),
               checks.focusing(res.records),
               checks.poisson(state.system.solve(w).values, state.mesh_r, state.mesh_z)]
        if self.spec.artifacts:
            path = os.path.join(res.out_dir, "checkpoints", f"ckpt_{runio.fmt(state.t)}.bin")
            out.append(checks.checkpoint(path, state.t, state.u1.values, state.w1.values,
                                         state.mesh_r, state.mesh_z))
        return out


# -- post-processing workload ---------------------------------------------------

STREAMLINES = 2        # streamlines of the computed flow per round
STREAMLINE_STEPS = 8   # RK4 steps per streamline
FIT_SERIES = 3


def synthetic_series(rng):
    """v = alpha (T - t)^(-c) on 201 samples of [1.5e-4, 1.75e-4]."""
    from axiblow import fitting

    c = rng.uniform(0.5, 2.5)
    T = 1.75e-4 + rng.uniform(1e-6, 5e-6)
    alpha = rng.uniform(1.0, 10.0)
    t = np.linspace(1.5e-4, 1.75e-4, 201)
    return c, fitting.TimeSeries(t, alpha * (T - t) ** (-c))


def analytic_field(r, z):
    """Smooth test field, even in r and odd about z = 0 and z = 1/2."""
    return np.cos(1.3 * r) * np.sin(2.0 * np.pi * z) * (1.0 + 0.5 * np.cos(2.0 * np.pi * z))


class Postprocess:
    """Diagnostics, checkpoint I/O and fits on the seeded 256x128 state."""

    def __init__(self, seed: int, out_dir: str):
        from axiblow import diagnostics, fields, stepper
        from axiblow.fields import FieldGrid

        rng = np.random.default_rng(seed)
        self.state = state = stepper.build_initial_state(stepper.RunConfig(n=256, m=128))
        mr, mz = state.mesh_r, state.mesh_z
        self.psi = state.system.solve(state.w1)
        self.ur, self.uz = fields.velocity_from_stream(self.psi, mr, mz)
        self.R, self.Z, _ = diagnostics.max_location(state.u1, mr, mz)
        speed = float(np.hypot(np.abs(self.ur.values).max(), np.abs(self.uz.values).max())
                      + np.abs(mr.nodes_y[:, None] * state.u1.values).max())
        # Each RK4 step moves a point by at most a tenth of the peak height.
        self.ds = 0.1 * self.Z / speed
        self.starts = [(self.R * rng.uniform(0.8, 1.2), rng.uniform(0.0, 2.0 * np.pi),
                        self.Z * rng.uniform(0.6, 1.4)) for _ in range(STREAMLINES)]
        shape = state.u1.values.shape
        self.spin = (FieldGrid(np.ones(shape), "even", "even"),
                     FieldGrid(np.zeros(shape), "odd", "even"),
                     FieldGrid(np.zeros(shape), "even", "odd"))
        self.spin_start = (rng.uniform(0.2, 0.8), rng.uniform(0.0, 2.0 * np.pi),
                           rng.uniform(0.1, 0.4))
        self.xi = np.linspace(-1.0, 1.0, 41) * rng.uniform(1.5, 2.5)
        self.zeta = np.linspace(0.0, 3.0, 41)
        self.series = [synthetic_series(rng) for _ in range(FIT_SERIES)]
        self.sample_r = np.sort(10.0 ** rng.uniform(-5.0, 0.0, 32))
        self.sample_z = np.sort(0.5 * 10.0 ** rng.uniform(-5.0, 0.0, 32))
        self.sample_values = analytic_field(mr.nodes_y[:, None], mz.nodes_y[None, :])
        self.ckpt = os.path.join(out_dir, "state.bin")
        os.makedirs(out_dir, exist_ok=True)
        self.out = {}
        self.calls = self.batch()
        self.pieces = len(self.calls)

    def batch(self):
        """The calls of one round as (key of the kept result or None, call)."""
        from axiblow import diagnostics, fitting, meshmap, runio

        s, mr, mz = self.state, self.state.mesh_r, self.state.mesh_z
        window = (1.6e-4, 1.75e-4)
        calls = [(f"line{k}", lambda o=origin: diagnostics.streamline(
                     s.u1, self.ur, self.uz, mr, mz, o,
                     s_max=STREAMLINE_STEPS * self.ds, ds=self.ds))
                 for k, origin in enumerate(self.starts)]
        calls.append(("spin", lambda: diagnostics.streamline(
            *self.spin, mr, mz, self.spin_start, s_max=2.0, ds=0.25)))
        calls += [(None, lambda f=f: diagnostics.rescaled_profile(
                      f, mr, mz, self.R, self.Z, self.xi, self.zeta, "even", "odd"))
                  for f in (s.u1, s.w1)]
        calls.append((None, lambda: diagnostics.level_set_parallelism(s.u1, s.w1, mr, mz)))
        calls.append(("sampled", lambda: meshmap.sample_ip4(
            self.sample_values, mr, mz, self.sample_r, self.sample_z, "even", "odd")))
        calls.append((None, lambda: runio.write_checkpoint(self.ckpt, s.t, 1, s.u1, s.w1,
                                                           mr, mz)))
        calls.append((None, lambda: runio.read_checkpoint(self.ckpt)))
        for k, (_, series) in enumerate(self.series):
            calls.append((f"crude{k}", lambda se=series: fitting.fit_model1(se, window)))
            calls.append((f"fit{k}", lambda se=series, k=k: fitting.fit_model2(
                se, window, self.out[f"crude{k}"].c)))
        return calls

    def run_round(self):
        """One batch of calls, each its own piece of the round."""
        self.out, pieces = {}, []
        for key, call in self.calls:
            start = time.perf_counter()
            result = call()
            pieces.append(time.perf_counter() - start)
            if key:
                self.out[key] = result
        lines = [f"line{k}" for k in range(STREAMLINES)] + ["spin"]
        return pieces, len(self.calls), sum(int(self.out[k][1]) for k in lines)

    def checks(self):
        import checks

        s, mr, mz = self.state, self.state.mesh_r, self.state.mesh_z
        out = [checks.fit(self.out[f"fit{k}"].c, c) for k, (c, _) in enumerate(self.series)]
        out.append(checks.rotation(self.out["spin"][0], self.spin_start[0]))
        out.extend(checks.stokes(self.out[f"line{k}"][0], self.psi.values, mr, mz)
                   for k in range(STREAMLINES))
        exact = analytic_field(self.sample_r[:, None], self.sample_z[None, :])
        out.append(checks.sampling(self.out["sampled"], exact))
        out.append(checks.checkpoint(self.ckpt, s.t, s.u1.values, s.w1.values, mr, mz))
        return out


WORKLOADS = tuple(SOLVERS) + ("postprocess-256",)


def make_workload(name: str, seed: int, out_dir: str):
    if name in SOLVERS:
        return Solver(name, seed, out_dir)
    return Postprocess(seed, out_dir)


# -- driver ---------------------------------------------------------------------

def fastest_pieces(rounds) -> float:
    """Wall time of one round with each of its pieces at its fastest.

    ``rounds`` holds the piece times of whole rounds only, all of one length.

    Every round makes the same calls in the same order, so piece k of one
    round is the same work as piece k of any other.  A shared host slows
    a process down for seconds to minutes at a time, and a slowdown only
    adds time; taking each piece (a Heun step, or one post-processing
    call) at its fastest over the rounds keeps those phases out of the
    figure while still counting every piece of work.
    """
    return float(np.min(np.array(rounds), axis=0).sum())


def measure(workload, seconds: float):
    """Run whole rounds until ``seconds`` have passed.

    Returns the piece times of every round, the operations attempted and
    failed, and the peak resident memory after the first round.  The loop
    stops after the first round with a failed operation: a solver round
    that halts leaves nothing to repeat.
    """
    rounds, attempted, failed = [], 0, 0
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        gc.collect()
        pieces, ops, bad = workload.run_round()
        rounds.append(pieces)
        if len(rounds) == 1:
            # Later rounds repeat the same work; the allocator's
            # footprint then drifts with the number of rounds run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = attempted + ops, failed + bad
        if bad:
            break
    return rounds, attempted, failed, peak_rss_mb


def whole_rounds(rounds, pieces: int):
    """The rounds that ran all ``pieces`` of their work (none halted)."""
    return [r for r in rounds if len(r) == pieces]


def host_line() -> str:
    import scipy

    return (f"host: cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"threads={THREADS} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    import_axiblow()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        workload = make_workload(args.workload, args.seed, out_dir)
        setup_s = seconds_since_process_start()
        if tracer:
            tracer.reset()
        rounds, attempted, failed, peak_rss_mb = measure(workload, args.seconds)
        whole = whole_rounds(rounds, workload.pieces)
        if tracer:
            metrics = {m["name"]: {"value": tracer.metric(m["name"], len(rounds)),
                                   "unit": m["unit"]} for m in bench["per_layer"]}
        else:
            # A run whose only round halted has no run_s to report.
            measured = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            if whole:
                measured["run_s"] = fastest_pieces(whole)
            metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                       for m in bench["end_to_end"] if m["name"] in measured}
        results = workload.checks()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:  # another run still uses it
            pass

    times = [sum(p) for p in rounds]
    print(host_line())
    print(f"rounds: {len(times)} ({len(whole)} whole)  fastest {min(times):.4f} s"
          f"  median {np.median(times):.4f} s"
          f"  fastest pieces {fastest_pieces(whole) if whole else float('nan'):.4f} s"
          "  per round: " + " ".join(f"{t:.4f}" for t in times))
    for c in results:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'}: {c.detail}")
    print(json.dumps({"correct": all(c.ok for c in results), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
