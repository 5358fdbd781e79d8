"""Inverse-power-law fitting of blowup time series.

For a quantity expected to behave like v(t) ~ alpha (T - t)^(-c), two
regressions are used.  Model 1 fits the log-derivative transform
y = v / v' ~ -(t - T)/c, whose slope and intercept give crude estimates
(c, T).  Model 2 refines them: for candidate rates c on a local grid the
power transform gamma = v^(-1/c) is regressed on t, and the candidate
with the best coefficient of determination wins; the search re-centers
while the winner lands on a grid endpoint.  Model 2 uses the raw recorded
samples directly (no time interpolation), which makes it the quantity
actually reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, MissingExponent, NonConvergent


@dataclass(frozen=True)
class TimeSeries:
    """Sampled positive quantity on a strictly increasing time axis."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("t and v must be matching 1-D arrays")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("time axis must be strictly increasing")
        if np.any(v <= 0.0):
            raise ValueError("fitted quantity must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def window(self, t1: float, t2: float) -> "TimeSeries":
        mask = (self.t >= t1) & (self.t <= t2)
        return TimeSeries(self.t[mask], self.v[mask])


@dataclass(frozen=True)
class FitResult:
    c: float
    T: float
    r2: float
    model: int
    window: tuple


def _linreg(x: np.ndarray, y: np.ndarray):
    """Least squares y ~ a x + b with the R^2 of the fit, for each row of y.

    ``y`` is one sample vector, or a stack of them along its last axis;
    every row is reduced on its own, so a stacked row rounds exactly as it
    would alone.
    """
    xm, ym = x.mean(), y.mean(axis=-1, keepdims=True)
    sxx = ((x - xm) ** 2).sum()
    dy = y - ym
    a = ((x - xm) * dy).sum(axis=-1, keepdims=True) / sxx
    b = ym - a * xm
    resid = y - (a * x + b)
    ss_err = (resid**2).sum(axis=-1)
    ss_tot = (dy**2).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot > 0.0, 1.0 - ss_err / ss_tot,
                      np.where(ss_err == 0.0, 1.0, -np.inf))
    return a[..., 0], b[..., 0], r2


def _first_best(r2: np.ndarray) -> int:
    """The candidate a scan in order keeps when it takes each strictly
    larger R^2: the first maximum.  A NaN never beats the one held, and a
    NaN held first is never beaten."""
    if np.isnan(r2[0]):
        return 0
    return int(np.argmax(np.where(np.isnan(r2), -np.inf, r2)))


def _dvdt(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2nd-order derivative on a possibly nonuniform axis (3-point formulas)."""
    out = np.empty_like(v)
    h1 = t[1:-1] - t[:-2]
    h2 = t[2:] - t[1:-1]
    out[1:-1] = (-h2 / (h1 * (h1 + h2)) * v[:-2]
                 + (h2 - h1) / (h1 * h2) * v[1:-1]
                 + h1 / (h2 * (h1 + h2)) * v[2:])
    ha, hb = t[1] - t[0], t[2] - t[1]
    out[0] = (-(2 * ha + hb) / (ha * (ha + hb)) * v[0]
              + (ha + hb) / (ha * hb) * v[1]
              - ha / (hb * (ha + hb)) * v[2])
    ha, hb = t[-2] - t[-3], t[-1] - t[-2]
    out[-1] = (hb / (ha * (ha + hb)) * v[-3]
               - (ha + hb) / (ha * hb) * v[-2]
               + (2 * hb + ha) / (hb * (ha + hb)) * v[-1])
    return out


def fit_model1(series: TimeSeries, window: tuple) -> FitResult:
    """Log-derivative regression y = v/v' against t.

    A nonnegative slope, or one statistically indistinguishable from zero
    (|t|-statistic below 2, e.g. exponential growth where y is constant),
    raises DegenerateFit.
    """
    sub = series.window(*window)
    if len(sub.t) < 8:
        raise ValueError(f"need at least 8 samples in the window, got {len(sub.t)}")
    y = sub.v / _dvdt(sub.t, sub.v)
    a, b, r2 = _linreg(sub.t, y)
    if a >= 0.0:
        raise DegenerateFit(f"no blowup trend: fitted slope {a:.3g} >= 0")
    if r2 < 1.0:
        tstat2 = r2 / (1.0 - r2) * (len(sub.t) - 2)
        if tstat2 < 4.0:
            raise DegenerateFit("no blowup trend: slope not significant")
    c = -1.0 / a
    T = -b / a
    return FitResult(float(c), float(T), float(r2), 1, tuple(window))


# The grid search of fit_model2.
HALF_SPAN = 0.1
GRID = 100
REFINE_FLOOR = 2e-5
MAX_ROUNDS = 50


def fit_model2(series: TimeSeries, window: tuple, c_init: float) -> FitResult:
    """Power-transform regression with a local R^2 grid search around c_init.

    Scans GRID uniform candidates on [c - HALF_SPAN, c + HALF_SPAN]; when
    the winner sits on an endpoint the grid is re-centered there and
    scanned again.  An interior winner triggers bounded zoom rounds that
    shrink the span around it until the grid spacing drops below
    REFINE_FLOOR, so clean power-law data resolve the rate well past the
    coarse 2e-3 granularity.  All rounds count against MAX_ROUNDS.
    """
    sub = series.window(*window)
    if len(sub.t) < 8:
        raise ValueError(f"need at least 8 samples in the window, got {len(sub.t)}")
    if c_init <= 0.0:
        raise ValueError("c_init must be positive")
    center = float(c_init)
    span = HALF_SPAN
    for _ in range(MAX_ROUNDS):
        cands = np.linspace(center - span, center + span, GRID)
        cands = cands[cands > 1e-6]
        # Every candidate's power transform, one row each, in one pass.
        a, b, r2 = _linreg(sub.t, sub.v ** (-1.0 / cands)[:, None])
        k = _first_best(r2)
        c, a, b, r2 = cands[k], a[k], b[k], r2[k]
        center = float(c)
        if c in (cands[0], cands[-1]):
            continue
        spacing = cands[1] - cands[0]
        if spacing > REFINE_FLOOR:
            span = 2.5 * spacing
            continue
        if a >= 0.0:
            raise DegenerateFit(f"no blowup trend: fitted slope {a:.3g} >= 0")
        return FitResult(float(c), float(-b / a), float(r2), 2, tuple(window))
    raise NonConvergent(f"grid re-centering did not settle after {MAX_ROUNDS} rounds")


# Scaling relations implied by the two-scale self-similar balance: the
# swirl rate is pinned at 1, the circulation maximum principle pins the
# front scale at 1/2, the degenerate-diffusion balance pins the local
# scale at 1, and the remaining exponents follow by differentiation and
# products.
_BASE_RELATIONS = (
    ("c_u = 1", ("c_u",), lambda e: e["c_u"] - 1.0),
    ("c_omega = 1 + c_l", ("c_omega", "c_l"), lambda e: e["c_omega"] - 1.0 - e["c_l"]),
    ("c_psi = 1 - c_l", ("c_psi", "c_l"), lambda e: e["c_psi"] - 1.0 + e["c_l"]),
    ("c_s = 1/2", ("c_s",), lambda e: e["c_s"] - 0.5),
    ("c_l = 1", ("c_l",), lambda e: e["c_l"] - 1.0),
)

_DERIVED_TARGETS = {
    "c_psi1_r": 1.0,
    "c_psi1_z": 1.0,
    "c_u1_r": 2.0,
    "c_u1_z": 2.0,
    "c_omega_theta": 1.5,
    "c_omega_r": 1.5,
    "c_omega_z": 1.5,
}


@dataclass(frozen=True)
class RelationCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class ScalingReport:
    checks: tuple
    tol: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c.name for c in self.checks if not c.passed]


def check_scaling_relations(exponents: dict, tol: float) -> ScalingReport:
    """Test fitted exponents against the self-similar scaling relations.

    The five base relations require their operands to be present
    (MissingExponent otherwise); derived single-exponent targets are
    checked for whichever keys are supplied.
    """
    checks = []
    for name, keys, resid in _BASE_RELATIONS:
        missing = [k for k in keys if k not in exponents]
        if missing:
            raise MissingExponent(f"relation '{name}' needs {missing}")
        r = abs(float(resid(exponents)))
        checks.append(RelationCheck(name, r, r <= tol))
    for key, target in _DERIVED_TARGETS.items():
        if key in exponents:
            r = abs(float(exponents[key]) - target)
            checks.append(RelationCheck(f"{key} = {target}", r, r <= tol))
    return ScalingReport(tuple(checks), tol)
