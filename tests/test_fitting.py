"""Blowup-rate regression models and the scaling-relations checker."""

import numpy as np
import pytest

from axiblow import fitting as ft
from axiblow.errors import DegenerateFit, MissingExponent, NonConvergent

T_TRUE = 1.791e-4
WINDOW = (1.60e-4, 1.75e-4)


def power_series(c, T=T_TRUE, alpha=1.0, n=160, noise=0.0, seed=0):
    t = np.linspace(1.58e-4, 1.755e-4, n)
    v = alpha * (T - t) ** (-c)
    if noise:
        rng = np.random.default_rng(seed)
        v = v * (1.0 + noise * rng.standard_normal(n))
    return ft.TimeSeries(t, v)


class TestTimeSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            ft.TimeSeries(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            ft.TimeSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 1.0]))


class TestModel1:
    def test_exact_power_law(self):
        fit = ft.fit_model1(power_series(1.0), WINDOW)
        assert fit.c == pytest.approx(1.0, abs=2e-3)
        assert fit.T == pytest.approx(T_TRUE, rel=1e-3)
        # model 1 differentiates numerically, so its R^2 tops out around
        # the finite-difference error level
        assert fit.r2 > 1.0 - 1e-6

    def test_exponential_is_degenerate(self):
        t = np.linspace(0.0, 1.0, 60)
        series = ft.TimeSeries(t, np.exp(3.0 * t))
        with pytest.raises(DegenerateFit):
            ft.fit_model1(series, (0.0, 1.0))

    def test_noisy_recovery_montecarlo(self):
        # Monte-Carlo oracle: the log-derivative transform amplifies
        # sample noise through v', so only the central tendency of the
        # crude rate is meaningful, and only at moderate sampling density.
        cs = []
        for seed in range(24):
            series = power_series(1.5, n=45, noise=0.01, seed=seed)
            try:
                cs.append(ft.fit_model1(series, WINDOW).c)
            except DegenerateFit:
                continue
        assert len(cs) >= 18
        assert abs(np.median(cs) - 1.5) < 0.2

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            ft.fit_model1(power_series(1.0, n=30), (1.740e-4, 1.7550e-4))


class TestModel2:
    def test_exact_power_law_all_rates(self):
        for c_true in (0.5, 1.0, 1.5, 2.0):
            series = power_series(c_true)
            crude = ft.fit_model1(series, WINDOW)
            fit = ft.fit_model2(series, WINDOW, crude.c)
            assert abs(fit.c - c_true) < 2e-3
            assert fit.r2 > 1.0 - 1e-8
            assert fit.T == pytest.approx(T_TRUE, rel=2e-3)

    def test_recenters_from_distant_seed(self):
        series = power_series(1.5)
        fit = ft.fit_model2(series, WINDOW, 0.6)
        assert abs(fit.c - 1.5) < 5e-3

    def test_scale_invariance_in_v(self):
        series = power_series(1.3)
        fit1 = ft.fit_model2(series, WINDOW, 1.25)
        scaled = ft.TimeSeries(series.t, 37.5 * series.v)
        fit2 = ft.fit_model2(scaled, WINDOW, 1.25)
        assert fit1.c == fit2.c

    def test_shift_covariance_in_t(self):
        series = power_series(0.8)
        fit1 = ft.fit_model2(series, WINDOW, 0.8)
        delta = 3.3e-5
        shifted = ft.TimeSeries(series.t + delta, series.v)
        fit2 = ft.fit_model2(shifted, (WINDOW[0] + delta, WINDOW[1] + delta), 0.8)
        assert fit2.c == fit1.c
        assert fit2.T - fit1.T == pytest.approx(delta, rel=1e-9)

    def test_models_agree_on_clean_data(self):
        series = power_series(1.2)
        crude = ft.fit_model1(series, WINDOW)
        fine = ft.fit_model2(series, WINDOW, crude.c)
        assert abs(fine.c - crude.c) < 2e-3


# fit_model2 as it stood when it regressed one candidate at a time, kept as
# the oracle of the one-pass scan: same FitResult or same exception.

def _linreg_oracle(x, y):
    xm, ym = x.mean(), y.mean()
    sxx = ((x - xm) ** 2).sum()
    a = ((x - xm) * (y - ym)).sum() / sxx
    b = ym - a * xm
    resid = y - (a * x + b)
    ss_err = (resid**2).sum()
    ss_tot = ((y - ym) ** 2).sum()
    r2 = 1.0 - ss_err / ss_tot if ss_tot > 0.0 else (1.0 if ss_err == 0.0 else -np.inf)
    return a, b, r2


def fit_model2_oracle(series, window, c_init):
    sub = series.window(*window)
    center, span = float(c_init), ft.HALF_SPAN
    for _ in range(ft.MAX_ROUNDS):
        cands = np.linspace(center - span, center + span, ft.GRID)
        cands = cands[cands > 1e-6]
        best = None
        for c in cands:
            a, b, r2 = _linreg_oracle(sub.t, sub.v ** (-1.0 / c))
            if best is None or r2 > best[3]:
                best = (c, a, b, r2)
        c, a, b, r2 = best
        center = float(c)
        if c in (cands[0], cands[-1]):
            continue
        spacing = cands[1] - cands[0]
        if spacing > ft.REFINE_FLOOR:
            span = 2.5 * spacing
            continue
        if a >= 0.0:
            raise DegenerateFit(f"no blowup trend: fitted slope {a:.3g} >= 0")
        return ft.FitResult(float(c), float(-b / a), float(r2), 2, tuple(window))
    raise NonConvergent(f"grid re-centering did not settle after {ft.MAX_ROUNDS} rounds")


def _outcome(fit, series, c_init):
    try:
        with np.errstate(all="ignore"):
            return fit(series, WINDOW, c_init)
    except (DegenerateFit, NonConvergent) as exc:
        return type(exc), str(exc)


def _scan_choice(r2):
    """The index the per-candidate loop keeps."""
    best = 0
    for k in range(1, len(r2)):
        if r2[k] > r2[best]:
            best = k
    return best


class TestModel2SameAsLoop:
    def test_choice_on_ties_and_nans(self):
        nan, inf = np.nan, np.inf
        rng = np.random.default_rng(5)
        cases = [[0.5, 0.9, 0.9, nan], [nan, 1.0, 2.0], [-inf, nan, -inf, 0.1, 0.1],
                 [1.0, 1.0, 1.0], [-inf, -inf], [0.3, nan, nan]]
        cases += [rng.choice([nan, -inf, 0.2, 0.7, 0.7, 1.0], size=9) for _ in range(200)]
        for r2 in cases:
            r2 = np.array(r2)
            assert ft._first_best(r2) == _scan_choice(r2), r2

    def test_seeded_series(self):
        rng = np.random.default_rng(909)
        for _ in range(24):
            c_true = rng.uniform(0.4, 2.5)
            series = power_series(c_true, T=T_TRUE + rng.uniform(-1e-6, 5e-6),
                                  alpha=rng.uniform(0.1, 10.0), n=int(rng.integers(40, 300)),
                                  noise=rng.choice([0.0, 1e-4, 1e-2]),
                                  seed=int(rng.integers(1 << 30)))
            c_init = c_true * rng.uniform(0.6, 1.4)
            want = _outcome(fit_model2_oracle, series, c_init)
            assert _outcome(ft.fit_model2, series, c_init) == want

    def test_constant_series(self):
        # Every candidate's transform is constant (ss_tot = 0 with a zero
        # residual): each R^2 is 1, and the fit ends on its zero slope.
        series = ft.TimeSeries(np.linspace(1.58e-4, 1.755e-4, 120), np.full(120, 3.0))
        want = _outcome(fit_model2_oracle, series, 1.0)
        assert want == (DegenerateFit, "no blowup trend: fitted slope 0 >= 0")
        assert _outcome(ft.fit_model2, series, 1.0) == want

    @pytest.mark.parametrize("c_init, first_r2", [(0.05, -np.inf), (0.13, np.nan)])
    def test_overflowing_candidates(self, c_init, first_r2):
        # v ~ 1e-7: the smallest candidates overflow v**(-1/c) (R^2 -inf)
        # or its squares (R^2 NaN).  A NaN never displaces the candidate
        # held, and a NaN held first is never displaced.
        t = np.linspace(1.58e-4, 1.755e-4, 120)
        series = ft.TimeSeries(t, 1e-8 * (1.8e-4 - t) ** (-0.3))
        sub = series.window(*WINDOW)
        cands = np.linspace(c_init - ft.HALF_SPAN, c_init + ft.HALF_SPAN, ft.GRID)
        with np.errstate(all="ignore"):
            r2 = _linreg_oracle(sub.t, sub.v ** (-1.0 / cands[cands > 1e-6][0]))[2]
        assert np.array_equal(r2, first_r2, equal_nan=True)
        want = _outcome(fit_model2_oracle, series, c_init)
        assert _outcome(ft.fit_model2, series, c_init) == want


class TestScalingRelations:
    def test_consistent_tuple_passes(self):
        exps = {"c_u": 1.0, "c_omega": 2.0, "c_psi": 0.0, "c_l": 1.0, "c_s": 0.5}
        report = ft.check_scaling_relations(exps, tol=1e-12)
        assert report.all_passed

    def test_perturbed_omega_fails(self):
        exps = {"c_u": 1.0, "c_omega": 1.5, "c_psi": 0.0, "c_l": 1.0, "c_s": 0.5}
        report = ft.check_scaling_relations(exps, tol=0.05)
        assert not report.all_passed
        assert report.failed() == ["c_omega = 1 + c_l"]

    def test_derived_exponents(self):
        exps = {"c_u": 1.0, "c_omega": 2.0, "c_psi": 0.0, "c_l": 1.0, "c_s": 0.5,
                "c_omega_theta": 1.505, "c_u1_r": 2.04}
        report = ft.check_scaling_relations(exps, tol=0.1)
        assert report.all_passed
        tight = ft.check_scaling_relations(exps, tol=0.001)
        assert "c_omega_theta = 1.5" in tight.failed()

    def test_missing_exponent(self):
        with pytest.raises(MissingExponent):
            ft.check_scaling_relations({"c_u": 1.0}, tol=0.1)
