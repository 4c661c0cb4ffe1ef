import dataclasses

import numpy as np
import pytest

from oos_ase import (
    ClassifySpec,
    ConfigError,
    DegeneracyError,
    LatentDistribution,
    chi2_quantile,
    classify_error,
    classify_threshold,
    delta,
    error_ratio_curve,
    norm_cdf,
    sigma_clt,
)
from oos_ase import theory
from oos_ase.theory import _log_density_diff_coeffs

SPEC = ClassifySpec(lam=0.4, p=0.6, q=0.61)
MIX_1D = SPEC.distribution()


def log_density_diff(spec, scale, x):
    """log lam*phi_p(x) - log (1-lam)*phi_q(x): the quadratic whose
    coefficients classify_threshold solves, evaluated at x."""
    k, a, b, c_eff = _log_density_diff_coeffs(spec, scale)
    x = np.asarray(x, dtype=float)
    return k * ((a * x + b) * x + c_eff)


# ------------------------------------------------------------- cdf / quantile


def test_norm_cdf_known_values():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)
    assert norm_cdf(-1.96) == pytest.approx(0.024997895148220435, abs=1e-14)
    assert norm_cdf(np.array([-40.0]))[0] == 0.0  # graceful underflow


def test_chi2_quantile_pins():
    # df=2 has the closed form -2 log(1 - q)
    assert chi2_quantile(0.68, 2) == pytest.approx(2.2789, abs=1e-4)
    assert chi2_quantile(0.95, 2) == pytest.approx(5.9915, abs=1e-4)
    for q in (0.1, 0.5, 0.68, 0.95, 0.999):
        assert chi2_quantile(q, 2) == pytest.approx(-2.0 * np.log1p(-q), rel=1e-12)
    # df=1 literature value
    assert chi2_quantile(0.95, 1) == pytest.approx(3.841458820694124, rel=1e-12)
    with pytest.raises(ConfigError):
        chi2_quantile(1.0, 2)


# ----------------------------------------------------------------- delta / Sigma


def test_delta_point_mass():
    x = np.array([0.3, 0.4])
    d = delta(LatentDistribution(2, [(x, 1.0)]))
    assert np.allclose(d, np.outer(x, x), atol=1e-15)


def test_delta_two_atom_1d_value():
    # lam p^2 + (1-lam) q^2 = 0.4*0.36 + 0.6*0.3721
    assert delta(MIX_1D)[0, 0] == pytest.approx(0.36726, abs=1e-15)


def test_delta_matches_monte_carlo():
    mix = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
    rng = np.random.default_rng(200)
    idx = rng.choice(2, size=1_000_000, p=mix.weights)
    draws = mix.points[idx]
    mc = draws.T @ draws / len(draws)
    assert np.max(np.abs(mc - delta(mix))) <= 1e-2


def test_sigma_clt_matches_hand_formula_1d():
    lam, p, q = SPEC.lam, SPEC.p, SPEC.q
    d = lam * p**2 + (1 - lam) * q**2
    sp2_hand = (
        lam * p**2 * (1 - p**2) * p**2 + (1 - lam) * p * q * (1 - p * q) * q**2
    ) / d**2
    sq2_hand = (
        lam * p * q * (1 - p * q) * p**2 + (1 - lam) * q**2 * (1 - q**2) * q**2
    ) / d**2
    sp2, sq2 = SPEC.variances()
    assert sp2 == pytest.approx(sp2_hand, rel=1e-12)
    assert sq2 == pytest.approx(sq2_hand, rel=1e-12)


def test_classify_spec_variances_cached_without_changing_the_spec(monkeypatch):
    calls = []

    def counting(dist, wbar):
        calls.append(wbar)
        return sigma_clt(dist, wbar)

    monkeypatch.setattr(theory, "sigma_clt", counting)
    spec = ClassifySpec(lam=0.35, p=0.22, q=0.77)  # used by no other test
    first = spec.variances()
    assert len(calls) == 2
    classify_error(spec, 500)
    assert len(calls) == 2
    dist = spec.distribution()
    assert first == (float(sigma_clt(dist, [0.22])[0, 0]),
                     float(sigma_clt(dist, [0.77])[0, 0]))
    # still a frozen value object compared by its fields
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.lam = 0.5
    assert spec == ClassifySpec(lam=0.35, p=0.22, q=0.77)
    assert hash(spec) == hash(ClassifySpec(lam=0.35, p=0.22, q=0.77))


def test_sigma_clt_vanishes_when_probability_degenerate():
    # X^T w-bar = 1 almost surely -> Bernoulli variance zero -> Sigma = 0
    dist = LatentDistribution(1, [((1.0,), 1.0)])
    assert sigma_clt(dist, [1.0]) == pytest.approx(np.zeros((1, 1)), abs=1e-15)


def test_sigma_clt_rejects_singular_delta():
    dist = LatentDistribution(2, [((0.5, 0.0), 1.0)])
    with pytest.raises(DegeneracyError, match="singular"):
        sigma_clt(dist, [0.5, 0.0])


def test_sigma_clt_rejects_a_wbar_off_the_model():
    mix = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
    with pytest.raises(ConfigError, match="dimension 1 does not match"):
        sigma_clt(mix, [0.5])
    # atom 0 gives 0.7 * 1.5 > 1, and NaN is no probability
    for wbar in ([0.0, 1.5], [np.nan, 0.5]):
        with pytest.raises(ConfigError, match=r"at index \(0,\)"):
            sigma_clt(mix, wbar)


def test_sigma_clt_symmetric_psd():
    mix = LatentDistribution(2, [((0.2, 0.7), 0.4), ((0.65, 0.3), 0.6)])
    for wbar in mix.points:
        s = sigma_clt(mix, wbar)
        assert np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12


# -------------------------------------------------------------------- threshold


def test_classify_spec_validation():
    with pytest.raises(ConfigError):
        ClassifySpec(lam=0.4, p=0.61, q=0.6)  # p must be the smaller atom
    with pytest.raises(ConfigError):
        ClassifySpec(lam=0.0, p=0.4, q=0.6)
    with pytest.raises(ConfigError):
        ClassifySpec(lam=0.4, p=0.0, q=0.6)


def test_classify_spec_from_distribution_orders_atoms():
    dist = LatentDistribution(1, [((0.61,), 0.6), ((0.6,), 0.4)])
    spec = ClassifySpec.from_distribution(dist)
    assert (spec.lam, spec.p, spec.q) == (0.4, 0.6, 0.61)


def test_threshold_symmetric_limit_approaches_midpoint():
    # with lam = 1/2 and equal class variances the threshold would be the
    # exact midpoint at any scale; the model ties the variances to the
    # atoms, so the symmetric case is only reached in the limit of
    # coalescing atoms and growing scale. Verify the approach.
    spec = ClassifySpec(lam=0.5, p=0.6, q=0.600001)
    mid = 0.5 * (spec.p + spec.q)
    dev_small = abs(classify_threshold(spec, 100) - mid)
    dev_large = abs(classify_threshold(spec, 1_000_000) - mid)
    assert dev_large <= 1e-6
    assert dev_large < dev_small <= 5e-3


def test_threshold_residual_always_small():
    for scale in (101, 1001, 100_001):
        x = classify_threshold(SPEC, scale)
        assert abs(log_density_diff(SPEC, scale, x)) <= 1e-12


def test_threshold_reports_no_crossing_at_tiny_scale():
    # at scale 11 the two class densities of the (0.4, 0.6, 0.61) spec
    # never cross (negative discriminant): the prior dominates everywhere
    # and there is no threshold to return
    from oos_ase import ThresholdError

    with pytest.raises(ThresholdError, match="no real root"):
        classify_threshold(SPEC, 11)
    with pytest.raises(ThresholdError):
        classify_error(SPEC, 11)  # propagated, per the error contract


def test_threshold_against_grid_scan_oracle():
    # independent oracle: scan the log density difference over (0, 1) at
    # step 1e-6; there must be exactly one descending sign change and it
    # must straddle the returned root
    scale = 101
    x_star = classify_threshold(SPEC, scale)
    xs = np.arange(1e-6, 1.0, 1e-6)
    f = log_density_diff(SPEC, scale, xs)
    flips = np.nonzero(np.diff(np.sign(f)))[0]
    descending = [i for i in flips if f[i] > 0 > f[i + 1]]
    assert len(descending) == 1
    i = descending[0]
    assert xs[i] <= x_star <= xs[i + 1]


def test_threshold_against_quadratic_roots_oracle():
    # second oracle: numpy's companion-matrix roots of the same quadratic
    for scale in (101, 1001, 20_000):
        k, a, b, c = _log_density_diff_coeffs(SPEC, scale)
        roots = np.roots([a, b, c])
        descending = [r.real for r in roots if abs(r.imag) < 1e-12
                      and 2 * a * r.real + b < 0]
        assert len(descending) == 1
        assert classify_threshold(SPEC, scale) == pytest.approx(
            descending[0], rel=1e-9
        )


def test_threshold_handles_near_degenerate_atoms():
    # q - p = 1e-6 makes every quadratic coefficient tiny and the two
    # roots wildly separated; the expanded (Horner) evaluation must still
    # satisfy the residual contract at the kept root
    spec = ClassifySpec(lam=0.5, p=0.6, q=0.600001)
    x = classify_threshold(spec, 100)
    assert abs(log_density_diff(spec, 100, x)) <= 1e-12
    assert spec.p - 0.01 < x < spec.q + 0.01


# ------------------------------------------------------------------ error rate


def test_error_far_separated_classes():
    spec = ClassifySpec(lam=0.4, p=0.1, q=0.9)
    assert classify_error(spec, 1000) < 1e-6


def test_error_overlapping_classes_limit():
    # indistinguishable classes: the threshold rule pays min(lam, 1-lam).
    # With lam = 1/2 the densities still cross and the error approaches 1/2
    spec = ClassifySpec(lam=0.5, p=0.6, q=0.600001)
    assert classify_error(spec, 100) == pytest.approx(0.5, abs=1e-3)
    # an unbalanced prior with coalescing atoms has no crossing at all:
    # reported as the documented threshold error, not a silent answer
    from oos_ase import ThresholdError

    with pytest.raises(ThresholdError):
        classify_error(ClassifySpec(lam=0.4, p=0.6, q=0.600001), 100)


def test_threshold_and_error_reject_a_scale_not_positive_and_finite():
    for scale in (0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            classify_threshold(SPEC, scale)
        with pytest.raises(ConfigError, match="positive and finite"):
            classify_error(SPEC, scale)


def test_error_monotone_decreasing_in_scale():
    etas = [classify_error(SPEC, s) for s in np.unique(
        np.round(np.logspace(2, 6, 50)).astype(int))]
    assert all(0.0 < e < 1.0 for e in etas)
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_error_in_sample_beats_oos_for_m_above_one():
    n = 100
    base = classify_error(SPEC, n + 1)
    for m in (2, 3, 10, 100, 10_000):
        assert classify_error(SPEC, n + m) < base


# ------------------------------------------------------------------ ratio curve


def test_ratio_curve_basics():
    curve = error_ratio_curve(SPEC, 100, [1, 2, 10, 100, 1000])
    assert curve[0] == (1, 1.0)  # identical scales, exactly
    ratios = [r for _, r in curve]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(0.0 < r <= 1.0 for r in ratios)


def test_ratio_curve_figure_shape():
    # at n=100 the first hundred OOS vertices cost essentially nothing
    # relative to re-embedding; the gap opens at larger m
    curve = dict(error_ratio_curve(SPEC, 100, [100, 10_000]))
    assert curve[100] >= 0.99
    assert curve[10_000] <= 0.7
