import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import armle
from armle import (
    ExperimentConfig,
    SingularGram,
    Unstable,
    accumulate,
    aggregate,
    ar1,
    fgn,
    filter_observations,
    fisher_info,
    lan_decomposition,
    log_likelihood,
    lr_statistic,
    lr_test,
    mle,
    white,
)
from armle.inference import (
    GRAM_CONDITION_CAP, _chi2_isf, _chi2_logsf, _chi2_sf, _solve_gram,
)

from _oracles import ols_ar, random_stable_theta


def _fit(kernel, theta, n, seed):
    x = armle.simulate_series(theta, kernel, n, seed)
    return filter_observations(x, kernel, len(theta)), x


def test_mle_equals_ols_on_white_noise():
    gen = np.random.default_rng(2)
    for trial in range(20):
        p = int(gen.integers(1, 4))
        theta = random_stable_theta(gen, p, max_modulus=0.7)
        path, x = _fit(white(), tuple(theta), 400, seed=trial)
        result = mle(path)
        np.testing.assert_allclose(result.theta_hat, ols_ar(x, p), rtol=1e-12, atol=1e-12)


def test_mle_normal_equation_residual():
    path, _ = _fit(fgn(0.7), (0.5, 0.2), 300, seed=4)
    result = mle(path)
    acc, _ = accumulate(path, result.theta_hat)
    resid = acc.gram @ result.theta_hat - acc.moment
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(acc.moment)
    assert result.cond >= 1.0
    assert result.n == 300


def test_mle_maximizes_likelihood():
    path, _ = _fit(ar1(0.5), (0.4,), 200, seed=9)
    result = mle(path)
    best = log_likelihood(path, result.theta_hat)
    for delta in (-0.05, -0.01, 0.01, 0.05):
        assert log_likelihood(path, result.theta_hat + delta) < best


def test_mle_estimates_recover_truth():
    path, _ = _fit(ar1(0.5), (0.6, -0.2), 4000, seed=13)
    result = mle(path)
    np.testing.assert_allclose(result.theta_hat, [0.6, -0.2], atol=0.08)
    assert result.stderr.shape == (2,)
    assert np.all(result.stderr < 0.05)


def test_singular_gram_on_degenerate_data():
    x = np.zeros(50)
    path = filter_observations(x, white(), 1)
    with pytest.raises(SingularGram) as err:
        mle(path)
    assert err.value.cond == math.inf or err.value.cond > 1e12


@pytest.fixture(scope="module")
def large_paths():
    """Paths at n = 10**4 on a Markov and a long-memory kernel, p = 1 and 3."""
    out = []
    for kernel in (ar1(0.5), fgn(0.7)):
        for seed, theta in enumerate([(0.3,), (0.3, 0.2, -0.1)]):
            path, _ = _fit(kernel, theta, 10_000, seed=40 + seed)
            out.append((path, theta))
    return out


def test_lr_statistic_identities(large_paths):
    small, _ = _fit(ar1(0.5), (0.3,), 500, seed=5)
    for path, theta0 in [(small, (0.3,))] + large_paths:
        stat = lr_statistic(path, theta0)
        assert stat >= 0.0
        acc, score = accumulate(path, theta0)
        quad = float(score @ np.linalg.solve(acc.gram, score))
        assert stat == pytest.approx(quad, rel=1e-8, abs=1e-10)
        result = mle(path)
        loglik_diff = 2.0 * (
            log_likelihood(path, result.theta_hat) - log_likelihood(path, theta0)
        )
        assert stat == pytest.approx(loglik_diff, rel=1e-8, abs=1e-10)


def test_lr_statistic_zero_at_mle():
    path, _ = _fit(ar1(0.5), (0.3,), 400, seed=6)
    theta_hat = mle(path).theta_hat
    assert lr_statistic(path, theta_hat) == pytest.approx(0.0, abs=1e-10)


def test_lr_test_decision_rule():
    path, _ = _fit(white(), (0.3,), 800, seed=7)
    res = lr_test(path, (0.3,), alpha=0.05)
    assert res.reject == (res.statistic >= res.critical)
    assert 0.0 <= res.pvalue <= 1.0
    assert res.critical == pytest.approx(3.8414588206941285, abs=1e-8)
    assert res.pvalue == pytest.approx(scipy.stats.chi2.sf(res.statistic, 1), rel=1e-12)
    # Far-off null must reject.
    res_far = lr_test(path, (-0.6,), alpha=0.05)
    assert res_far.reject
    assert res_far.pvalue < 1e-6


def _paths_by_order():
    """One fitted path per order p = 1..3, with the true theta as the null."""
    for p, theta in enumerate([(0.3,), (0.4, -0.2), (0.3, 0.2, -0.1)], start=1):
        path, _ = _fit(ar1(0.5), theta, 300, seed=20 + p)
        yield p, path, theta


def test_chi2_quantile_matches_scipy():
    for p, path, theta in _paths_by_order():
        for alpha in (0.2, 0.1, 0.05, 0.01, 0.001):
            ref = scipy.stats.chi2.isf(alpha, p)
            assert lr_test(path, theta, alpha).critical == pytest.approx(ref, abs=1e-8)


def test_chi2_quantile_frozen_values():
    path, _ = _fit(white(), (0.3,), 200, seed=1)
    assert lr_test(path, (0.3,), 0.05).critical == pytest.approx(
        3.8414588206941285, abs=1e-9
    )
    # For two degrees of freedom the upper quantile is -2 log(alpha).
    path, _ = _fit(white(), (0.3, 0.1), 200, seed=1)
    assert lr_test(path, (0.3, 0.1), 0.05).critical == pytest.approx(
        -2.0 * math.log(0.05), abs=1e-9
    )


def test_chi2_cdf_sf_match_scipy():
    for p, path, theta in _paths_by_order():
        gen = np.random.default_rng(p)
        for theta0 in np.asarray(theta) + gen.uniform(-0.2, 0.2, size=(6, p)):
            res = lr_test(path, theta0, 0.05)
            assert res.pvalue == pytest.approx(
                scipy.stats.chi2.sf(res.statistic, p), abs=1e-13
            )


@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.001, max_value=0.5),
    st.floats(min_value=-0.1, max_value=0.1),
)
@settings(max_examples=60, deadline=None)
def test_chi2_quantile_inverse_property(p, alpha, shift):
    # The critical value inverts the survival function, so the quantile rule
    # and the p-value rule reject together.
    path, _ = _fit(ar1(0.5), (0.1,) * p, 300, seed=p)
    res = lr_test(path, np.full(p, 0.1 + shift), alpha)
    assert scipy.stats.chi2.sf(res.critical, p) == pytest.approx(
        alpha, rel=1e-7, abs=1e-10
    )
    if not math.isclose(res.statistic, res.critical, rel_tol=1e-9):
        assert res.reject == (res.pvalue <= alpha)


EPS = 2.0**-52
#: Levels from 1e-12 to 0.999, the range of a test's level in practice.
LEVELS = [10.0**k for k in range(-12, 0)] + [0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999]


def test_chi2_closed_form_identities():
    # p = 2: the tail is exp(-x/2) and the quantile -2 log(alpha). p = 1: the
    # tail is erfc(sqrt(x/2)), through log space, so to a few ulp of log sf.
    for x in [0.0, 1e-300, 1e-9, 0.3, 1.0, 3.84, 10.0, 100.0, 700.0, 1400.0]:
        assert _chi2_sf(2, x) == pytest.approx(math.exp(-x / 2), rel=1e-15, abs=0.0)
        ref = math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(1, x) == pytest.approx(ref, rel=2 * EPS * (1.0 + x), abs=0.0)
    for alpha in LEVELS + [1e-300, 5e-324]:
        assert _chi2_isf(2, alpha) == pytest.approx(-2.0 * math.log(alpha), rel=1e-15)


def test_chi2_closed_form_matches_scipy():
    xs = np.concatenate([np.linspace(0.0, 1400.0, 701), np.geomspace(1e-12, 1400.0, 60)])
    for p in range(1, 11):
        for x in xs:
            ref = scipy.special.chdtrc(p, x)
            assert _chi2_sf(p, float(x)) == pytest.approx(ref, rel=1e-12, abs=0.0), (p, x)
        for alpha in LEVELS:
            ref = scipy.special.chdtri(p, alpha)
            assert _chi2_isf(p, alpha) == pytest.approx(ref, rel=1e-12, abs=0.0), (p, alpha)


def test_chi2_quantile_round_trip():
    for p in range(1, 11):
        for alpha in LEVELS:
            assert _chi2_sf(p, _chi2_isf(p, alpha)) == pytest.approx(alpha, rel=1e-13, abs=0.0)
        # Far out, exp alone turns the rounding of log sf into a relative
        # error of about |log alpha| ulp, so the round trip is read in log
        # space, where the quantile stops within 1e-15 (1 + |log alpha|).
        for alpha in LEVELS + [1e-100, 1e-300, 5e-324]:
            log_alpha = math.log(alpha)
            gap = _chi2_logsf(p, _chi2_isf(p, alpha)) - log_alpha
            assert abs(gap) <= 1e-15 * (1.0 - log_alpha), (p, alpha)


def test_chi2_closed_form_edges():
    for p in range(1, 11):
        assert _chi2_sf(p, 0.0) == 1.0
        assert _chi2_sf(p, 1e6) == 0.0 and _chi2_sf(p, math.inf) == 0.0
        for alpha in (5e-324, 1e-300):
            crit = _chi2_isf(p, alpha)
            assert math.isfinite(crit) and crit > _chi2_isf(p, 1e-12)
        # Next to 1 the level is set by the tail's rounding near 1.
        alpha = 1.0 - 1e-16
        crit = _chi2_isf(p, alpha)
        assert math.isfinite(crit) and crit >= 0.0
        assert _chi2_sf(p, crit) == pytest.approx(alpha, rel=0.0, abs=4 * EPS)
    # The least subnormal level: the root of log sf = log(2**-1074), to 50 digits
    # 1495.7402734591207086 at p = 3.
    assert _chi2_isf(3, 5e-324) == pytest.approx(1495.7402734591207086, rel=1e-15)
    # A far-tail p-value, well inside the double range, as scipy gives it.
    assert _chi2_sf(1, 519.41) == pytest.approx(5.6872764843993305e-115, rel=1e-12)


def test_chi2_quantile_is_the_harness_critical_value():
    path, _ = _fit(white(), (0.3, 0.1, 0.0), 200, seed=1)
    crit = lr_test(path, (0.3, 0.1, 0.0), 0.01).critical
    assert crit == _chi2_isf(3, 0.01)
    assert _predicted_power(3, 0.01, (1.0, 0.0, 0.0))["critical"] == crit


def _predicted_power(p, alpha, shift):
    cfg = ExperimentConfig(
        experiment="test_power",
        theta=(0.0,) * p,
        kernel=white(),
        sample_sizes=(400,),
        replicates=1,
        seed=0,
        alpha=alpha,
        shift=shift,
    )
    return aggregate(cfg, [])[1]


def test_noncentral_chi2_sf_matches_scipy():
    # At theta = 0 the information is the identity in every coordinate
    # (test_ar.py::test_fisher_info_at_zero_is_the_identity), so lambda =
    # |shift|^2 for a shift in any direction; this one lies along the first.
    for p in (1, 2, 4):
        for lam in (0.0, 0.5, 4.0, 12.0):
            for alpha in (0.2, 0.05, 0.01):
                summary = _predicted_power(p, alpha, (math.sqrt(lam),) + (0.0,) * (p - 1))
                assert summary["noncentrality"] == pytest.approx(lam, rel=1e-12)
                crit = scipy.stats.chi2.isf(alpha, p)
                ref = scipy.stats.ncx2.sf(crit, p, lam) if lam > 0 else alpha
                assert summary["predicted_power"] == pytest.approx(ref, abs=1e-10)


def test_noncentral_chi2_power_value():
    # Exceedance of the 5% chi-square(1) critical value at noncentrality 4.
    summary = _predicted_power(1, 0.05, (2.0,))
    assert summary["noncentrality"] == 4.0
    assert summary["predicted_power"] == pytest.approx(0.5160052739761744, abs=1e-9)


def test_solve_gram_flags_singular():
    gram = np.zeros((3, 2, 2))
    gram[1] = np.diag([1.0, 2.0 * GRAM_CONDITION_CAP])
    gram[2] = np.diag([2.0, 1.0])
    moment = np.ones((3, 2))
    theta, cond, ok = _solve_gram(gram, moment)
    np.testing.assert_array_equal(ok, [False, False, True])
    assert np.all(np.isnan(theta[:2]))
    np.testing.assert_array_equal(cond, [math.inf, 2.0 * GRAM_CONDITION_CAP, 2.0])
    np.testing.assert_array_equal(theta[2], [0.5, 1.0])
    # The same Grams stacked under two leading axes give the same bits.
    idx = np.array([[0, 1, 2], [2, 0, 1]])
    theta2, cond2, ok2 = _solve_gram(gram[idx], moment[idx])
    assert theta2.shape == (2, 3, 2) and cond2.shape == ok2.shape == (2, 3)
    for ours, flat in ((theta2, theta), (cond2, cond), (ok2, ok)):
        assert ours.tobytes() == flat[idx].tobytes()
    np.testing.assert_array_equal(ok2, [[False, False, True], [True, False, False]])
    assert np.all(np.isnan(theta2[~ok2]))
    # A non-finite Gram, on which eigvalsh does not converge at p = 3, is
    # flagged like a singular one, and the caller's stack is left as it was.
    inf, nan = np.full((3, 3), math.inf), np.full((3, 3), math.nan)
    gram3 = np.stack([inf, nan, 2.0 * np.eye(3)])
    before = gram3.copy()
    theta3, cond3, ok3 = _solve_gram(gram3, np.ones((3, 3)))
    np.testing.assert_array_equal(ok3, [False, False, True])
    np.testing.assert_array_equal(cond3, [math.inf, math.inf, 1.0])
    assert np.all(np.isnan(theta3[:2]))
    np.testing.assert_array_equal(theta3[2], [0.5, 0.5, 0.5])
    assert gram3.tobytes() == before.tobytes()


def _check_lan_identity(path, theta0, u):
    score_term, info_term, remainder = lan_decomposition(path, theta0, u)
    lhs = log_likelihood(path, theta0 + u / math.sqrt(path.n)) - log_likelihood(
        path, theta0
    )
    assert lhs == pytest.approx(score_term + info_term + remainder, abs=1e-9)


def test_lan_identity_exact(large_paths):
    gen = np.random.default_rng(31)
    for _ in range(25):
        p = int(gen.integers(1, 4))
        theta = random_stable_theta(gen, p, max_modulus=0.6)
        kernel = (white(), ar1(0.5), fgn(0.7))[int(gen.integers(3))]
        n = int(gen.integers(50, 200))
        path, _ = _fit(kernel, tuple(theta), n, seed=int(gen.integers(10_000)))
        theta0 = random_stable_theta(gen, p, max_modulus=0.5)
        u = gen.uniform(-0.5, 0.5, size=p)
        if not armle.is_stable(theta0 + u / math.sqrt(n)):
            continue
        _check_lan_identity(path, theta0, u)
    for path, theta in large_paths:
        _check_lan_identity(path, np.array(theta), gen.uniform(-0.5, 0.5, size=len(theta)))


def test_lan_zero_direction():
    path, _ = _fit(ar1(0.5), (0.3,), 100, seed=2)
    score_term, info_term, remainder = lan_decomposition(path, (0.3,), (0.0,))
    assert score_term == 0.0
    assert info_term == 0.0
    assert remainder == 0.0


def test_lan_rejects_unstable_shift():
    path, _ = _fit(white(), (0.9,), 100, seed=3)
    with pytest.raises(Unstable):
        lan_decomposition(path, (0.9,), (2.0,))


def test_lan_score_term_structure():
    path, _ = _fit(ar1(0.4), (0.3,), 150, seed=8)
    u = (0.5,)
    score_term, info_term, _ = lan_decomposition(path, (0.3,), u)
    _, score = accumulate(path, (0.3,))
    assert score_term == pytest.approx(0.5 * score[0] / math.sqrt(150), rel=1e-12)
    info = fisher_info((0.3,))
    assert info_term == pytest.approx(-0.5 * 0.25 * info[0, 0], rel=1e-12)


def test_coverage_smoke():
    # 200 replicates at n=600: empirical coverage of the 90% region
    # {theta0 : the level-0.10 LR test does not reject theta0}.
    hits = 0
    for rep in range(200):
        x = armle.simulate_series((0.4,), white(), 600, seed=rep)
        path = filter_observations(x, white(), 1)
        if not lr_test(path, (0.4,), 0.10).reject:
            hits += 1
    assert 0.82 <= hits / 200 <= 0.97
