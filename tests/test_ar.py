import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armle
from armle import (
    Unstable,
    apply_ar,
    ar1,
    companion,
    fisher_info,
    fisher_info_inverse,
    is_stable,
    require_stable,
    simulate_series,
    white,
)
from armle.ar import STABILITY_MARGIN, _max_modulus

from _oracles import ar_recursion, random_stable_theta, series_fisher

#: Stable parameters whose characteristic polynomial has a repeated root:
#: (z - 0.5)**3 and (z - 0.9)**4.
REPEATED_ROOT_THETAS = [(1.5, -0.75, 0.125), (3.6, -4.86, 2.916, -0.6561)]


def test_companion_layouts():
    np.testing.assert_array_equal(companion((0.5,)), [[0.5]])
    np.testing.assert_array_equal(companion((0.5, 0.3)), [[0.5, 0.3], [1.0, 0.0]])
    shift = companion((0.0, 0.0, 0.0))
    np.testing.assert_array_equal(shift, np.diag([1.0, 1.0], k=-1))


def test_characteristic_roots_quadratic():
    # z^2 - 0.5 z - 0.3: roots (0.5 +- sqrt(1.45)) / 2, the larger one decides stability.
    assert _max_modulus((0.5, 0.3)) == pytest.approx((0.5 + math.sqrt(1.45)) / 2, rel=1e-12)


def test_roots_match_numpy_oracle():
    gen = np.random.default_rng(1)
    for _ in range(50):
        p = int(gen.integers(1, 6))
        theta = gen.uniform(-0.6, 0.6, size=p)
        ref = np.max(np.abs(np.roots(np.r_[1.0, -theta])))
        assert is_stable(theta) == bool(ref < 1.0 - STABILITY_MARGIN)


def test_stability_classification():
    assert is_stable((0.5,))
    assert is_stable((0.5, 0.3))
    # z^2 - 1.2 z + 0.2 has roots 1.0 and 0.2: the unit root fails the margin.
    assert not is_stable((1.2, -0.2))
    assert not is_stable((1.0,))
    assert not is_stable((0.7, 0.5))


def test_stability_margin_is_strict():
    assert not is_stable((1.0 - 1e-12,))
    assert is_stable((1.0 - 1e-6,))


def test_require_stable_raises_with_modulus():
    with pytest.raises(Unstable) as err:
        require_stable((1.2, -0.2))
    assert "1" in str(err.value)


def test_require_stable_message_stays_short_for_huge_theta():
    with pytest.raises(Unstable) as err:
        require_stable((1e200,))
    assert len(str(err.value)) < 120 and "e+200" in str(err.value)


def test_random_stable_thetas_are_stable():
    gen = np.random.default_rng(7)
    for _ in range(100):
        p = int(gen.integers(1, 5))
        assert is_stable(random_stable_theta(gen, p))
    for theta in REPEATED_ROOT_THETAS:
        assert is_stable(theta)
        np.testing.assert_array_equal(require_stable(theta), theta)


@given(st.floats(min_value=-0.999, max_value=0.999))
@settings(max_examples=50, deadline=None)
def test_ar1_stability_property(theta1):
    assert is_stable((theta1,))


def test_fisher_info_ar1_closed_form():
    for t in (-0.9, -0.3, 0.0, 0.5, 0.95):
        info = fisher_info((t,))
        assert info.shape == (1, 1)
        assert info[0, 0] == pytest.approx(1.0 / (1.0 - t * t), rel=1e-12)


def test_fisher_info_matches_series_oracle():
    for theta in [(0.5, 0.3), (0.4, -0.3), (0.3, 0.2, 0.1), (0.5, -0.2, 0.1),
                  REPEATED_ROOT_THETAS[0]]:
        np.testing.assert_allclose(
            fisher_info(theta), series_fisher(theta, terms=500), rtol=1e-10, atol=1e-12
        )


def test_fisher_info_fixed_point_residual():
    gen = np.random.default_rng(11)
    for _ in range(100):
        p = int(gen.integers(1, 5))
        theta = random_stable_theta(gen, p)
        info = fisher_info(theta)
        a = companion(theta)
        b = np.zeros(p)
        b[0] = 1.0
        resid = info - (a @ info @ a.T + np.outer(b, b))
        assert np.linalg.norm(resid, 2) <= 1e-10
        np.testing.assert_allclose(info, info.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(info) > 0)


def test_fisher_info_at_zero_is_the_identity():
    # At theta = 0 the lag vector holds p white innovations.
    for p in range(1, 6):
        np.testing.assert_array_equal(fisher_info((0.0,) * p), np.eye(p))
        np.testing.assert_array_equal(fisher_info_inverse((0.0,) * p), np.eye(p))


def test_fisher_info_inverse():
    theta = (0.5, 0.3)
    prod = fisher_info(theta) @ fisher_info_inverse(theta)
    np.testing.assert_allclose(prod, np.eye(2), atol=1e-12)


def test_fisher_info_rejects_unstable():
    with pytest.raises(Unstable):
        fisher_info((1.1,))


def test_apply_ar_matches_loop_oracle():
    gen = np.random.default_rng(3)
    cases = [(theta, gen.standard_normal(40), 1e-13)
             for theta in [(0.5,), (0.5, 0.3), (0.4, 0.2, -0.3)] + REPEATED_ROOT_THETAS]
    # A root pair of modulus 0.95 at p = 5 over a long path, where |x| grows
    # large enough that rounding is judged against max |x|.
    roots = [0.95 * np.exp(0.3j), 0.95 * np.exp(-0.3j), 0.5, -0.4, 0.2]
    xi = gen.standard_normal(4000)
    theta = -np.real(np.poly(roots))[1:]
    cases.append((theta, xi, 1e-13 * np.max(np.abs(ar_recursion(theta, xi)))))
    # Fewer observations than lags, a block of series, and an empty series.
    cases.append(((0.4, 0.2, -0.3), gen.standard_normal(1), 1e-13))
    cases.append(((1.5, -0.75, 0.125), gen.standard_normal((16, 300)), 1e-13))
    cases.append(((0.5,), np.empty(0), 1e-13))
    for theta, xi, atol in cases:
        x = apply_ar(theta, xi)
        assert x.shape == xi.shape
        for row, xi_row in zip(np.atleast_2d(x), np.atleast_2d(xi)):
            # A series in a block is filtered exactly as it is alone.
            np.testing.assert_array_equal(row, apply_ar(theta, xi_row))
            np.testing.assert_allclose(row, ar_recursion(theta, xi_row), rtol=1e-13, atol=atol)


def test_apply_ar_zero_presample():
    # X_1 = xi_1 regardless of theta.
    xi = np.array([2.0, 0.0, 0.0])
    x = apply_ar((0.5,), xi)
    np.testing.assert_allclose(x, [2.0, 1.0, 0.5], rtol=1e-15)


def test_simulate_series_deterministic():
    a = simulate_series((0.5,), ar1(0.3), 64, seed=5)
    b = simulate_series((0.5,), ar1(0.3), 64, seed=5)
    np.testing.assert_array_equal(a, b)
    c = simulate_series((0.5,), ar1(0.3), 64, seed=6)
    assert not np.array_equal(a, c)


def test_simulate_series_lag1_moment():
    # For white noise the stationary lag-1 autocorrelation approaches theta.
    x = simulate_series((0.5,), white(), 40_000, seed=2)
    lag1 = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
    assert lag1 == pytest.approx(0.5, abs=0.02)


def test_simulate_series_rejects_unstable():
    with pytest.raises(Unstable):
        simulate_series((1.05,), white(), 100, seed=0)


def test_theta_validation():
    with pytest.raises(ValueError):
        armle.as_theta(np.array([]))
    with pytest.raises(ValueError):
        armle.as_theta(np.array([np.nan]))
    with pytest.raises(ValueError):
        armle.as_theta(np.array([[0.1, 0.2]]))
