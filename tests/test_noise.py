import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armle
from armle import (
    CovarianceKernel,
    ar1,
    covariance,
    fgn,
    filter_observations,
    kernel_from_json,
    noise_from_innovations,
    sample_noise,
    validate_kernel,
    white,
)

from _oracles import dense_covariance


def test_white_covariance():
    k = white()
    assert covariance(k, 0) == 1.0
    assert all(covariance(k, lag) == 0.0 for lag in range(1, 10))


def test_ar1_covariance_geometric():
    k = ar1(0.6)
    for lag in range(8):
        assert covariance(k, lag) == pytest.approx(0.6**lag, rel=1e-15)
    k = ar1(-0.4)
    assert covariance(k, 3) == pytest.approx((-0.4) ** 3, rel=1e-15)


def test_fgn_covariance_values():
    k = fgn(0.7)
    # Frozen by hand: r(1) = (2^1.4 - 2)/2 = 2^0.4 - 1.
    assert covariance(k, 1) == pytest.approx(2.0**0.4 - 1.0, rel=1e-14)
    assert covariance(k, 0) == 1.0
    # H = 1/2 reduces fractional increments to white noise.
    half = fgn(0.5)
    assert all(abs(covariance(half, lag)) < 1e-15 for lag in range(1, 20))


def test_fgn_negative_dependence_below_half():
    k = fgn(0.3)
    assert covariance(k, 1) < 0.0


def test_covariance_bounds():
    for k in (white(), ar1(0.8), ar1(-0.8), fgn(0.25), fgn(0.85)):
        values = [covariance(k, lag) for lag in range(60)]
        assert values[0] == 1.0
        assert all(abs(v) <= 1.0 + 1e-12 for v in values)


def test_covariance_rejects_negative_lag():
    with pytest.raises(ValueError):
        covariance(white(), -1)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        ar1(1.0)
    with pytest.raises(ValueError):
        ar1(-1.2)
    with pytest.raises(ValueError):
        fgn(0.0)
    with pytest.raises(ValueError):
        fgn(1.0)
    with pytest.raises(ValueError):
        CovarianceKernel(family="triangular")


def test_kernel_refuses_a_param_its_family_does_not_read():
    for family, args in (("white", (0.9,)), ("ar1", ()), ("fgn", ())):
        with pytest.raises(ValueError, match=family):
            CovarianceKernel(family, *args)


@pytest.mark.parametrize(
    "factory, direct",
    [
        (white(), CovarianceKernel("white")),
        (ar1(0.5), CovarianceKernel("ar1", 0.5)),
        (fgn(0.7), CovarianceKernel("fgn", 0.7)),
    ],
    ids=["white", "ar1", "fgn"],
)
def test_factory_json_and_direct_kernel_are_one_kernel(factory, direct):
    back = kernel_from_json(json.dumps(factory.to_json_dict()))
    assert factory == back == direct
    assert hash(factory) == hash(back) == hash(direct)


def test_kernel_set_holds_one_element_per_kernel():
    ar1_json = '{"family": "ar1", "params": {"a": 0.5}}'
    assert len({ar1(0.5), kernel_from_json(ar1_json)}) == 1
    fgn_json = '{"family": "fgn", "params": {"H": 0.7}}'
    assert len({fgn(0.7), CovarianceKernel("fgn", 0.7), kernel_from_json(fgn_json)}) == 1


def test_kernel_json_round_trip():
    for k in (white(), ar1(-0.35), fgn(0.62)):
        back = kernel_from_json(k.to_json_dict())
        assert back == k


def test_kernel_json_accepts_case_insensitive_family():
    assert kernel_from_json('{"family": "AR1", "params": {"a": 0.5}}') == ar1(0.5)
    assert kernel_from_json('{"family": "White", "params": {}}') == white()
    assert kernel_from_json('{"family": "FGN", "params": {"H": 0.7}}') == fgn(0.7)


def test_kernel_json_rejects_bad_shapes():
    for text in (
        '{"family": "ar1"}',
        '{"family": "ar1", "params": {}}',
        '{"family": "fgn", "params": {"a": 0.5}}',
        '{"params": {"a": 0.5}}',
        "[1, 2]",
    ):
        with pytest.raises(ValueError):
            kernel_from_json(text)


def test_kernel_json_rejects_unknown_keys_and_non_numeric_params():
    # Each of these loaded as ar1(0.5) or fgn(1.0), the bad part dropped or coerced.
    for text, name in (
        ('{"family": "ar1", "params": {"a": 0.5, "b": 1}}', "b"),
        ('{"family": "ar1", "params": {"a": 0.5}, "extra": 1}', "extra"),
        ('{"family": "white", "params": {"a": 0.5}}', "a"),
        ('{"family": "ar1", "params": {"a": "0.5"}}', "params.a"),
        ('{"family": "fgn", "params": {"H": true}}', "params.H"),
        ('{"family": "fgn", "params": {"H": null}}', "params.H"),
    ):
        with pytest.raises(ValueError, match=name):
            kernel_from_json(text)
    # Integers and numpy numbers are real numbers.
    assert kernel_from_json('{"family": "ar1", "params": {"a": 0}}') == ar1(0.0)
    assert kernel_from_json({"family": "fgn", "params": {"H": np.float32(0.5)}}) == fgn(0.5)


@given(st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_kernel_json_round_trip_property(a):
    k = ar1(a)
    assert kernel_from_json(k.to_json_dict()) == k


def test_validate_kernel_white():
    report = validate_kernel(white(), 128)
    assert report.passed
    assert report.min_sigma2 == pytest.approx(1.0)
    assert report.max_abs_beta == 0.0
    assert not report.slow_decay


def test_validate_kernel_ar1_variance_floor():
    report = validate_kernel(ar1(0.9), 64)
    assert report.passed
    # After the first step the innovation variance settles at 1 - a^2.
    assert report.min_sigma2 == pytest.approx(1.0 - 0.81, rel=1e-12)
    assert report.max_abs_beta == pytest.approx(0.9, rel=1e-12)
    assert not report.slow_decay


def test_validate_kernel_fgn_slow_decay():
    report = validate_kernel(fgn(0.75), 256)
    assert report.passed
    assert report.slow_decay
    assert report.beta_decay_exponent is not None
    # beta_n^2 for increments with Hurst 0.75 decays around n^(-1);
    # the fitted exponent should sit well below the fast-decay cutoff.
    assert 0.2 < report.beta_decay_exponent < 3.0


def test_validate_kernel_report_json():
    report = validate_kernel(ar1(0.5), 32)
    obj = report.to_json_dict()
    text = json.dumps(obj, allow_nan=False)
    assert json.loads(text)["passed"] is True


def test_noise_from_innovations_white_identity():
    eps = np.array([0.3, -1.2, 0.7])
    xi = noise_from_innovations(white(), eps)
    np.testing.assert_array_equal(xi, eps)
    assert xi is not eps


def test_noise_from_innovations_takes_one_series():
    eps = np.zeros((2, 5))
    for kernel in (white(), ar1(0.5), fgn(0.7)):
        with pytest.raises(ValueError, match="1-d"):
            noise_from_innovations(kernel, eps)
        with pytest.raises(ValueError, match="1-d"):
            noise_from_innovations(kernel, 0.3)


def test_length_and_seed_arguments_are_integers():
    # A non-integral value or a bool would be truncated into another length,
    # horizon, lag, model order or substream; integral floats and numpy
    # integers are the same call.
    k = fgn(0.7)
    x = armle.simulate_series((0.3,), k, 20, 1)
    calls = {
        "n": [
            lambda v: armle.pacf_and_variances(k, v),
            lambda v: armle.kernel_rows(k, v),
            lambda v: sample_noise(k, v, 1),
            lambda v: armle.simulate_series((0.3,), k, v, 1),
        ],
        "horizon": [lambda v: validate_kernel(k, v)],
        "seed": [lambda v: sample_noise(k, 4, v), lambda v: armle.substream(v)],
        "path": [lambda v: armle.substream(1, v)],
        "lag": [lambda v: covariance(k, v)],
        "p": [lambda v: armle.filter_observations(x, k, v)],
    }
    for name, fns in calls.items():
        for fn in fns:
            for bad in (2.9, 2.5, True, np.bool_(True), "3"):
                with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                    fn(bad)
    assert len(armle.pacf_and_variances(k, 3.0)[0]) == 3
    assert armle.kernel_rows(k, np.int32(3)).shape == (3, 3)
    assert sample_noise(k, 3.0, 2.0).tolist() == sample_noise(k, 3, 2).tolist()
    assert validate_kernel(k, 5.0).horizon == 5
    a, b = armle.substream(1.0, np.int64(2)), armle.substream(1, 2)
    assert a.integers(1 << 30) == b.integers(1 << 30)
    assert covariance(k, 2.0) == covariance(k, np.int64(2)) == covariance(k, 2)
    for p in (2.0, np.int64(2)):
        assert armle.filter_observations(x, k, p).w.shape == (20, 2)


def test_noise_covariance_matches_kernel():
    # Empirical covariance across many short replicates.
    k = ar1(0.6)
    reps = 4000
    n = 6
    samples = np.empty((reps, n))
    for r in range(reps):
        gen = armle.substream(99, r)
        eps = armle.standard_normals(gen, n)
        samples[r] = noise_from_innovations(k, eps)
    emp = samples.T @ samples / reps
    np.testing.assert_allclose(emp, dense_covariance(k, n), atol=0.08)


def _whiten(xi, kernel):
    path = filter_observations(xi, kernel, 1)
    return path.z / path.sigma, path.sigma


def test_whiten_inverts_sampling():
    for k in (ar1(0.7), fgn(0.65), white()):
        gen = armle.substream(5)
        eps = armle.standard_normals(gen, 300)
        xi = noise_from_innovations(k, eps)
        eps_back, sigma = _whiten(xi, k)
        np.testing.assert_allclose(eps_back, eps, atol=1e-10)
        assert sigma[0] == 1.0
        assert np.all(sigma > 0)


# filter_observations needs at least two observations (p + 1 with p = 1).
@given(st.floats(min_value=-0.9, max_value=0.9), st.integers(min_value=2, max_value=40))
@settings(max_examples=30, deadline=None)
def test_whiten_round_trip_property(a, n):
    k = ar1(a)
    eps = armle.standard_normals(armle.substream(12, n), n)
    xi = noise_from_innovations(k, eps)
    eps_back, _ = _whiten(xi, k)
    np.testing.assert_allclose(eps_back, eps, atol=1e-9)


def test_sample_noise_deterministic():
    a = sample_noise(fgn(0.7), 50, seed=3)
    b = sample_noise(fgn(0.7), 50, seed=3)
    np.testing.assert_array_equal(a, b)
    c = sample_noise(fgn(0.7), 50, seed=4)
    assert not np.array_equal(a, c)


def test_sample_noise_marginal_variance():
    # Stationary kernels are normalized to unit variance at every index.
    values = sample_noise(ar1(0.5), 20_000, seed=8)
    assert abs(values.var() - 1.0) < 0.05
    lag1 = np.mean(values[1:] * values[:-1])
    assert abs(lag1 - 0.5) < 0.05


def test_sample_noise_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_noise(white(), 0, seed=1)
    with pytest.raises(ValueError):
        sample_noise(white(), 10, seed=-1)


def test_kernel_labels():
    assert white().label() == "white"
    assert "0.5" in ar1(0.5).label()
    assert "0.7" in fgn(0.7).label()
