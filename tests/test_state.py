import numpy as np
import pytest

import armle
from armle import (
    DimensionMismatch,
    TooShort,
    accumulate,
    ar1,
    fgn,
    filter_observations,
    innovations,
    log_likelihood,
    white,
)
from armle.state import _gram_moment, _path_weights

from _oracles import dense_log_likelihood, random_stable_theta, transition


def _random_path(kernel, p, n, seed, theta=(0.3,)):
    theta = np.resize(np.asarray(theta, dtype=float), p)
    x = armle.simulate_series(theta, kernel, n, seed)
    return filter_observations(x, kernel, p), x


def test_first_state_is_lag_vector():
    x = np.array([1.7, -0.2, 0.4])
    for kernel in (white(), ar1(0.5), fgn(0.7)):
        path = filter_observations(x, kernel, 2)
        np.testing.assert_allclose(path.states[0], [1.7, 0.0, 0.0, 0.0], atol=1e-15)


def test_white_states_are_lag_vectors():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    path = filter_observations(x, white(), 2)
    # Z_m = Y_m = (x_m, x_{m-1}) and the carry block stays zero.
    np.testing.assert_array_equal(
        path.states[:, :2], [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0], [4.0, 3.0]]
    )
    np.testing.assert_array_equal(path.states[:, 2:], np.zeros((4, 2)))


def test_ar1_two_point_state_by_hand():
    a = 0.5
    x = np.array([1.3, -0.2])
    path = filter_observations(x, ar1(a), 1)
    # Row k(2,.) = (-a, 1): Z_2 = x_2 - a x_1; carry picks up beta_1 Z_1 = a x_1.
    assert path.states[1, 0] == pytest.approx(x[1] - a * x[0], rel=1e-14)
    assert path.states[1, 1] == pytest.approx(a * x[0], rel=1e-14)


def test_carry_telescopes():
    path, _ = _random_path(fgn(0.7), 2, 40, seed=9)
    z = path.states[:, :2]
    carry = path.states[:, 2:]
    np.testing.assert_allclose(carry[0], 0.0, atol=1e-15)
    for m in range(1, 40):
        np.testing.assert_allclose(
            carry[m], carry[m - 1] + path.pacf[m] * z[m - 1], rtol=1e-12, atol=1e-14
        )


def test_too_short_and_bad_input():
    with pytest.raises(TooShort):
        filter_observations(np.array([1.0, 2.0]), white(), 2)
    with pytest.raises(ValueError):
        filter_observations(np.array([1.0, np.nan, 2.0]), white(), 1)


def test_transition_blocks():
    theta = (0.5, 0.3)
    a0 = armle.companion(theta)
    t = transition(theta, 0.25)
    np.testing.assert_array_equal(t[:2, :2], a0)
    np.testing.assert_allclose(t[:2, 2:], 0.25 * a0)
    np.testing.assert_allclose(t[2:, :2], 0.25 * np.eye(2))
    np.testing.assert_array_equal(t[2:, 2:], np.eye(2))
    # beta = 0 gives block-diag(A0, I).
    t0 = transition(theta, 0.0)
    np.testing.assert_array_equal(t0[:2, 2:], np.zeros((2, 2)))
    np.testing.assert_array_equal(t0[2:, :2], np.zeros((2, 2)))


def test_state_recursion_via_transition():
    # zeta_m = A~_{m-1} zeta_{m-1} + l * eps-part; verify the deterministic
    # block: the second component of the transition applied to zeta_{m-1}
    # reproduces the carry exactly.
    theta = (0.4, 0.1)
    path, _ = _random_path(ar1(0.6), 2, 30, seed=4, theta=theta)
    for m in range(1, 30):
        t = transition(theta, path.pacf[m])
        pred = t @ path.states[m - 1]
        np.testing.assert_allclose(
            path.states[m, 2:], pred[2:], rtol=1e-11, atol=1e-13
        )


def test_innovations_white():
    theta = (0.5,)
    path, x = _random_path(white(), 1, 25, seed=3, theta=theta)
    eps = innovations(path, theta)
    expected = x - 0.5 * np.r_[0.0, x[:-1]]
    np.testing.assert_allclose(eps, expected, rtol=1e-12)


def test_innovations_recover_driving_noise():
    # Simulating with known standardized innovations and filtering at the
    # true parameter must give those innovations back.
    gen = np.random.default_rng(11)
    for kernel in (white(), ar1(0.6), fgn(0.75)):
        for p in (1, 2):
            theta = random_stable_theta(gen, p, max_modulus=0.7)
            eps = armle.standard_normals(armle.substream(5, p), 60)
            xi = armle.noise_from_innovations(kernel, eps)
            x = armle.apply_ar(theta, xi)
            path = filter_observations(x, kernel, p)
            np.testing.assert_allclose(
                innovations(path, theta), eps, rtol=1e-8, atol=1e-8
            )


def test_log_likelihood_matches_dense_gaussian_density():
    gen = np.random.default_rng(21)
    for kernel in (white(), ar1(0.55), fgn(0.72)):
        for p in (1, 2):
            theta_true = random_stable_theta(gen, p, max_modulus=0.7)
            x = armle.simulate_series(theta_true, kernel, 30, seed=int(gen.integers(1000)))
            path = filter_observations(x, kernel, p)
            theta_eval = random_stable_theta(gen, p, max_modulus=0.7)
            ours = log_likelihood(path, theta_eval)
            oracle = dense_log_likelihood(x, theta_eval, kernel)
            assert ours == pytest.approx(oracle, rel=1e-10, abs=1e-8)


def test_score_weights_shift():
    path, _ = _random_path(ar1(0.5), 2, 20, seed=6)
    w = _path_weights(path)
    np.testing.assert_array_equal(w[0], 0.0)
    z = path.states[:, :2]
    carry = path.states[:, 2:]
    for m in range(1, 20):
        np.testing.assert_allclose(
            w[m], z[m - 1] + path.pacf[m] * carry[m - 1], rtol=1e-13, atol=1e-15
        )


def test_gram_moment_matches_explicit_sums():
    theta = (0.3, 0.2)
    path, _ = _random_path(fgn(0.6), 2, 35, seed=8, theta=theta)
    w = _path_weights(path)
    sigma2 = path.sigma2
    ours_gram, ours_moment = _gram_moment(w, path.states[:, 0], sigma2, (35,))
    assert ours_gram.shape == (1, 2, 2) and ours_moment.shape == (1, 2)
    gram = sum(np.outer(w[i], w[i]) / sigma2[i] for i in range(35))
    moment = sum(w[i] * path.states[i, 0] / sigma2[i] for i in range(35))
    np.testing.assert_allclose(ours_gram[0], gram, rtol=1e-12)
    np.testing.assert_allclose(ours_moment[0], moment, rtol=1e-12)
    assert accumulate(path, theta)[0].count == 35
    evals = np.linalg.eigvalsh(ours_gram[0])
    assert np.all(evals >= -1e-12)


def test_accumulate_score_identity():
    # The score at theta equals moment - gram @ theta for the quadratic
    # likelihood, and vanishes at the stationary point.
    theta = (0.45,)
    path, _ = _random_path(ar1(0.5), 1, 50, seed=12, theta=theta)
    acc, score = accumulate(path, theta)
    np.testing.assert_allclose(
        score, acc.moment - acc.gram @ np.array(theta), rtol=1e-11, atol=1e-12
    )
    theta_hat = np.linalg.solve(acc.gram, acc.moment)
    _, score_at_hat = accumulate(path, theta_hat)
    np.testing.assert_allclose(score_at_hat, 0.0, atol=1e-9)


def test_dimension_mismatch():
    path, _ = _random_path(white(), 2, 20, seed=1)
    with pytest.raises(DimensionMismatch):
        log_likelihood(path, (0.1,))
    with pytest.raises(DimensionMismatch):
        innovations(path, (0.1, 0.2, 0.3))


def test_filtered_path_properties():
    path, _ = _random_path(ar1(0.4), 2, 15, seed=5)
    assert path.n == 15
    assert path.p == 2
    np.testing.assert_array_equal(path.whitened, path.states[:, :2])
    np.testing.assert_allclose(path.sigma, np.sqrt(path.sigma2), rtol=1e-15)
    assert path.pacf[0] == 0.0
