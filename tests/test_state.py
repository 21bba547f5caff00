from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg.lapack

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
    pacf_and_variances,
    white,
)
from armle.state import _gram_moment, _simulated_path

from _oracles import (
    dense_log_likelihood,
    dense_state,
    random_stable_theta,
    transition,
    two_walk_path,
)

ORACLE_KERNELS = [white(), ar1(0.6), fgn(0.3), fgn(0.7)]


def _random_path(kernel, p, n, seed, theta=(0.3,)):
    theta = np.resize(np.asarray(theta, dtype=float), p)
    x = armle.simulate_series(theta, kernel, n, seed)
    return filter_observations(x, kernel, p), x


def test_first_state_is_lag_vector():
    # zeta_1 = (Y_1, 0) and zeta_0 = 0: Z_1[0] = x_1 and w_1 = 0.
    x = np.array([1.7, -0.2, 0.4])
    for kernel in (white(), ar1(0.5), fgn(0.7)):
        path = filter_observations(x, kernel, 2)
        assert path.z[0] == pytest.approx(1.7, rel=1e-15)
        np.testing.assert_array_equal(path.w[0], [0.0, 0.0])


def test_white_states_are_lag_vectors():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    path = filter_observations(x, white(), 2)
    # Z_m = Y_m = (x_m, x_{m-1}) and the carry stays zero, so w_m = Y_{m-1}.
    np.testing.assert_array_equal(path.z, x)
    np.testing.assert_array_equal(path.w, [[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])


def test_ar1_two_point_state_by_hand():
    a = 0.5
    x = np.array([1.3, -0.2])
    path = filter_observations(x, ar1(a), 1)
    ref = dense_state(x, ar1(a), 1)
    # Row k(2,.) = (-a, 1): Z_2 = x_2 - a x_1; carry picks up beta_1 Z_1 = a x_1;
    # w_2 = Z_1 + beta_1 carry_1 = x_1.
    assert path.z[1] == pytest.approx(x[1] - a * x[0], rel=1e-14)
    assert ref.carry[1, 0] == pytest.approx(a * x[0], rel=1e-14)
    assert path.w[1, 0] == pytest.approx(x[0], rel=1e-14)


def test_carry_telescopes():
    # The oracle's beta_m = -k(m+1, 1) from dense rows is the filter's PACF,
    # and the score weights are Z_{m-1} plus beta_{m-1} times the carry.
    n = 40
    path, x = _random_path(fgn(0.7), 2, n, seed=9)
    ref = dense_state(x, fgn(0.7), 2)
    beta, _ = pacf_and_variances(fgn(0.7), n)
    np.testing.assert_allclose(ref.pacf[1:], beta[:-1], rtol=1e-12, atol=1e-14)
    np.testing.assert_array_equal(ref.carry[0], 0.0)
    for m in range(1, n):
        np.testing.assert_allclose(
            path.w[m], ref.z[m - 1] + ref.pacf[m] * ref.carry[m - 1], rtol=1e-12, atol=1e-14
        )


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.label())
def test_path_matches_dense_state(kernel, p):
    n = 60
    for seed in (1, 2):
        path, x = _random_path(kernel, p, n, seed=seed, theta=(0.4, -0.2, 0.1))
        assert path.z.shape == (n,) and path.w.shape == (n, p) and path.n == n
        ref = dense_state(x, kernel, p)
        tol = 1e-12 * np.max(np.abs(x))
        np.testing.assert_allclose(path.z, ref.z[:, 0], rtol=0, atol=tol)
        np.testing.assert_allclose(path.w, ref.w, rtol=0, atol=tol)
        np.testing.assert_allclose(path.sigma2, ref.sigma2, rtol=1e-12)


# AR(5) with a complex root pair of modulus 0.95, the edge of the battery's range.
_EDGE_THETA = tuple(-np.real(np.poly([0.95j, -0.95j, 0.6, -0.5, 0.3])[1:]))


@pytest.mark.parametrize(
    "theta", [(0.5,), (1.2, -0.5, 0.1), _EDGE_THETA], ids=["p1", "p3", "p5_edge"]
)
@pytest.mark.parametrize(
    "kernel",
    [white(), ar1(0.5), ar1(-0.9), fgn(0.05), fgn(0.7), fgn(0.95)],
    ids=lambda k: k.label(),
)
def test_simulated_path_matches_two_walks(kernel, theta):
    # The state recursion along the true model gives the path that generating
    # the noise, running the AR recursion and filtering the series give.
    n, reps = 3000, 2
    assert armle.is_stable(theta)
    eps = np.stack([armle.standard_normals(armle.substream(5, r), n) for r in range(reps)])
    walk = pacf_and_variances(kernel, n)
    ours, ref = _simulated_path(theta, eps, walk), two_walk_path(theta, kernel, eps)
    assert ours.z.shape == (reps, n) and ours.w.shape == (reps, n, len(theta))
    np.testing.assert_array_equal(ours.sigma2, ref.sigma2)
    if kernel.family == "white":
        np.testing.assert_array_equal(ours.z, ref.z)
        np.testing.assert_array_equal(ours.w, ref.w)
        return
    tol = 1e-12 * np.max(np.abs(ref.z))
    np.testing.assert_allclose(ours.z, ref.z, rtol=0, atol=tol)
    np.testing.assert_allclose(ours.w, ref.w, rtol=0, atol=tol)


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("theta", [(0.5,), _EDGE_THETA], ids=["p1", "p5_edge"])
@pytest.mark.parametrize("kernel", [fgn(0.05), fgn(0.95)], ids=lambda k: k.label())
def test_simulated_path_at_the_shortest_sizes(kernel, theta, reps, monkeypatch):
    # At n = 1, 2 and p + 2 the path is one dtbtrs solve that matches the two
    # walks, leaves eps as it was, and is read from the solution dtbtrs
    # returns: its input buffer is poisoned after each solve.
    solve, calls = scipy.linalg.lapack.dtbtrs, []

    def poisoned(ab, b, **kw):
        x, info = solve(ab, b, **kw)
        x = x.copy()
        b[...] = np.nan
        calls.append(1)
        return x, info

    monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs", poisoned)
    for n in (1, 2, len(theta) + 2):
        eps = np.stack([armle.standard_normals(armle.substream(6, r), n) for r in range(reps)])
        eps.setflags(write=False)
        given = eps.copy()
        calls.clear()
        ours = _simulated_path(theta, eps, pacf_and_variances(kernel, n + 3))
        assert len(calls) == 1
        np.testing.assert_array_equal(eps, given)
        ref = two_walk_path(theta, kernel, eps)
        tol = 1e-12 * np.max(np.abs(ref.z))
        np.testing.assert_allclose(ours.z, ref.z, rtol=0, atol=tol)
        np.testing.assert_allclose(ours.w, ref.w, rtol=0, atol=tol)
        np.testing.assert_array_equal(ours.sigma2, ref.sigma2)


def test_markov_walk_variances_are_one_closed_form():
    # The walk, the library's filter and the harness's simulated path carry
    # the same sigma**2 = 1 - a**2, bit for bit.
    n, a = 50, 0.5
    _, sigma2 = pacf_and_variances(ar1(a), n)
    assert sigma2[0] == 1.0 and np.all(sigma2[1:] == 1.0 - a * a)
    x = armle.simulate_series((0.3,), ar1(a), n, 4)
    eps = np.stack([armle.standard_normals(armle.substream(4, r), n) for r in range(2)])
    for p in (1, 3):
        np.testing.assert_array_equal(filter_observations(x, ar1(a), p).sigma2, sigma2)
    harness = _simulated_path((0.3,), eps, pacf_and_variances(ar1(a), 2 * n))
    np.testing.assert_array_equal(harness.sigma2, sigma2)


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
    # zeta_m = T(theta, beta_{m-1}) zeta_{m-1} + e_1 sigma_m eps_m. On the oracle
    # state the deterministic rows hold exactly: the lower block of T gives the
    # carry, the shift rows of A give lag 1 of Z_m, and the first block of
    # T zeta_{m-1} is A w_m with the package's score weight w_m.
    theta = (0.4, 0.1)
    for kernel in (ar1(0.6), fgn(0.7)):
        path, x = _random_path(kernel, 2, 30, seed=4, theta=theta)
        ref = dense_state(x, kernel, 2)
        zeta = np.hstack([ref.z, ref.carry])
        for m in range(1, 30):
            pred = transition(theta, ref.pacf[m]) @ zeta[m - 1]
            np.testing.assert_allclose(zeta[m, 2:], pred[2:], rtol=1e-11, atol=1e-13)
            assert zeta[m, 1] == pytest.approx(pred[1], rel=1e-11, abs=1e-13)
            np.testing.assert_allclose(
                armle.companion(theta) @ path.w[m], pred[:2], rtol=1e-11, atol=1e-13
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
    # w_1 = 0, and w_m holds lags 1..p of Z_m: lag j + 1 of Z_m is lag j of w_m.
    path, x = _random_path(fgn(0.3), 3, 20, seed=6)
    ref = dense_state(x, fgn(0.3), 3)
    np.testing.assert_array_equal(path.w[0], 0.0)
    np.testing.assert_allclose(ref.w[:, :-1], ref.z[:, 1:], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(path.w[:, :-1], ref.z[:, 1:], rtol=1e-12, atol=1e-14)


def test_gram_moment_matches_explicit_sums():
    theta = (0.3, 0.2)
    path, _ = _random_path(fgn(0.6), 2, 35, seed=8, theta=theta)
    w, z, sigma2 = path.w, path.z, path.sigma2
    ours_gram, ours_moment = _gram_moment(path, (35,))
    assert ours_gram.shape == (1, 2, 2) and ours_moment.shape == (1, 2)
    gram = sum(np.outer(w[i], w[i]) / sigma2[i] for i in range(35))
    moment = sum(w[i] * z[i] / sigma2[i] for i in range(35))
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
    assert [f.name for f in fields(path)] == ["z", "w", "sigma2"]
    assert path.z.shape == (15,) and path.w.shape == (15, 2) and path.sigma2.shape == (15,)
    assert path.n == 15
    assert path.p == 2
    np.testing.assert_allclose(path.sigma, np.sqrt(path.sigma2), rtol=1e-15)
