import numpy as np
import pytest
import scipy.linalg

import armle
from armle import (
    ExperimentConfig,
    NotPositiveDefinite,
    ar1,
    fgn,
    filter_observations,
    kernel_rows,
    noise_from_innovations,
    pacf_and_variances,
    run_experiment,
    sample_noise,
    simulate_series,
    validate_kernel,
    white,
)
from armle import filtering

from _oracles import cholesky_sigmas, dense_covariance, dense_whitening

FAMILIES = [white(), ar1(0.5), ar1(-0.8), fgn(0.7), fgn(0.3)]


def _whiten(xi, kernel):
    """Innovations eps_m = sum_i k(m, i) xi_i / sigma_m and the sigmas."""
    path = filter_observations(xi, kernel, 1)
    return path.z / path.sigma, path.sigma


def test_white_filter_is_identity():
    beta, sigma2 = pacf_and_variances(white(), 20)
    np.testing.assert_array_equal(beta, np.zeros(20))
    np.testing.assert_array_equal(sigma2, np.ones(20))
    np.testing.assert_array_equal(kernel_rows(white(), 20), np.eye(20))


def test_ar1_closed_form():
    for a in (0.5, 0.9, -0.99):
        beta, sigma2 = pacf_and_variances(ar1(a), 12)
        assert beta[0] == pytest.approx(a, rel=1e-14)
        np.testing.assert_array_equal(beta[1:], 0.0)
        assert sigma2[0] == 1.0
        np.testing.assert_allclose(sigma2[1:], 1.0 - a * a, rtol=1e-14)
        # kernel_rows builds the rows from the closed-form walk, so they are
        # (0, ..., 0, -a, 1) exactly.
        rows = kernel_rows(ar1(a), 6)
        for m in range(2, 7):
            expected = np.zeros(m)
            expected[-1] = 1.0
            expected[-2] = -a
            np.testing.assert_array_equal(rows[m - 1, :m], expected)


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_kernel_rows_are_the_rows_the_walk_applies(hurst):
    # The rows rebuilt from beta alone whiten a series bit for bit as the
    # walk's own rows do.
    n = 300
    x = armle.standard_normals(armle.substream(9), n)
    rows = kernel_rows(fgn(hurst), n)
    z = filter_observations(x, fgn(hurst), 1).z
    for m in range(1, n + 1):
        assert rows[m - 1, :m] @ x[:m] == z[m - 1]


def test_one_walk_per_run_and_per_series(monkeypatch):
    # A Monte Carlo run walks once, to its largest sample size, whatever its
    # number of blocks and simulations; one series is whitened by one walk.
    sizes = []
    walk = filtering._levinson

    def counted(kernel, n, **series):
        sizes.append(n)
        return walk(kernel, n, **series)

    monkeypatch.setattr(filtering, "_levinson", counted)
    for experiment in ("consistency", "test_power"):
        cfg = ExperimentConfig(
            experiment=experiment, theta=(0.3, -0.2), kernel=fgn(0.7), sample_sizes=(50, 120),
            replicates=5, seed=3, shift=(1.0, 0.5),
        )
        run_experiment(cfg)
        assert sizes == [121]
        sizes.clear()
    filter_observations(np.linspace(-1.0, 1.0, 80), fgn(0.3), 3)
    assert sizes == [80]


@pytest.mark.parametrize("kernel", [white(), ar1(0.5)], ids=lambda k: k.label())
def test_markov_kernels_never_enter_the_recursion(monkeypatch, kernel):
    def refuse(*args, **kwargs):
        raise AssertionError("the O(n**2) recursion ran")

    monkeypatch.setattr(filtering, "_levinson", refuse)
    pacf_and_variances(kernel, 50)
    kernel_rows(kernel, 5)
    filter_observations(np.linspace(-1.0, 1.0, 40), kernel, 2)
    noise_from_innovations(kernel, np.ones(30))
    sample_noise(kernel, 30, seed=1)
    simulate_series((0.5,), kernel, 30, seed=1)
    validate_kernel(kernel, 50)
    run_experiment(
        ExperimentConfig(
            experiment="consistency", theta=(0.5,), kernel=kernel, sample_sizes=(20, 40),
            replicates=3, seed=1,
        )
    )


def test_markov_walk_of_one_step_checks_the_second():
    # One step reads sigma_1**2 = 1 only, yet the closed form checks 1 - a**2
    # at every n, as the walk to two steps would.
    beta, sigma2 = pacf_and_variances(ar1(0.5), 1)
    assert beta.tolist() == [0.5] and sigma2.tolist() == [1.0]
    assert noise_from_innovations(ar1(0.5), np.array([2.0])).tolist() == [2.0]
    near_one = ar1(1 - 1e-13)
    with pytest.raises(NotPositiveDefinite):
        pacf_and_variances(near_one, 1)
    with pytest.raises(NotPositiveDefinite):
        noise_from_innovations(near_one, np.array([2.0]))


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95])
def test_walk_prefix_is_the_shorter_walk(hurst):
    # A run walks once to its largest sample size; each shorter simulation
    # reads a prefix, which must be the walk to its own size bit for bit.
    beta, sigma2 = pacf_and_variances(fgn(hurst), 4000)
    for n in (1, 2, 3, 500, 777, 1999, 2000, 4000):
        short_beta, short_sigma2 = pacf_and_variances(fgn(hurst), n)
        np.testing.assert_array_equal(beta[:n], short_beta)
        np.testing.assert_array_equal(sigma2[:n], short_sigma2)


@pytest.mark.parametrize("kernel", FAMILIES, ids=lambda k: k.label())
def test_rows_and_variances_match_dense_solve(kernel):
    n = 50
    rows = kernel_rows(kernel, n)
    _, sigma2 = pacf_and_variances(kernel, n)
    rows_o, sigma2_o = dense_whitening(kernel, n)
    np.testing.assert_allclose(rows, rows_o, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(sigma2, sigma2_o, rtol=1e-10)


@pytest.mark.parametrize("kernel", FAMILIES, ids=lambda k: k.label())
def test_variances_match_cholesky_diagonal(kernel):
    n = 40
    _, sigma2 = pacf_and_variances(kernel, n)
    np.testing.assert_allclose(np.sqrt(sigma2), cholesky_sigmas(kernel, n), rtol=1e-10)


def test_filter_state_invariants():
    n = 31
    beta, sigma2 = pacf_and_variances(fgn(0.65), n)
    rows = kernel_rows(fgn(0.65), n)
    assert sigma2[0] == 1.0
    assert np.all(np.abs(beta) < 1.0)
    # sigma_n^2 = prod_{i<n} (1 - beta_i^2), and the variances never grow.
    np.testing.assert_allclose(
        sigma2[1:], np.cumprod(1.0 - beta[:-1] ** 2), rtol=1e-12
    )
    assert np.all(np.diff(sigma2) <= 1e-15)
    np.testing.assert_array_equal(np.diag(rows), np.ones(n))
    # Row m starts with -beta_{m-1}.
    np.testing.assert_allclose(rows[1:, 0], -beta[:-1], atol=1e-15)


def test_near_unit_root_kernel_degenerates():
    # a so close to one that 1 - beta_1^2 falls under the variance floor.
    bad = ar1(1.0 - 1e-13)
    for walk in (pacf_and_variances, kernel_rows):
        with pytest.raises(NotPositiveDefinite) as err:
            walk(bad, 5)
        assert err.value.step == 2


def test_whiten_white_noise_is_identity():
    xi = np.array([0.1, -0.4, 2.0])
    eps, sigma = _whiten(xi, white())
    np.testing.assert_array_equal(eps, xi)
    np.testing.assert_array_equal(sigma, np.ones(3))


def test_whiten_decorrelates_empirically():
    k = fgn(0.8)
    reps, n = 2000, 8
    eps_all = np.empty((reps, n))
    for r in range(reps):
        xi = armle.noise_from_innovations(
            k, armle.standard_normals(armle.substream(17, r), n)
        )
        eps_all[r], _ = _whiten(xi, k)
    emp = eps_all.T @ eps_all / reps
    np.testing.assert_allclose(emp, np.eye(n), atol=0.1)


def test_pacf_and_variances_validates_n():
    with pytest.raises(ValueError):
        pacf_and_variances(white(), 0)


@pytest.mark.parametrize(
    "kernel",
    [
        white(),
        ar1(0.5),
        ar1(-0.5),
        fgn(0.05),
        fgn(0.95),
        fgn(0.999),
        ar1(-0.99),
        ar1(0.99),
    ],
    ids=lambda k: k.label(),
)
def test_whitening_matches_dense_cholesky_at_large_n(kernel):
    # Levinson-Durbin is weakly stable (Cybenko 1980): its error against the
    # dense triangular solve L^{-1} x grows with the condition number of T_n.
    # White and ar1 kernels run the closed form, which must meet the same bound.
    n = 2000
    cov = dense_covariance(kernel, n)
    chol = np.linalg.cholesky(cov)
    innov = armle.standard_normals(armle.substream(3), n)
    x = chol @ innov
    evals = np.linalg.eigvalsh(cov)
    bound = 16.0 * evals[-1] / evals[0] * 2.0**-52
    # Every lag j <= 5 of the whitened series, lag j of Z_m being
    # sum_i k(m, i) x_{i-j}: lag 0 is z, lags 1..5 are the score weights w.
    path = filter_observations(x, kernel, 5)
    lags = np.column_stack([path.z, path.w])
    for j in range(6):
        shifted = np.concatenate([np.zeros(j), x[: n - j]])
        expected = scipy.linalg.solve_triangular(chol, shifted, lower=True)
        assert np.max(np.abs(lags[:, j] / path.sigma - expected)) <= bound
    # Generating direction: the sampled path is L eps.
    assert np.max(np.abs(armle.noise_from_innovations(kernel, innov) - x)) <= bound
