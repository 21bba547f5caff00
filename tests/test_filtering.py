import numpy as np
import pytest
import scipy.linalg

import armle
from armle import (
    NotPositiveDefinite,
    ar1,
    fgn,
    filter_observations,
    kernel_rows,
    pacf_and_variances,
    white,
)

from _oracles import cholesky_sigmas, dense_covariance, dense_whitening

FAMILIES = [white(), ar1(0.5), ar1(-0.8), fgn(0.7), fgn(0.3)]


def _whiten(xi, kernel):
    """Innovations eps_m = sum_i k(m, i) xi_i / sigma_m and the sigmas."""
    path = filter_observations(xi, kernel, 1)
    return path.whitened[:, 0] / path.sigma, path.sigma


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
    rows = kernel_rows(ar1(0.5), 6)
    for m in range(2, 7):
        expected = np.zeros(m)
        expected[-1] = 1.0
        expected[-2] = -0.5
        np.testing.assert_allclose(rows[m - 1, :m], expected, atol=1e-14)


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
    with pytest.raises(NotPositiveDefinite) as err:
        pacf_and_variances(bad, 5)
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
    # Every lag j < 5 of the state, lag j of Z_m being sum_i k(m, i) x_{i-j}.
    path = filter_observations(x, kernel, 5)
    for j in range(5):
        shifted = np.concatenate([np.zeros(j), x[: n - j]])
        expected = scipy.linalg.solve_triangular(chol, shifted, lower=True)
        assert np.max(np.abs(path.whitened[:, j] / path.sigma - expected)) <= bound
    # Generating direction: the sampled path is L eps.
    assert np.max(np.abs(armle.noise_from_innovations(kernel, innov) - x)) <= bound
