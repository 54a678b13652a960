"""Linear-Gaussian risk validation: closed forms, bounds, factorization."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from wavlab import theory
from wavlab.errors import ConfigError, RankDeficientError, TheoryInvariantError
from wavlab.theory import (
    LinearGaussianSpec,
    check_sweep,
    coupled_inverse_whiteness,
    gamma_factors,
    lemma_excess_risk,
    measure_gap,
    ols_fit,
    sample_forward_problem,
    sample_inverse_problem,
    sweep_gap,
)


def spec_default(d_s=20, d_a=2, d_z=2, sigma_s=1.0, sigma_a=0.1, lam=1.0, seed=0):
    return LinearGaussianSpec.default(
        d_s, d_a, d_z, sigma_s, sigma_a, lam, rng=np.random.default_rng(seed)
    )


def lemma_loop(D, n, nu, trials, rng):
    """Per-trial reference for lemma_excess_risk's empirical risk."""
    total = 0.0
    for _ in range(trials):
        w_star = rng.normal(size=(D, 1))
        X = rng.normal(size=(n, D))
        w_hat = ols_fit(X, X @ w_star + nu * rng.normal(size=(n, 1)))
        total += float(np.sum((w_hat - w_star) ** 2))
    return total / trials


def gap_loop(spec, n, trials, rng):
    """Per-trial reference for measure_gap's forward and inverse risks."""
    ef = np.empty(trials)
    ei = np.empty(trials)
    for t in range(trials):
        Xf, Yf, Wf = sample_forward_problem(spec, n, rng)
        ef[t] = np.sum((ols_fit(Xf, Yf).T - Wf) ** 2) / spec.d_s
        Xi, Yi, Hi = sample_inverse_problem(spec, n, rng)
        ei[t] = np.sum((spec.B @ (ols_fit(Xi, Yi).T - Hi)) ** 2) / spec.d_s
    return ef, ei


def chunk_trials(per_trial):
    """Trials in one chunk of draws for ``per_trial`` draws per trial."""
    return theory._CHUNK_FLOATS // per_trial


class TestSpec:
    def test_lam_is_recomputed_operator_norm(self):
        spec = spec_default(lam=2.5)
        assert spec.lam == pytest.approx(2.5)
        assert spec.lam == pytest.approx(np.linalg.norm(spec.B, 2))

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            spec_default(d_s=4, d_z=5)

    def test_positive_noise_required(self):
        with pytest.raises(ConfigError):
            LinearGaussianSpec.default(4, 2, 2, 0.0, 0.1, rng=np.random.default_rng(0))


class TestSampling:
    def test_forward_noiseless_is_exactly_linear(self):
        spec = spec_default(sigma_s=1e-12)
        X, Y, W = sample_forward_problem(spec, 50, np.random.default_rng(1))
        assert np.allclose(Y, X @ W.T, atol=1e-9)

    def test_forward_column_means_near_zero(self):
        spec = spec_default()
        n = 4000
        X, _, _ = sample_forward_problem(spec, n, np.random.default_rng(2))
        assert np.all(np.abs(X.mean(axis=0)) < 5 / np.sqrt(n))

    def test_inverse_design_is_whitened(self):
        # Sample covariance approaches the identity.
        spec = spec_default()
        n = 20000
        X, _, _ = sample_inverse_problem(spec, n, np.random.default_rng(3))
        cov = X.T @ X / n
        assert np.max(np.abs(cov - np.eye(2 * spec.d_z))) < 0.06

    def test_coupled_design_departs_from_white(self):
        # The joint simulation is not whitened; the deviation is visible.
        spec = spec_default(d_s=6, d_a=2, d_z=3, sigma_s=0.3)
        dev = coupled_inverse_whiteness(spec, 20000, np.random.default_rng(4))
        assert dev > 0.1


class TestOlsFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 6))
        W = rng.normal(size=(6, 3))
        W_hat = ols_fit(X, X @ W)
        assert np.linalg.norm(W_hat - W) / np.linalg.norm(W) < 1e-8

    def test_square_system_interpolates(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(5, 5))
        y = rng.normal(size=(5, 1))
        W = ols_fit(X, y)
        assert np.allclose(X @ W, y, atol=1e-8)

    def test_duplicated_rows_leave_fit_unchanged(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = X @ rng.normal(size=(4, 1)) + 0.1 * rng.normal(size=(30, 1))
        W1 = ols_fit(X, y)
        W2 = ols_fit(np.vstack([X, X]), np.vstack([y, y]))
        assert np.allclose(W1, W2, atol=1e-10)

    def test_underdetermined_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(RankDeficientError):
            ols_fit(rng.normal(size=(3, 5)), rng.normal(size=(3, 1)))

    def test_rank_deficiency_rejected(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        X[:, 2] = X[:, 0]  # exact collinearity
        with pytest.raises(RankDeficientError):
            ols_fit(X, rng.normal(size=(20, 1)))

    def test_stack_equals_slice_by_slice(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(2, 5, 30, 4))
        Y = rng.normal(size=(2, 5, 30, 3))
        W = ols_fit(X, Y)
        assert W.shape == (2, 5, 4, 3)
        for i in range(2):
            for j in range(5):
                assert np.array_equal(W[i, j], ols_fit(X[i, j], Y[i, j]))

    def test_stack_with_one_collinear_slice_rejected(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(3, 20, 3))
        X[1, :, 2] = X[1, :, 0]
        cond = np.linalg.cond(X[1].T @ X[1])
        with pytest.raises(RankDeficientError, match=re.escape(f"number {cond:.3e} ")):
            ols_fit(X, rng.normal(size=(3, 20, 1)))
        with pytest.raises(RankDeficientError, match="cannot determine"):
            ols_fit(X[:, :2], rng.normal(size=(3, 2, 1)))

    @staticmethod
    def design_with_gram_condition(cond: float, seed: int) -> np.ndarray:
        """A 30 x 2 design whose Gram matrix has condition number ``cond``."""
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(30, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        return U * np.array([1.0, cond ** -0.5]) @ V.T

    @staticmethod
    def spy_on_cond(monkeypatch) -> list:
        """From now on, record every ``np.linalg.cond`` call."""
        calls = []
        real_cond = np.linalg.cond
        monkeypatch.setattr(theory.np.linalg, "cond",
                            lambda G: calls.append(G) or real_cond(G))
        return calls

    def test_borderline_design_accepted_through_exact_check(self, monkeypatch):
        X = self.design_with_gram_condition(8e7, seed=30)
        G = X.T @ X
        assert 5e7 < np.linalg.cond(G) < 1e8
        y = np.random.default_rng(31).normal(size=(30, 1))
        cond_calls = self.spy_on_cond(monkeypatch)
        W = ols_fit(X, y)
        assert len(cond_calls) == 1  # the certificate could not clear it
        assert np.array_equal(W, np.linalg.solve(G, X.T @ y))

    def test_design_above_limit_refused_with_svd_condition(self, monkeypatch):
        X = self.design_with_gram_condition(1.5e8, seed=32)
        cond = np.linalg.cond(X.T @ X)
        assert 1.4e8 < cond < 1.6e8
        cond_calls = self.spy_on_cond(monkeypatch)
        with pytest.raises(RankDeficientError, match=re.escape(f"number {cond:.3e} ")):
            ols_fit(X, np.ones((30, 1)))
        assert len(cond_calls) == 1

    def test_exactly_singular_slice_refused(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(3, 20, 3))
        X[2, :, 1] = 0.0
        G = np.swapaxes(X, 1, 2) @ X
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(G)
        cond = np.linalg.cond(G[2])
        with pytest.raises(RankDeficientError, match=re.escape(f"number {cond:.3e} ")):
            ols_fit(X, rng.normal(size=(3, 20, 1)))

    def test_nan_slice_refused(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(3, 20, 3))
        X[1, 4, 0] = np.nan
        # The NaN fails the certificate; np.linalg.cond then decides, and
        # LAPACK's SVD may reject the NaN itself before the comparison does.
        with pytest.raises((RankDeficientError, np.linalg.LinAlgError)):
            ols_fit(X, rng.normal(size=(3, 20, 1)))

    def test_monte_carlo_fits_never_need_the_svd(self, monkeypatch):
        def no_svd(G):
            raise AssertionError("np.linalg.cond called")

        monkeypatch.setattr(theory.np.linalg, "cond", no_svd)
        lemma_excess_risk(5, 30, 1.0, 500, np.random.default_rng(35))
        measure_gap(spec_default(d_s=8), 40, 300, np.random.default_rng(36))


class TestLemmaExcessRisk:
    def test_closed_form_at_5_30(self):
        # Monte Carlo against nu^2 D/(n-D-1) = 5/24 ~ 0.20833.
        res = lemma_excess_risk(5, 30, 1.0, 4000, np.random.default_rng(10))
        assert res.theoretical == pytest.approx(5 / 24)
        assert res.rel_err < 0.05

    def test_zero_noise_zero_risk(self):
        res = lemma_excess_risk(4, 20, 0.0, 50, np.random.default_rng(11))
        assert res.empirical == pytest.approx(0.0, abs=1e-20)

    def test_quadratic_noise_scaling(self):
        a = lemma_excess_risk(3, 25, 1.0, 10, np.random.default_rng(12))
        b = lemma_excess_risk(3, 25, 2.0, 10, np.random.default_rng(12))
        assert b.theoretical == pytest.approx(4 * a.theoretical)

    def test_sample_size_precondition(self):
        with pytest.raises(ConfigError):
            lemma_excess_risk(5, 6, 1.0, 10, np.random.default_rng(13))

    @pytest.mark.parametrize("chunks", [0, 2], ids=["below-a-chunk", "three-chunks"])
    def test_equals_per_trial_loop(self, chunks):
        D, n, nu = 5, 30, 1.5
        trials = chunks * chunk_trials(D + n * D + n) + 7
        res = lemma_excess_risk(D, n, nu, trials, np.random.default_rng(28))
        assert res.empirical == lemma_loop(D, n, nu, trials, np.random.default_rng(28))


class TestMeasureGap:
    def test_worked_gamma_bound(self):
        # (22/4)(20/2) * (1/0.1)^2 * (45/27) = 9166.66...
        spec = spec_default(d_s=20, d_a=2, d_z=2, sigma_s=1.0, sigma_a=0.1, lam=1.0)
        dim, stoch, sample = gamma_factors(spec, 50)
        assert dim == pytest.approx(55.0)
        assert stoch == pytest.approx(100.0)
        assert sample == pytest.approx(45 / 27)
        report = measure_gap(spec, 50, 300, np.random.default_rng(14))
        assert report.gamma_bound == pytest.approx(9166.6667, rel=1e-6)

    def test_factorization_audit_exact(self):
        spec = spec_default(d_s=12, d_a=3, d_z=2, sigma_s=0.7, sigma_a=0.2, lam=1.3)
        r = measure_gap(spec, 40, 200, np.random.default_rng(15))
        assert abs(r.factor_dim * r.factor_stoch * r.factor_sample - r.gamma_bound) <= 1e-12

    def test_forward_risk_matches_closed_form(self):
        spec = spec_default(d_s=10, d_a=2, d_z=2)
        r = measure_gap(spec, 40, 4000, np.random.default_rng(16))
        assert r.rel_err_EF < 0.05

    def test_inverse_bound_direction(self):
        spec = spec_default(d_s=10, d_a=2, d_z=2)
        r = measure_gap(spec, 40, 4000, np.random.default_rng(17))
        assert r.emp_EI <= r.theo_EI_bound + 2 * r.se_EI

    def test_bound_tight_for_column_orthonormal_B(self):
        # With B column-orthonormal the inverse inequality is an equality.
        spec = spec_default(d_s=8, d_a=4, d_z=4, sigma_a=0.3)
        r = measure_gap(spec, 60, 4000, np.random.default_rng(18))
        assert r.emp_EI == pytest.approx(r.theo_EI_bound, rel=0.05)

    def test_ratio_clears_bound(self):
        spec = spec_default()
        r = measure_gap(spec, 50, 2000, np.random.default_rng(19))
        assert r.emp_ratio >= r.gamma_bound * 0.9

    def test_precondition_errors_name_inequality(self):
        spec = spec_default(d_s=20, d_a=2, d_z=2)
        with pytest.raises(ConfigError, match="d_s"):
            gamma_factors(spec, 23)
        small = spec_default(d_s=4, d_a=1, d_z=4)
        with pytest.raises(ConfigError, match="d_z"):
            gamma_factors(small, 8)


class TestStackedGap:
    @pytest.mark.parametrize("chunks", [0, 2], ids=["below-a-chunk", "three-chunks"])
    @pytest.mark.parametrize("general_B", [False, True], ids=["default", "general-B"])
    def test_equals_per_trial_loop(self, chunks, general_B):
        spec = spec_default(d_s=10, d_a=3, d_z=2, sigma_s=0.7, sigma_a=0.2, lam=1.3)
        if general_B:
            spec = dataclasses.replace(spec, B=np.random.default_rng(29).normal(size=(10, 3)))
        n = 40
        trials = chunks * chunk_trials(n * (2 * spec.d_s + 2 * spec.d_a + 2 * spec.d_z)) + 5
        r = measure_gap(spec, n, trials, np.random.default_rng(30))
        ef, ei = gap_loop(spec, n, trials, np.random.default_rng(30))
        got = [r.emp_EF, r.emp_EI, r.se_EF, r.se_EI]
        want = [ef.mean(), ei.mean(), ef.std(ddof=1) / np.sqrt(trials),
                ei.std(ddof=1) / np.sqrt(trials)]
        assert np.array_equal(got, want)

    def test_memory_stays_flat_in_trials(self):
        # Drawing all 200 trials of this cell at once would take 21.8 MB.
        spec = spec_default(d_s=30)
        tracemalloc.start()
        try:
            measure_gap(spec, 200, 200, np.random.default_rng(31))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSweepGap:
    def test_bound_monotonicity_and_direction(self):
        rng = np.random.default_rng(20)
        specs = [spec_default(d_s=ds, seed=21) for ds in (10, 16, 24)]
        reports = sweep_gap(specs, [60, 120], 400, rng)
        check_sweep(reports)
        assert len(reports) == 6
        by_n = {}
        for r in reports:
            by_n.setdefault(r.n, []).append(r)
        for n, group in by_n.items():
            bounds = [r.gamma_bound for r in sorted(group, key=lambda r: r.d_s)]
            assert bounds == sorted(bounds)

    def test_bound_decreases_in_n(self):
        rng = np.random.default_rng(22)
        reports = sweep_gap([spec_default()], [40, 80, 160], 300, rng)
        check_sweep(reports)
        bounds = [r.gamma_bound for r in sorted(reports, key=lambda r: r.n)]
        assert bounds == sorted(bounds, reverse=True)

    def test_stochasticity_scaling(self):
        specs = [spec_default(sigma_s=s, seed=23) for s in (0.5, 1.0, 2.0)]
        reports = sweep_gap(specs, [50], 300, np.random.default_rng(24))
        check_sweep(reports)
        bounds = [r.gamma_bound for r in reports]
        assert bounds[1] == pytest.approx(4 * bounds[0])
        assert bounds[2] == pytest.approx(4 * bounds[1])

    def test_violations_raise(self):
        reports = sweep_gap([spec_default(d_s=ds, seed=21) for ds in (10, 16)], [60],
                            400, np.random.default_rng(25))
        check_sweep(reports)
        first, second = reports
        doctored = {
            "inverse risk": [dataclasses.replace(first, emp_EI=10 * first.theo_EI_bound),
                             second],
            "falls short of the bound": [
                dataclasses.replace(first, emp_ratio=first.gamma_bound / 10), second],
            "not increasing in d_s": [
                first, dataclasses.replace(second, gamma_bound=first.gamma_bound / 2)],
        }
        for message, bad in doctored.items():
            with pytest.raises(TheoryInvariantError, match=message):
                check_sweep(bad)

    def test_impossible_sample_size_rejected(self):
        with pytest.raises(ConfigError):
            sweep_gap([spec_default()], [10], 50, np.random.default_rng(25))
