"""Monte Carlo validation of the linear-Gaussian forward/inverse risk gap.

Two whitened regressions share dimensions and noise scales: the forward
problem maps [s; a] in R^(d_s+d_a) to the next state, the inverse problem
maps [z; z'] in R^(2 d_z) to the action. Both are fit by OLS on n samples,
and both are scored in state space: the forward excess risk directly, the
inverse one after mapping the action error through B. The known results
under isotropic Gaussian design:

- scalar OLS excess risk equals nu^2 * D / (n - D - 1),
- expected forward risk equals sigma_s^2 (d_s + d_a) / (n - (d_s+d_a) - 1)
  exactly,
- expected inverse risk is at most
  lambda^2 (d_a / d_s) sigma_a^2 * 2 d_z / (n - 2 d_z - 1),
- and their ratio is lower-bounded by the product of a dimensionality, a
  stochasticity, and a sample-size factor.

The two problems are generated as independent whitened regressions, which
is the regime the closed forms describe; a coupled mode simulates the joint
system instead and reports how far the inverse design then is from white.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, RankDeficientError, TheoryInvariantError

__all__ = [
    "LinearGaussianSpec",
    "LemmaResult",
    "GapReport",
    "sample_forward_problem",
    "sample_inverse_problem",
    "ols_fit",
    "lemma_excess_risk",
    "gamma_factors",
    "measure_gap",
    "sweep_gap",
    "check_sweep",
    "coupled_inverse_whiteness",
]

MAX_CONDITION = 1e8


@dataclass(frozen=True)
class LinearGaussianSpec:
    """Dimensions, maps, and noise scales of the paired regressions."""

    d_s: int
    d_a: int
    d_z: int
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    H: np.ndarray
    sigma_s: float
    sigma_a: float

    def __post_init__(self):
        if self.d_z > self.d_s:
            raise ConfigError("d_z must not exceed d_s")
        if self.sigma_s <= 0 or self.sigma_a <= 0:
            raise ConfigError("noise scales must be positive")
        expected = {
            "A": (self.d_s, self.d_s),
            "B": (self.d_s, self.d_a),
            "M": (self.d_z, self.d_s),
            "H": (self.d_a, 2 * self.d_z),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ConfigError(f"{name} must have shape {shape}")

    @property
    def lam(self) -> float:
        """Operator norm of B, recomputed on demand."""
        return float(np.linalg.norm(self.B, 2))

    @classmethod
    def default(
        cls,
        d_s: int,
        d_a: int,
        d_z: int,
        sigma_s: float,
        sigma_a: float,
        lam: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> "LinearGaussianSpec":
        """A and H iid N(0,1)/sqrt(dim); B = lam * first-d_a identity columns;
        M selects the first d_z coordinates."""
        rng = rng if rng is not None else np.random.default_rng(0)
        A = rng.normal(size=(d_s, d_s)) / np.sqrt(d_s)
        B = lam * np.eye(d_s, d_a)
        M = np.eye(d_z, d_s)
        H = rng.normal(size=(d_a, 2 * d_z)) / np.sqrt(2 * d_z)
        return cls(d_s=d_s, d_a=d_a, d_z=d_z, A=A, B=B, M=M, H=H,
                   sigma_s=sigma_s, sigma_a=sigma_a)


def sample_forward_problem(spec: LinearGaussianSpec, n: int, rng: np.random.Generator):
    """Whitened forward regression: X iid N(0,I), Y = X [A B]^T + noise."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    X = rng.normal(size=(n, spec.d_s + spec.d_a))
    Y, W = _forward_targets(spec, X, rng.normal(size=(n, spec.d_s)))
    return X, Y, W


def sample_inverse_problem(spec: LinearGaussianSpec, n: int, rng: np.random.Generator):
    """Whitened inverse regression: X iid N(0,I), Y = X H^T + noise."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    X = rng.normal(size=(n, 2 * spec.d_z))
    Y, H = _inverse_targets(spec, X, rng.normal(size=(n, spec.d_a)))
    return X, Y, H


def _forward_targets(spec: LinearGaussianSpec, X: np.ndarray, noise: np.ndarray):
    """(X [A B]^T + sigma_s noise, [A B]) for one design or a stack of designs."""
    W = np.concatenate([spec.A, spec.B], axis=1)  # d_s x (d_s + d_a)
    return X @ W.T + spec.sigma_s * noise, W


def _inverse_targets(spec: LinearGaussianSpec, X: np.ndarray, noise: np.ndarray):
    """(X H^T + sigma_a noise, H) for one design or a stack of designs."""
    return X @ spec.H.T + spec.sigma_a * noise, spec.H


def ols_fit(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Exact normal-equations least squares; rejects ill-posed designs.

    Returns W of shape (D, q) with Y ~ X @ W. Stacks fit slice by slice:
    X (..., n, D) and Y (..., n, q) give W (..., D, q). No silent
    pseudo-inverse: n < D, or a condition number above 1e8 in any slice,
    raises RankDeficientError naming the first such slice's value.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, D = X.shape[-2:]
    if n < D:
        raise RankDeficientError(f"{n} samples cannot determine {D} coefficients")
    Xt = np.swapaxes(X, -1, -2)
    G = Xt @ X
    cond = np.ravel(np.linalg.cond(G))
    bad = np.flatnonzero(~(cond <= MAX_CONDITION))  # NaN compares False: bad too
    if len(bad):
        raise RankDeficientError(
            f"normal equations condition number {cond[bad[0]]:.3e} "
            f"exceeds {MAX_CONDITION:.0e}"
        )
    return np.linalg.solve(G, Xt @ Y)


# Trials are drawn and fitted in chunks whose draw block holds about this many
# floats (512 KB): enough to spread numpy's per-call cost over many fits, and
# small enough that memory does not grow with the trial count.
_CHUNK_FLOATS = 1 << 16


def _chunked_draws(rng: np.random.Generator, trials: int, *shapes: tuple):
    """Yield (start, arrays) per chunk of trials; arrays stack each shape as
    (chunk, *shape).

    A generator's normal draws come out in one fixed sequence, so trial t gets
    exactly the draws a per-trial loop calling ``rng.normal(size=shape)`` for
    each shape in turn would have given it.
    """
    offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    per_trial = int(offsets[-1])
    step = max(1, _CHUNK_FLOATS // per_trial)
    for start in range(0, trials, step):
        chunk = min(step, trials - start)
        block = rng.normal(size=(chunk, per_trial))
        yield start, [
            block[:, lo:hi].reshape((chunk,) + shape)
            for lo, hi, shape in zip(offsets, offsets[1:], shapes)
        ]


@dataclass(frozen=True)
class LemmaResult:
    D: int
    n: int
    nu: float
    trials: int
    empirical: float
    theoretical: float
    rel_err: float


def lemma_excess_risk(
    D: int, n: int, nu: float, trials: int, rng: np.random.Generator
) -> LemmaResult:
    """Monte Carlo check of the scalar OLS excess risk nu^2 D / (n - D - 1).

    With isotropic inputs the excess risk of one fit is exactly
    ||w_hat - w*||^2, so the empirical value is its mean over trials.
    """
    if n <= D + 1:
        raise ConfigError(f"need n > D + 1, got n={n}, D={D}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    errs = np.empty(trials)
    for start, (w_star, X, noise) in _chunked_draws(rng, trials, (D, 1), (n, D), (n, 1)):
        w_hat = ols_fit(X, X @ w_star + nu * noise)
        errs[start:start + len(X)] = np.sum((w_hat - w_star) ** 2, axis=(1, 2))
    # cumsum adds left to right, as a running total over the trials does.
    empirical = float(np.cumsum(errs)[-1]) / trials
    theoretical = nu * nu * D / (n - D - 1)
    rel = abs(empirical - theoretical) / theoretical if theoretical > 0 else abs(empirical)
    return LemmaResult(
        D=D, n=n, nu=nu, trials=trials,
        empirical=empirical, theoretical=theoretical, rel_err=rel,
    )


@dataclass(frozen=True)
class GapReport:
    """Empirical against closed-form risks, plus the factored ratio bound."""

    d_s: int
    d_a: int
    d_z: int
    sigma_s: float
    sigma_a: float
    lam: float
    n: int
    trials: int
    emp_EF: float
    theo_EF: float
    emp_EI: float
    theo_EI_bound: float
    emp_ratio: float
    gamma_bound: float
    factor_dim: float
    factor_stoch: float
    factor_sample: float
    rel_err_EF: float
    se_EF: float
    se_EI: float


def gamma_factors(spec: LinearGaussianSpec, n: int) -> tuple[float, float, float]:
    """(dimensionality, stochasticity, sample-size) factors of the ratio bound."""
    d_fwd = spec.d_s + spec.d_a
    if n <= d_fwd + 1:
        raise ConfigError(f"need n > d_s + d_a + 1 = {d_fwd + 1}, got n={n}")
    if n <= 2 * spec.d_z + 1:
        raise ConfigError(f"need n > 2 d_z + 1 = {2 * spec.d_z + 1}, got n={n}")
    dim = (d_fwd / (2 * spec.d_z)) * (spec.d_s / spec.d_a)
    stoch = (spec.sigma_s / (spec.lam * spec.sigma_a)) ** 2
    sample = (n - 2 * spec.d_z - 1) / (n - d_fwd - 1)
    return dim, stoch, sample


def measure_gap(
    spec: LinearGaussianSpec, n: int, trials: int, rng: np.random.Generator
) -> GapReport:
    """Fit both regressions `trials` times and compare to the closed forms.

    Forward risk per trial is ||W_hat - W||_F^2 / d_s (isotropic inputs);
    inverse risk maps the coefficient error through B before the same norm.
    """
    factor_dim, factor_stoch, factor_sample = gamma_factors(spec, n)
    d_fwd = spec.d_s + spec.d_a
    ef = np.empty(trials)
    ei = np.empty(trials)
    draws = _chunked_draws(
        rng, trials, (n, d_fwd), (n, spec.d_s), (n, 2 * spec.d_z), (n, spec.d_a)
    )
    for start, (Xf, noise_f, Xi, noise_i) in draws:
        stop = start + len(Xf)
        Yf, Wf = _forward_targets(spec, Xf, noise_f)
        Wf_hat = ols_fit(Xf, Yf)
        ef[start:stop] = np.sum(
            (np.swapaxes(Wf_hat, 1, 2) - Wf) ** 2, axis=(1, 2)
        ) / spec.d_s
        Yi, Hi = _inverse_targets(spec, Xi, noise_i)
        Hi_hat = ols_fit(Xi, Yi)
        ei[start:stop] = np.sum(
            (spec.B @ (np.swapaxes(Hi_hat, 1, 2) - Hi)) ** 2, axis=(1, 2)
        ) / spec.d_s
    theo_ef = spec.sigma_s**2 * d_fwd / (n - d_fwd - 1)
    theo_ei = (
        spec.lam**2 * (spec.d_a / spec.d_s) * spec.sigma_a**2
        * (2 * spec.d_z) / (n - 2 * spec.d_z - 1)
    )
    emp_ef = float(ef.mean())
    emp_ei = float(ei.mean())
    return GapReport(
        d_s=spec.d_s, d_a=spec.d_a, d_z=spec.d_z,
        sigma_s=spec.sigma_s, sigma_a=spec.sigma_a, lam=spec.lam,
        n=n, trials=trials,
        emp_EF=emp_ef, theo_EF=theo_ef,
        emp_EI=emp_ei, theo_EI_bound=theo_ei,
        emp_ratio=emp_ef / emp_ei,
        gamma_bound=factor_dim * factor_stoch * factor_sample,
        factor_dim=factor_dim, factor_stoch=factor_stoch, factor_sample=factor_sample,
        rel_err_EF=abs(emp_ef - theo_ef) / theo_ef,
        se_EF=float(ef.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf"),
        se_EI=float(ei.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf"),
    )


def sweep_gap(
    spec_grid: Sequence[LinearGaussianSpec],
    n_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
) -> list[GapReport]:
    """Cartesian sweep over specs and sample sizes; :func:`check_sweep` audits it."""
    return [measure_gap(spec, n, trials, rng) for spec in spec_grid for n in n_grid]


def check_sweep(reports: Sequence[GapReport]) -> None:
    """Raise TheoryInvariantError at the first violated invariant of a sweep.

    Per report, in order: the inverse risk stays within its bound and the
    empirical ratio clears the ratio bound, each up to twice its Monte Carlo
    standard error. Then the bound must move the right way along each swept
    axis (up in the dimensionality and stochasticity factors, down in n).
    """
    for r in reports:
        if r.emp_EI > r.theo_EI_bound + 2 * r.se_EI:
            raise TheoryInvariantError(
                f"inverse risk {r.emp_EI:.6g} exceeds its bound "
                f"{r.theo_EI_bound:.6g} by more than 2 standard errors "
                f"(se={r.se_EI:.3g}) at d_s={r.d_s}, n={r.n}"
            )
        ratio_se = r.emp_ratio * (r.se_EF / r.emp_EF + r.se_EI / r.emp_EI)
        if r.emp_ratio < r.gamma_bound - 2 * ratio_se:
            raise TheoryInvariantError(
                f"empirical ratio {r.emp_ratio:.4g} falls short of the bound "
                f"{r.gamma_bound:.4g} at d_s={r.d_s}, n={r.n}"
            )
    _check_bound_monotonicity(reports)


def _check_bound_monotonicity(reports: Sequence[GapReport]) -> None:
    """Bound must rise with d_s and with (sigma_s/sigma_a)^2, and fall with n."""

    def groups(key_fn, axis_fn):
        grouped: dict[tuple, list[GapReport]] = {}
        for r in reports:
            grouped.setdefault(key_fn(r), []).append(r)
        for group in grouped.values():
            group.sort(key=axis_fn)
            yield [(axis_fn(r), r.gamma_bound) for r in group]

    axes = (
        ("d_s", lambda r: (r.d_a, r.d_z, r.sigma_s, r.sigma_a, r.lam, r.n),
         lambda r: r.d_s, +1),
        ("noise ratio", lambda r: (r.d_s, r.d_a, r.d_z, r.lam, r.n),
         lambda r: r.sigma_s / r.sigma_a, +1),
        ("n", lambda r: (r.d_s, r.d_a, r.d_z, r.sigma_s, r.sigma_a, r.lam),
         lambda r: r.n, -1),
    )
    for name, key_fn, axis_fn, sense in axes:
        for series in groups(key_fn, axis_fn):
            for (x0, b0), (x1, b1) in zip(series, series[1:]):
                if x0 == x1:
                    continue
                if sense * (b1 - b0) <= 0:
                    raise TheoryInvariantError(
                        f"bound is not {'increasing' if sense > 0 else 'decreasing'} "
                        f"in {name}: {b0:.6g} at {x0} vs {b1:.6g} at {x1}"
                    )


def coupled_inverse_whiteness(
    spec: LinearGaussianSpec, n: int, rng: np.random.Generator
) -> float:
    """Max absolute deviation of cov([z; z']) from identity under the joint system.

    Simulates s ~ N(0, I), a ~ N(0, I), s' = A s + B a + noise, z = M s,
    z' = M s'. The whitened analysis does not describe this coupled design;
    the returned deviation quantifies the difference.
    """
    s = rng.normal(size=(n, spec.d_s))
    a = rng.normal(size=(n, spec.d_a))
    s_next = s @ spec.A.T + a @ spec.B.T + spec.sigma_s * rng.normal(size=(n, spec.d_s))
    Xi = np.concatenate([s @ spec.M.T, s_next @ spec.M.T], axis=1)
    cov = Xi.T @ Xi / n
    return float(np.max(np.abs(cov - np.eye(2 * spec.d_z))))
