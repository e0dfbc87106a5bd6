"""Sample generators: iid, logistic-map, and bilateral Bernoulli autoregression.

CASES is the registry of dependence cases, keyed 1, 2, 3, and the one
place where a case is declared: how a row is drawn, its map to uniform,
its theorem scheme and the transfer operators of its exact risk.  The
samplers, the configs, the command line, the exact risk, the penalty
presets, the checks and the table study read it.

All three cases produce a series V_1..V_n with uniform marginal on [0, 1];
density samples apply the target marginal's quantile transform, regression
samples use V directly as the design and add N(0, sigma^2) noise.  A
sample is plain arrays: gen_density_sample returns the points x,
gen_regression_sample the design u and the responses y.  Every function
of the sample path takes a list of generators and returns a (K, n)
stack, one row per generator (a single series is a stack of one).  Each
row is drawn from its own generator, and every step after the draws is
elementwise and runs once on the whole stack, so a row is the same
floats whatever stack it is made in.

Case 2 starts at the invariant arcsine law (no burn-in) and iterates the
logistic map T(y) = 4 y (1 - y); G(y) = (2 / pi) arcsin(sqrt(y)) maps the
chain back to uniform.

Case 3 realizes the stationary solution of the bilateral recursion

    Y_i = 2 (Y_{i-1} + Y_{i+1}) / 5 + 5 zeta_i / 21,   zeta_i ~ Bernoulli(1/2)

as the two-sided moving average Y_i = (25/63) sum_{|k| <= K} 2^{-|k|}
zeta_{i+k}, truncated at K = AR_TRUNCATION = 40 (truncation error below
2^-38 * 25/21).
Writing Y = (25/63) (zeta_0 + A + A') with A, A' independent U[0, 1]
(dyadic expansions of the one-sided innovations) gives the closed-form
marginal CDF used to map the chain to uniform.

Randomness: a replication's sample is a pure function of its generator,
stream(seed, rep_index, namespace), derived via SeedSequence spawn keys so
replications can run in any order or process layout without affecting
results; the harness's ExperimentContext.sample maps replications to
their streams.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .targets import MarginalLaw, RegressionTarget

AR_TRUNCATION = 40  # bilateral MA truncation order K
AR_SCALE = 25.0 / 63.0


def stream(seed: int, rep_index: int, namespace: int = 0) -> np.random.Generator:
    """Deterministic per-replication RNG stream.

    The (namespace, rep_index) spawn key partitions streams so that e.g.
    calibration (namespace 1) never reuses evaluation randomness
    (namespace 0), regardless of scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(namespace, rep_index)))


def logistic_path(n: int, u1: float) -> np.ndarray:
    """Logistic-map trajectory started from the invariant law via u1.

    The map is iterated on Python floats (the same IEEE double arithmetic
    as numpy scalars, without their per-operation overhead), each written
    through a memoryview into the float64 output.  0 and 1 are absorbing
    only through exact rounding (y near 0.5 maps to a value that rounds to
    1.0, which maps to 0.0): the path nudges such a step back into (0, 1).
    The loop leaves that test out, because a step outside (0, 1) never
    leads back into it, so it shows in the last value; a path that ends
    outside (0, 1) is iterated again from its start with the nudges.
    """
    path = np.empty(n)
    out = memoryview(path)
    start = cur = float(np.sin(0.5 * np.pi * u1) ** 2)
    out[0] = cur
    for i in range(1, n):
        cur = 4.0 * cur * (1.0 - cur)
        out[i] = cur
    if not 0.0 < cur < 1.0:
        cur = start
        for i in range(1, n):
            cur = 4.0 * cur * (1.0 - cur)
            if cur >= 1.0:
                cur = 1.0 - 2.0**-53
            elif cur <= 0.0:
                cur = 2.0**-53
            out[i] = cur
    return path


def arcsine_cdf(y) -> np.ndarray:
    """G(y) = (2/pi) arcsin(sqrt(y)), the invariant CDF of the logistic map."""
    y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
    return (2.0 / np.pi) * np.arcsin(np.sqrt(y))


def ar_path_from_innovations(zeta: np.ndarray) -> np.ndarray:
    """Stationary bilateral-MA values from innovations zeta of length n + 2 K."""
    zeta = np.asarray(zeta, dtype=float)
    k = AR_TRUNCATION
    if zeta.size < 2 * k + 1:
        raise ValueError(f"need len(zeta) >= {2 * k + 1}")
    kernel = AR_SCALE * 2.0 ** -np.abs(np.arange(-k, k + 1)).astype(float)
    return np.convolve(zeta, kernel, mode="valid")


def bernoulli_ar_path(n: int, rng: np.random.Generator) -> np.ndarray:
    """n stationary values of the bilateral Bernoulli autoregression."""
    zeta = rng.integers(0, 2, size=n + 2 * AR_TRUNCATION).astype(float)
    return ar_path_from_innovations(zeta)


def _triangular_cdf(t: np.ndarray) -> np.ndarray:
    """CDF of the sum of two independent U[0, 1] variables, clamped outside [0, 2]."""
    t = np.clip(t, 0.0, 2.0)
    return np.where(t <= 1.0, 0.5 * t * t, 1.0 - 0.5 * (2.0 - t) ** 2)


def marginal_G_case3(y) -> np.ndarray:
    """Closed-form marginal CDF of the bilateral Bernoulli autoregression.

    With Y = (25/63) (zeta_0 + A + A'), A + A' is triangular on [0, 2] and
    zeta_0 a fair coin, so G(y) = (F_tri(63 y / 25) + F_tri(63 y / 25 - 1)) / 2.
    """
    scalar = np.ndim(y) == 0
    t = np.asarray(y, dtype=float) * (1.0 / AR_SCALE)
    out = 0.5 * (_triangular_cdf(t) + _triangular_cdf(t - 1.0))
    return float(out) if scalar else out


def _tent_transfer(g: np.ndarray) -> np.ndarray:
    """(L g)(u) = [g(u/2) + g(1 - u/2)] / 2 on the rows of g: the tent-map transfer operator.

    The uniformised logistic map is the tent map, G o T = tent o G, so L
    moves case 2 one lag forward.  Rows hold values on the uniform grid
    u_i = i h.  u_i / 2 and 1 - u_i / 2 fall on the grid refined by
    midpoints, whose midpoint values are linearly interpolated.
    """
    size = g.shape[-1]
    fine = np.empty(g.shape[:-1] + (2 * size - 1,))
    fine[..., ::2] = g
    fine[..., 1::2] = 0.5 * (g[..., :-1] + g[..., 1:])
    return 0.5 * (fine[..., :size] + fine[..., size - 1:][..., ::-1])


class Case(NamedTuple):
    """One dependence case, as every module reads it."""

    #: (n, rng) -> n values of one row, drawn from that row's generator alone
    draw: Callable[[int, np.random.Generator], np.ndarray]
    #: elementwise map of the whole stack to uniform; None for a uniform draw
    to_uniform: Optional[Callable[[np.ndarray], np.ndarray]]
    #: 'iid' or 'dep': the theorem's penalty preset and the dependence check's side
    scheme: str
    #: the exact risk's transfer operator of each lag k = 1, 2, ..., acting on
    #: grid values (risk.autocovariances): () for iid, None for no exact risk
    lags: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]]


#: The dependence cases by number, in table order.  Case 2 sums 40 lags: on
#: the built-in targets E ISE(m) stops changing (to 1e-9) after 20.
CASES = {
    1: Case(lambda n, rng: rng.random(n), None, "iid", ()),
    2: Case(lambda n, rng: logistic_path(n, rng.uniform()), arcsine_cdf, "dep",
            (_tent_transfer,) * 40),
    3: Case(bernoulli_ar_path, marginal_G_case3, "dep", None),
}


def uniform_series(case: int, n: int, rngs) -> np.ndarray:
    """Series of length n with uniform marginal, one per generator in rngs.

    Shape (len(rngs), n), a stack like the samples built on it.  Each
    series takes its draws from its own generator alone (CASES[case].draw);
    the case's map to uniform runs once on the whole stack.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if case not in CASES:
        raise ValueError(f"unknown dependence case {case}")
    entry = CASES[case]
    out = np.empty((len(rngs), n))
    for row, rng in zip(out, rngs):
        row[:] = entry.draw(n, rng)
    return out if entry.to_uniform is None else entry.to_uniform(out)


def gen_density_sample(n: int, case: int, law: MarginalLaw, rngs) -> np.ndarray:
    """Points of one sample per generator in rngs, shape (len(rngs), n).

    Each row has marginal law `law` and is dependent as the chosen case;
    one quantile transform maps the whole stack.
    """
    return law.quantile(uniform_series(case, n, rngs))


def gen_regression_sample(n: int, case: int, target: RegressionTarget,
                          rngs) -> tuple[np.ndarray, np.ndarray]:
    """(u, y) of one sample per generator in rngs, each of shape (len(rngs), n).

    Row k of the design u comes from the chosen case (uniform marginal);
    its iid Gaussian noise is drawn from the same generator after the
    design's draws.
    """
    u = uniform_series(case, n, rngs)
    eps = np.empty_like(u)
    for row, rng in zip(eps, rngs):
        rng.standard_normal(out=row)
    return u, target.eval(u) + target.noise_sigma * eps
