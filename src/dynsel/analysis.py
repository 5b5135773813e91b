"""Offline-error computation, the two nonparametric tests the protocol
needs, and the theory-verification oracle (the phi-approximation check).

The tests' p-values are computed in closed form: the chi-square survival
function for the integer degrees of freedom Kruskal-Wallis uses, and the
normal one through `math.erfc`.  Ranks are average ranks from one
`np.unique` pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algorithms import Pomc, brute_force_front
from .core import NEG_INF, fork_map, phi_ratio, substream, worker_count


@dataclass
class ErrorSeries:
    """Per-change offline errors e_i = f(baseline_i) - f(answer_i)."""

    errors: np.ndarray

    def __len__(self):
        return len(self.errors)


def offline_errors(records, baseline) -> ErrorSeries:
    """baseline: callable budget -> best-known f value for that budget."""
    return ErrorSeries(np.array([baseline(rec.budget) - rec.best_f
                                 for rec in records]))


def partial_offline_error(series, lo: int, hi: int) -> float:
    """Mean error over the 1-indexed inclusive change interval [lo, hi]."""
    errors = series.errors if isinstance(series, ErrorSeries) else np.asarray(series)
    if lo > hi or lo < 1 or hi > len(errors):
        raise ValueError(f"empty or out-of-range interval [{lo}, {hi}]")
    return float(errors[lo - 1:hi].mean())


def brute_force_baseline(f, c, budgets=()):
    """Exact per-budget baseline via enumeration (desk scale, n <= 24).

    The first call answers every budget in `budgets` and its own from one
    `brute_force_front` pass; a later budget not yet seen gets a pass of its
    own.  Nothing fits a budget < 0; its value is f of the empty set.
    """
    cache = {}

    def baseline(budget):
        if budget not in cache:
            todo = {budget, *budgets}.difference(cache)
            for b, val in brute_force_front(f, c, todo).items():
                cache[b] = float(f(np.zeros(f.n, np.uint8))) if val == NEG_INF else val
        return cache[budget]

    return baseline


def long_run_baseline(f, c, evals=100_000, budgets=(), jobs=1):
    """Heuristic baseline: a long POMC run from scratch per distinct budget.

    The first call answers every budget in `budgets` and its own, split over
    up to `jobs` processes when their evals x budgets reach FORK_MIN_EVALS;
    a later budget not yet seen gets a run of its own.  Each run is seeded
    by its budget alone, so its value does not depend on the split.
    """
    cache = {}

    def solve(budget):
        pomc = Pomc(f, c, budget, substream(0, "baseline", budget))
        pomc.run(evals)
        return pomc.answer_value()[0]

    def baseline(budget):
        if budget not in cache:
            todo = sorted({budget, *budgets}.difference(cache))
            workers = worker_count(jobs, len(todo), evals * len(todo))
            cache.update(zip(todo, fork_map(solve, todo, workers)))
        return cache[budget]

    return baseline


def observed_baseline(baseline, runs):
    """Raise `baseline` to the best answer any run reported at each budget.

    A heuristic baseline can fall below an answer a run found, which would
    make that offline error negative.  Returns the raised baseline and the
    number of records whose error against the raw baseline is negative.
    """
    best = {}
    negatives = 0
    for records in runs:
        for rec in records:
            best[rec.budget] = max(best.get(rec.budget, NEG_INF), rec.best_f)
            negatives += int(baseline(rec.budget) < rec.best_f)
    return lambda budget: max(baseline(budget), best.get(budget, NEG_INF)), negatives


# ---------------------------------------------------------------------------
# nonparametric statistics


def _ranks(values):
    """Average ranks (1-based, ties share their mean rank) and the tie sum
    sum(t^3 - t) over groups of t equal values."""
    _uniq, inverse, counts = np.unique(values, return_inverse=True,
                                       return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    return ranks, float(((counts**3) - counts).sum())


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with a positive integer `df`, in closed form.

    Even df: exp(-x/2) * sum_{i < df/2} (x/2)^i / i!.  Odd df: erfc(sqrt(x/2))
    plus sqrt(2x/pi) exp(-x/2) * sum_{j=1}^{(df-1)/2} x^(j-1) / (1*3*...*(2j-1)).
    """
    if df < 1 or df != int(df):
        raise ValueError(f"df must be a positive integer, got {df}")
    if x <= 0:
        return 1.0
    if df % 2 == 0:
        half = x / 2.0
        term = total = math.exp(-half)
        for i in range(1, df // 2):
            term *= half / i
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2.0))
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    for j in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * j + 1)
    return total


def norm_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def kruskal_wallis(samples):
    """Rank-based H with tie correction; p from the chi-square approximation.

    Returns (H, p).  Fully degenerate input (every observation identical)
    yields (0, 1).
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    if len(samples) < 2 or any(s.size == 0 for s in samples):
        raise ValueError("need at least two non-empty groups")
    pooled = np.concatenate(samples)
    big_n = pooled.size
    ranks, tie_sum = _ranks(pooled)
    h = 0.0
    start = 0
    for s in samples:
        r = ranks[start:start + s.size]
        h += r.sum() ** 2 / s.size
        start += s.size
    h = 12.0 / (big_n * (big_n + 1)) * h - 3 * (big_n + 1)
    correction = 1.0 - tie_sum / (big_n**3 - big_n)
    if correction <= 0:
        return 0.0, 1.0
    h /= correction
    p = chi2_sf(h, len(samples) - 1)
    return float(h), p


def bonferroni_posthoc(samples, alpha=0.05):
    """Pairwise Dunn comparisons at alpha / (number of pairs).

    Returns a k x k integer matrix: marks[i][j] = +1 when group i has
    significantly lower values than group j, -1 for the reverse, 0 when not
    significant.  Antisymmetric by construction.
    """
    samples = [np.asarray(s, dtype=float) for s in samples]
    k = len(samples)
    pooled = np.concatenate(samples)
    big_n = pooled.size
    ranks, tie_sum = _ranks(pooled)
    mean_ranks = []
    start = 0
    for s in samples:
        mean_ranks.append(ranks[start:start + s.size].mean())
        start += s.size
    tie_term = tie_sum / (12.0 * (big_n - 1))
    base_var = big_n * (big_n + 1) / 12.0 - tie_term
    n_pairs = k * (k - 1) // 2
    marks = np.zeros((k, k), dtype=int)
    if base_var <= 0:
        return marks
    for i in range(k):
        for j in range(i + 1, k):
            se = np.sqrt(base_var * (1.0 / samples[i].size + 1.0 / samples[j].size))
            z = (mean_ranks[i] - mean_ranks[j]) / se
            p = 2.0 * norm_sf(abs(z))
            if p < alpha / n_pairs:
                sign = 1 if mean_ranks[i] < mean_ranks[j] else -1
                marks[i, j] = sign
                marks[j, i] = -sign
    return marks


def format_marks(marks, index: int) -> str:
    """Table-style marks for one column, e.g. `2(+),3(-)` (1-based labels)."""
    parts = []
    for j in range(marks.shape[0]):
        if j == index or marks[index, j] == 0:
            continue
        parts.append(f"{j + 1}({'+' if marks[index, j] > 0 else '-'})")
    return ",".join(parts)


# ---------------------------------------------------------------------------
# the phi-approximation check


@dataclass
class PhiCheck:
    budget: float
    answer_f: float
    optimum: float
    passed: bool


@dataclass
class PhiReport:
    phi: float
    checks: list

    @property
    def all_pass(self) -> bool:
        return all(ch.passed for ch in self.checks)


def check_phi_approx(answer, f, c, budget, optima=None) -> PhiReport:
    """Check f(answer_b) >= phi * opt(b) for every b on the grid of steps
    delta_c = `c.min_increment` up to `budget`, with phi at the
    submodularity ratio alpha_f = 1 of every objective dynsel builds.

    `answer` is a callable b -> answer value, e.g. a solver's
    `lambda b: solver.answer_value(b)[0]`.  Optima come from exhaustive
    enumeration, at the exact budget b (strictly harder than the
    shrunken-budget optimum used inside the cited guarantees); pass a
    precomputed `optima` mapping to reuse one enumeration across many
    trials on the same instance.
    """
    delta_c = c.min_increment
    if delta_c <= 0:
        raise ValueError("need a positive minimum cost increment")
    grid = []
    b = 0.0
    while b <= budget + 1e-12:
        grid.append(round(b, 12))
        b += delta_c
    phi = phi_ratio(1.0)
    if optima is None:
        optima = brute_force_front(f, c, grid)
    checks = []
    for b in grid:
        ans = answer(b)
        opt = optima[b]
        passed = opt <= 0 or ans >= phi * opt - 1e-9
        checks.append(PhiCheck(budget=b, answer_f=ans, optimum=opt, passed=passed))
    return PhiReport(phi=phi, checks=checks)
