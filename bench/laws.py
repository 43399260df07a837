"""Exact-law checks on teleportation trial statistics.

Every trial succeeds with probability exactly 1/4 (one-qubit gates) or 1/16
(controlled-NOT), independently of the data, and every Bell outcome is
uniform.  The checks below compare a run's tallies with those laws at wide
bounds (5 sigma, or a chi-square false-alarm rate of 1e-6), so that an engine
with a different random stream still passes when it is correct.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

#: Width of the binomial and mean bounds, in standard deviations.
Z_BOUND = 5.0
#: Standard-normal quantile for the chi-square false-alarm rate 1e-6.
Z_CHI2 = 4.753
#: Smallest expected count per chi-square bin.
MIN_EXPECTED = 5.0

SUCCESS_P = {"1q": 1 / 4, "cnot": 1 / 16}


@dataclass
class Tally:
    """Trial statistics of one gate class (one success probability)."""

    gates: int = 0
    trials: int = 0
    failed: int = 0
    first_successes: int = 0
    histogram: Counter = field(default_factory=Counter)
    bell: Counter = field(default_factory=Counter)

    def add(self, trace) -> None:
        self.gates += 1
        self.trials += trace.total_trials
        self.failed += 0 if trace.succeeded else 1
        self.first_successes += 1 if trace.trials[0].success else 0
        self.histogram[trace.total_trials] += 1
        for t in trace.trials:
            out = t.outcome
            self.bell[out if isinstance(out, int) else 4 * out[0] + out[1]] += 1


def chi2_threshold(df: int) -> float:
    """Chi-square quantile at false-alarm rate 1e-6 (Wilson-Hilferty)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + Z_CHI2 * math.sqrt(a)) ** 3


def _chi2(observed: list[int], expected: list[float]) -> tuple[float, int]:
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat, len(observed) - 1


def geometric_fit(histogram: Counter, p: float) -> tuple[float, float]:
    """Chi-square of a trials-per-gate histogram against Geometric(p).

    Bins are k = 1, 2, ... while both the bin and the remaining tail expect
    at least MIN_EXPECTED gates; the last bin takes the whole tail.
    """
    n = sum(histogram.values())
    observed: list[int] = []
    expected: list[float] = []
    k, tail = 1, 1.0
    while True:
        e = n * p * (1 - p) ** (k - 1)
        if e < MIN_EXPECTED or n * (tail - p * (1 - p) ** (k - 1)) < MIN_EXPECTED:
            observed.append(sum(c for t, c in histogram.items() if t >= k))
            expected.append(n * tail)
            break
        observed.append(histogram.get(k, 0))
        expected.append(e)
        tail -= p * (1 - p) ** (k - 1)
        k += 1
    stat, df = _chi2(observed, expected)
    return stat, chi2_threshold(max(df, 1))


def uniform_fit(counts: Counter, bins: int) -> tuple[float, float]:
    """Chi-square of outcome counts against the uniform law on ``bins``."""
    n = sum(counts.values())
    stat, df = _chi2([counts.get(b, 0) for b in range(bins)], [n / bins] * bins)
    return stat, chi2_threshold(df)


def check(cls: str, tally: Tally) -> list[str]:
    """Violated laws for one gate class, as readable messages (empty if none)."""
    p = SUCCESS_P[cls]
    n = tally.gates
    problems = []
    if n < 100:
        return [f"{cls}: only {n} gates, too few to test the trial laws"]
    sd = math.sqrt(n * p * (1 - p))
    if abs(tally.first_successes - n * p) > Z_BOUND * sd:
        problems.append(f"{cls}: first-trial successes {tally.first_successes}/{n}, expected {n * p:.1f} +- {sd:.1f}")
    mean = tally.trials / n
    sd_mean = math.sqrt((1 - p) / n) / p
    if abs(mean - 1 / p) > Z_BOUND * sd_mean:
        problems.append(f"{cls}: {mean:.4f} trials per success, expected {1 / p:g} +- {sd_mean:.4f}")
    stat, limit = geometric_fit(tally.histogram, p)
    if stat > limit:
        problems.append(f"{cls}: trial histogram chi2 {stat:.1f} exceeds {limit:.1f} for the geometric law")
    bins = 4 if cls == "1q" else 16
    stat, limit = uniform_fit(tally.bell, bins)
    if stat > limit:
        problems.append(f"{cls}: Bell outcome chi2 {stat:.1f} exceeds {limit:.1f} for the uniform law")
    return problems
