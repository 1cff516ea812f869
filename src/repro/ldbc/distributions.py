"""Seeded random distributions for the synthetic social network.

The LDBC-SNB generator "was designed to resemble the structural properties
of a real world social network: node degree distribution based on
power-laws and skewed property value distributions" (paper §4).  These
helpers reproduce both characteristics deterministically.
"""

import bisect
import math
import random


class Zipf:
    """Zipf-distributed sampling over ranks ``0..n-1``.

    ``P(rank k) ∝ 1 / (k+1)^exponent`` — rank 0 is the most frequent value.
    """

    def __init__(self, n, exponent=1.0):
        if n <= 0:
            raise ValueError("Zipf needs at least one rank")
        self.n = n
        self.exponent = exponent
        weights = [1.0 / (k + 1) ** exponent for k in range(n)]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        self._cumulative = cumulative

    def sample(self, rng):
        """Draw one rank using the supplied ``random.Random``."""
        return bisect.bisect_left(self._cumulative, rng.random())

    def probability(self, rank):
        previous = self._cumulative[rank - 1] if rank > 0 else 0.0
        return self._cumulative[rank] - previous


def power_law_degree(rng, average, exponent=2.5, maximum=None):
    """A discrete power-law-ish degree with the given mean.

    Uses the standard inverse-transform for a continuous Pareto with
    ``x_min`` chosen so the mean matches ``average``; values are rounded
    down and capped.
    """
    if average <= 0:
        return 0
    # Pareto mean = x_min * (a-1)/(a-2) for a > 2
    x_min = average * (exponent - 2.0) / (exponent - 1.0)
    x_min = max(x_min, 0.5)
    u = rng.random()
    value = x_min / (1.0 - u) ** (1.0 / (exponent - 1.0))
    degree = int(value)
    if maximum is not None:
        degree = min(degree, maximum)
    return degree


def preferential_targets(rng, count, population, skew=3.0):
    """Pick ``count`` distinct targets from ``0..population-1``, biased
    toward low indices (the "celebrities"), power-law-ish.

    Produces the skewed in-degree distribution responsible for the load
    imbalance the paper observes on queries 5 and 6.
    """
    if population <= 0 or count <= 0:
        return []
    targets = set()
    attempts = 0
    while len(targets) < min(count, population) and attempts < count * 20:
        u = rng.random()
        index = int(population * u**skew)
        targets.add(min(index, population - 1))
        attempts += 1
    return sorted(targets)


def poisson(rng, lam):
    """Knuth's algorithm; fine for small lambda."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def make_rng(seed, *salt):
    """A ``random.Random`` seeded deterministically from seed + salt."""
    return random.Random("%r|%r" % (seed, salt))
