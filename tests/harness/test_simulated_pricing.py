"""The simulated cluster's prices of the paper queries, pinned.

Every paper figure is a function of ``run_query(...).simulated_seconds``,
and the figures themselves live only under ``benchmarks/``.  These
literals pin Q1-Q6 at the small scale factor, on the dataset seed and
the selectivity the figures use (``low`` for the operational queries),
on 1, 4 and 16 simulated workers: an engine change that reprices the
cluster or changes a cardinality fails here, in the tier-1 suite.
"""

import pytest

from repro.harness import DatasetCache, SCALE_FACTOR_SMALL, run_query

#: (query, workers) -> (simulated seconds, result count)
PRICES = {
    ("Q1", 1): (9.52036, 68),
    ("Q1", 4): (3.029728, 68),
    ("Q1", 16): (1.390556, 68),
    ("Q2", 1): (39.20235, 68),
    ("Q2", 4): (11.379804, 68),
    ("Q2", 16): (4.432796, 68),
    ("Q3", 1): (66.696, 36),
    ("Q3", 4): (21.331612, 36),
    ("Q3", 16): (8.9296, 36),
    ("Q4", 1): (23.040466, 82),
    ("Q4", 4): (6.978252, 82),
    ("Q4", 16): (2.840216, 82),
    ("Q5", 1): (16.223862, 171),
    ("Q5", 4): (5.651226, 171),
    ("Q5", 16): (2.661398, 171),
    ("Q6", 1): (24.242578, 382),
    ("Q6", 4): (8.812792, 382),
    ("Q6", 16): (4.612148, 382),
}


@pytest.fixture(scope="module")
def cache():
    # the seed of the benchmark suite's dataset cache
    return DatasetCache(seed=42)


@pytest.mark.parametrize("query,workers", sorted(PRICES))
def test_simulated_price(cache, query, workers):
    seconds, count = PRICES[query, workers]
    selectivity = "low" if query in ("Q1", "Q2", "Q3") else None
    run = run_query(query, SCALE_FACTOR_SMALL, workers, selectivity, cache)
    assert run.result_count == count
    assert run.simulated_seconds == pytest.approx(seconds, rel=1e-9)
