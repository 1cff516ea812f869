"""Query planning: cardinality estimation and plan construction."""

from .estimation import (
    CardinalityEstimator,
    clause_selectivity,
    predicate_selectivity,
)
from .exhaustive import ExhaustivePlanner
from .greedy import GreedyPlanner, PlanningError
from .naive_order import LeftDeepPlanner

__all__ = [
    "CardinalityEstimator",
    "ExhaustivePlanner",
    "GreedyPlanner",
    "LeftDeepPlanner",
    "PlanningError",
    "clause_selectivity",
    "predicate_selectivity",
]
