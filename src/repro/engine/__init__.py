"""The Cypher query engine — the paper's primary contribution.

Embedding data structure (§3.3), physical query operators (§3.1),
statistics and greedy cost-based planning (§3.2), morphism semantics
(§2.2/§2.3), and the runner that executes a query end-to-end.
"""

from .export import embeddings_to_arrays, result_table
from .embedding import (
    ElementBindings,
    Embedding,
    EmbeddingBindings,
    EmbeddingMetaData,
)
from .morphism import (
    DEFAULT_EDGE_STRATEGY,
    DEFAULT_VERTEX_STRATEGY,
    MatchStrategy,
    embedding_satisfies_morphism,
)
from .naive import NaiveMatcher, canonical_row, canonical_rows_from_embeddings
from .operators import (
    CartesianEmbeddings,
    ExpandEmbeddings,
    JoinEmbeddings,
    PhysicalOperator,
    ProjectEmbeddings,
    SelectAndProjectEdges,
    SelectAndProjectVertices,
    SelectEmbeddings,
)
from .planning import (
    CardinalityEstimator,
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
    PlanningError,
)
from .prepared import PreparedStatement
from .result import ResultTable
from .runner import DEFAULT_PLAN_CACHE_SIZE, CypherRunner
from .statistics import GraphStatistics

__all__ = [
    "CardinalityEstimator",
    "CartesianEmbeddings",
    "CypherRunner",
    "DEFAULT_PLAN_CACHE_SIZE",
    "PreparedStatement",
    "ExhaustivePlanner",
    "DEFAULT_EDGE_STRATEGY",
    "DEFAULT_VERTEX_STRATEGY",
    "ElementBindings",
    "Embedding",
    "EmbeddingBindings",
    "EmbeddingMetaData",
    "ExpandEmbeddings",
    "GraphStatistics",
    "GreedyPlanner",
    "JoinEmbeddings",
    "LeftDeepPlanner",
    "MatchStrategy",
    "NaiveMatcher",
    "PhysicalOperator",
    "PlanningError",
    "ProjectEmbeddings",
    "ResultTable",
    "SelectAndProjectEdges",
    "SelectAndProjectVertices",
    "SelectEmbeddings",
    "canonical_row",
    "embeddings_to_arrays",
    "result_table",
    "canonical_rows_from_embeddings",
    "embedding_satisfies_morphism",
]
