"""Layout flow (S301–S307) of the plan analysis: planted violations and
proven plans.

Mirrors ``test_sanitizer.py``'s corruption corpus one layer up: each
layout code gets a fixture planting the *specific* plan defect it
exists to refute — a corrupted declared metadata, a mutated join-variable
list, malformed hop bounds, a layout rule that forgets them — while
the acceptance contract proves LDBC Q1–Q6 layout-safe under every
planner without executing a single embedding.  The same pass also runs
the structural and liveness checks; ``codes_of`` reads only the layout
codes, the findings these fixtures are about.
"""

import dataclasses

import pytest

from repro.analysis import analyze_plan
from repro.cypher.query_graph import QueryVertex
from repro.dataflow import ExecutionEnvironment
from repro.engine import (
    CypherRunner,
    EmbeddingMetaData,
    MatchStrategy,
    PhysicalOperator,
)
from repro.engine.operators.base import EmbeddingLayout
from repro.engine.operators.expand import ExpandEmbeddings
from repro.engine.operators.filter_project import (
    ProjectEmbeddings,
    SelectEmbeddings,
)
from repro.engine.operators.join import CartesianEmbeddings, JoinEmbeddings
from repro.engine.operators.leaves import (
    SelectAndProjectEdges,
    SelectAndProjectVertices,
)
from repro.engine.operators.value_join import JoinEmbeddingsOnProperty
from repro.engine.planning import (
    ExhaustivePlanner,
    GreedyPlanner,
    LeftDeepPlanner,
)
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator

PLANNERS = [GreedyPlanner, ExhaustivePlanner, LeftDeepPlanner]

EDGE_QUERY = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
TWO_HOP = (
    "MATCH (a:Person)-[e:knows]->(b:Person), (b)-[f:knows]->(c:Person) "
    "RETURN a"
)
PATH_QUERY = "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a"
CARTESIAN = "MATCH (a:Person), (c:City) RETURN a, c"


#: the codes of the layout rules and the declared-metadata comparison
LAYOUT_CODES = {"S301", "S302", "S303", "S304", "S305", "S306"}


def codes_of(report):
    return [d.code for d in report.diagnostics if d.code in LAYOUT_CODES]


def layout_findings(report):
    return [d for d in report.diagnostics if d.code in LAYOUT_CODES]


def find_op(root, cls):
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            return node
        stack.extend(node.children)
    raise AssertionError("plan contains no %s" % cls.__name__)


class TestProvenPlans:
    @pytest.mark.parametrize("planner_cls", PLANNERS)
    @pytest.mark.parametrize(
        "query", [EDGE_QUERY, TWO_HOP, PATH_QUERY, CARTESIAN]
    )
    def test_compiled_plans_are_proven(self, figure1_graph, planner_cls, query):
        runner = CypherRunner(figure1_graph, planner_cls=planner_cls)
        _, root = runner.compile(query)
        report = analyze_plan(root)
        assert report.proven, report.format_summary()
        assert layout_findings(report) == []
        assert "layout proven" in report.format_summary()

    def test_iso_compiled_plan_proven_under_iso(self, figure1_graph):
        runner = CypherRunner(
            figure1_graph, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        _, root = runner.compile(EDGE_QUERY)
        report = analyze_plan(
            root, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        assert report.proven, report.format_summary()

    def test_report_layout_matches_declared_meta(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(PATH_QUERY)
        report = analyze_plan(root)
        layout = report.layout_of(root)
        assert layout is not None
        assert layout.variables == list(root.meta.variables)
        assert layout.kind_of("e") == "p"
        assert layout.path_bounds["e"] == (1, 2)

    def test_runner_flowcheck_entry_point(self, figure1_graph):
        report = CypherRunner(figure1_graph).analyze(EDGE_QUERY)
        assert report.proven

    def test_assert_flow_returns_report_when_proven(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        report = analyze_plan(root)
        assert report.proven
        assert report.errors == []


class _BoundlessPath(PhysicalOperator):
    """A leaf binding a PATH column whose layout rule states no hop bounds."""

    display = "BoundlessPath"

    def __init__(self):
        super().__init__()
        self.meta = EmbeddingMetaData().with_entry("p", "p")

    def derive_layout(self, child_layouts, vertex_iso, flag):
        return EmbeddingLayout(entries=[("p", "p")])

    # the rest of the contract, which the one analysis pass also asks for

    def demand_on_children(self, demand, vertex_iso, edge_iso, flag):
        return []

    def check_structure(self, flag):
        pass


class TestPlantedViolations:
    def test_missing_metadata_is_s301(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        root.meta = None
        assert "S301" in codes_of(analyze_plan(root))

    def test_declared_width_mismatch_is_s301(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        # declare one column more than the plan can produce
        root.meta = root.meta.with_entry("zz", "v")
        report = analyze_plan(root)
        assert "S301" in codes_of(report)
        assert not report.proven

    def test_declared_kind_mismatch_is_s302(self, figure1_graph):
        leaf = SelectAndProjectVertices(
            figure1_graph, QueryVertex(variable="a", labels=["Person"]), []
        )
        leaf.meta = EmbeddingMetaData({"a": (0, "e")})  # vertex declared edge
        assert "S302" in codes_of(analyze_plan(leaf))

    def test_unjoined_duplicate_variable_is_s302(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(TWO_HOP)
        join = find_op(root, JoinEmbeddings)
        join.join_variables = []  # degrade the join to a raw merge
        report = analyze_plan(root)
        assert "S302" in codes_of(report)
        assert any(
            "bound on both inputs" in d.message for d in report.diagnostics
        )

    def test_malformed_hop_bounds_is_s303(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(PATH_QUERY)
        expand = find_op(root, ExpandEmbeddings)
        expand.query_edge = dataclasses.replace(
            expand.query_edge, lower=2, upper=1
        )
        assert "S303" in codes_of(analyze_plan(root))

    def test_path_column_without_bounds_is_s303(self, figure1_graph):
        report = analyze_plan(_BoundlessPath())
        assert codes_of(report) == ["S303"]
        assert "no declared hop bounds" in layout_findings(report)[0].message

    def test_property_sequence_drift_is_s304(self, figure1_graph):
        leaf = SelectAndProjectVertices(
            figure1_graph,
            QueryVertex(variable="a", labels=["Person"]),
            ["name"],
        )
        # declare a property record the leaf never loads (dead bytes)
        leaf.meta = leaf.meta.with_property("a", "gender")
        assert codes_of(analyze_plan(leaf)) == ["S304"]

    def test_homo_plan_is_not_proven_under_iso_is_s305(self, figure1_graph):
        # compiled for homomorphism: the edge leaf keeps data self-loops,
        # which an isomorphism execution would have to reject per record
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        leaf = find_op(root, SelectAndProjectEdges)
        assert not leaf.distinct_endpoints
        report = analyze_plan(
            root, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        assert "S305" in codes_of(report)
        assert not report.proven

    def test_self_loop_leaf_under_iso_is_s305_alone(self, figure1_graph):
        # an isomorphism plan whose edge leaf stops dropping self-loops:
        # every operator still agrees on the strategies, so only the
        # layout's morphism guarantee refutes it
        runner = CypherRunner(
            figure1_graph, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        handler, root = runner.compile(EDGE_QUERY)
        leaf = find_op(root, SelectAndProjectEdges)
        assert leaf.distinct_endpoints
        leaf.distinct_endpoints = False
        report = analyze_plan(
            root, handler, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        assert [d.code for d in report.errors] == ["S305"]

    def test_unbound_join_variable_is_s306(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(TWO_HOP)
        join = find_op(root, JoinEmbeddings)
        join.join_variables = ["z"]
        assert "S306" in codes_of(analyze_plan(root))

    def test_unbound_expansion_start_is_s306(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(PATH_QUERY)
        expand = find_op(root, ExpandEmbeddings)
        expand.start_variable = "zz"
        report = analyze_plan(root)
        assert "S306" in codes_of(report)
        assert any(
            "expansion start" in d.message for d in report.diagnostics
        )

    def test_projection_without_provenance_is_s307(self, figure1_graph):
        leaf = SelectAndProjectVertices(
            figure1_graph,
            QueryVertex(variable="a", labels=["Person"]),
            ["name"],
        )
        project = ProjectEmbeddings(leaf, [("a", "name")])
        project.keep_pairs = [("a", "gender")]  # never loaded upstream
        # the kept pair is not derived, so the declared property mapping
        # disagrees
        assert "S304" in codes_of(analyze_plan(project))

    def test_assert_flow_raises_with_diagnostics(self, figure1_graph):
        _, root = CypherRunner(figure1_graph).compile(EDGE_QUERY)
        root.meta = root.meta.with_entry("zz", "v")
        report = analyze_plan(root)
        assert not report.proven
        assert any(d.code == "S301" for d in report.errors)


#: one query per concrete operator class whose greedy plan contains it
QUERY_CONTAINING = {
    SelectAndProjectVertices: "MATCH (a:Person) WHERE a.name = 'Alice' RETURN a.name",
    SelectAndProjectEdges: EDGE_QUERY,
    JoinEmbeddings: TWO_HOP,
    CartesianEmbeddings: CARTESIAN,
    JoinEmbeddingsOnProperty: (
        "MATCH (a:Person), (b:Person) WHERE a.name = b.name "
        "RETURN a.gender, b.gender"
    ),
    ExpandEmbeddings: PATH_QUERY,
    SelectEmbeddings: (
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.name < b.name "
        "RETURN a, b"
    ),
    # a.name is dead once the selection has read it
    ProjectEmbeddings: (
        "MATCH (a:Person)-[e:knows]->(b:Person) WHERE a.name < b.name "
        "RETURN b.name"
    ),
}


def _widened(meta):
    return meta.with_entry("zz", "v").with_property("zz", "ghost")


def _rekinded(meta):
    first = meta.variables[0]
    entries = {
        variable: (meta.entry_column(variable), meta.entry_kind(variable))
        for variable in meta.variables
    }
    entries[first] = (0, "p" if meta.entry_kind(first) != "p" else "v")
    properties = {
        pair: index for index, pair in enumerate(meta.property_entries())
    }
    return EmbeddingMetaData(entries, properties)


class TestForwardRuleIgnoresDeclaredMeta:
    """The derived layout must not be computed from ``op.meta``.

    Tampering with one operator's declared metadata after planning has to
    surface at exactly that operator: a layout rule peeking at
    ``self.meta`` would derive the tampered layout and prove it.
    """

    @pytest.mark.parametrize(
        "tamper, expected",
        [(_widened, {"S301", "S304"}), (_rekinded, {"S302"})],
    )
    @pytest.mark.parametrize(
        "operator_cls", QUERY_CONTAINING, ids=lambda cls: cls.__name__
    )
    def test_tampered_meta_is_refuted_at_its_operator(
        self, figure1_graph, operator_cls, tamper, expected
    ):
        _, root = CypherRunner(figure1_graph).compile(
            QUERY_CONTAINING[operator_cls]
        )
        assert analyze_plan(root).proven
        op = find_op(root, operator_cls)
        op.meta = tamper(op.meta)
        report = analyze_plan(root)
        assert expected <= set(codes_of(report))
        assert set(codes_of(report)) <= {"S301", "S302", "S303", "S304"}
        prefix = op.describe() + ": "
        assert all(
            d.message.startswith(prefix) for d in layout_findings(report)
        )


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph


class TestLDBCAcceptance:
    """Q1–Q6 × three planners: every physical plan is layout-proven."""

    @pytest.mark.parametrize("planner_cls", PLANNERS)
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_paper_query_plans_are_proven(self, ldbc, name, planner_cls):
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        runner = CypherRunner(graph, planner_cls=planner_cls)
        report = runner.analyze(query)
        assert report.proven, "%s under %s: %s" % (
            name,
            planner_cls.__name__,
            [d.format() for d in report.diagnostics],
        )
