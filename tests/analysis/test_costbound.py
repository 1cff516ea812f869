"""Static cost bounds (S405), bound soundness (S406), admission control."""

import math

import pytest

import repro.analysis.plan
from repro.analysis import CostCertificate, analyze_plan, audit_bound_soundness
from repro.dataflow import ExecutionEnvironment
from repro.engine import CypherRunner
from repro.engine.statistics import GraphStatistics
from repro.harness.queries import ALL_QUERIES, instantiate
from repro.ldbc import LDBCGenerator
from repro.server import (
    AdmissionError,
    CostAdmissionError,
    GraphRegistry,
    QueryService,
)
from tests.analysis.test_operator_contract import PassThrough

ONE_HOP = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, e, b"
EXPAND_1 = "MATCH (a:Person)-[e:knows*1..1]->(b:Person) RETURN a, b"
EXPAND_2 = "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a, b"

#: worst-case per-operator output stays far below this for every paper
#: query at SF 0.03, while the planted cross product exceeds it by
#: orders of magnitude — the admission threshold used throughout
ADMIT_BOUND = 1_000_000

#: unbounded var-length expansion feeding a cross product: statically
#: explosive, must be rejected before any operator executes
EXPLOSIVE = (
    "MATCH (a:Person)-[e:knows*1..10]->(b:Person), (c:Comment) "
    "RETURN a, b, c"
)


def certificate_of(graph, query, **kwargs):
    runner = CypherRunner(graph, **kwargs)
    _, root = runner.compile(query)
    certificate = analyze_plan(root, statistics=runner.statistics).certificate
    return certificate, runner, root


class TestBoundRules:
    def test_vertex_leaf_bounded_by_label_count(self, figure1_graph):
        certificate, runner, _ = certificate_of(
            figure1_graph, "MATCH (a:Person) RETURN a"
        )
        expected = runner.statistics.vertices_with_labels(["Person"])
        assert certificate.max_cardinality_bound == expected

    def test_edge_leaf_bounded_by_type_count(self, figure1_graph):
        certificate, runner, _ = certificate_of(figure1_graph, ONE_HOP)
        knows = runner.statistics.edges_with_labels(["knows"])
        assert any(
            r.cardinality_bound == knows for r in certificate.records
        )

    def test_undirected_edge_leaf_prices_both_orientations(
        self, figure1_graph
    ):
        certificate, runner, _ = certificate_of(
            figure1_graph, "MATCH (a:Person)-[e:knows]-(b:Person) RETURN e"
        )
        knows = runner.statistics.edges_with_labels(["knows"])
        assert any(
            r.cardinality_bound == 2 * knows for r in certificate.records
        )

    def test_cartesian_product_multiplies(self, figure1_graph):
        certificate, runner, _ = certificate_of(
            figure1_graph, "MATCH (a:Person), (b:Person) RETURN a, b"
        )
        persons = runner.statistics.vertices_with_labels(["Person"])
        assert certificate.max_cardinality_bound == persons * persons

    def test_selection_never_grows_the_bound(self, figure1_graph):
        plain, _, _ = certificate_of(
            figure1_graph, "MATCH (a:Person) RETURN a"
        )
        filtered, _, _ = certificate_of(
            figure1_graph, "MATCH (a:Person) WHERE a.yob > 1900 RETURN a"
        )
        assert (
            filtered.max_cardinality_bound <= plain.max_cardinality_bound
        )

    def test_expand_bound_grows_with_the_hop_ceiling(self, figure1_graph):
        shallow, _, _ = certificate_of(figure1_graph, EXPAND_1)
        deep, _, _ = certificate_of(figure1_graph, EXPAND_2)
        assert shallow.max_cardinality_bound < deep.max_cardinality_bound
        assert deep.max_cardinality_bound < math.inf
        assert deep.total_bytes_bound < math.inf

    def test_certify_requires_statistics(self, figure1_graph):
        # without data-graph counts nothing is provable: no certificate
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(ONE_HOP)
        analysis = analyze_plan(root, statistics=None)
        assert analysis.certificate is None
        assert analysis.bound_of(root) is None

    def test_runner_certify_cost_entry_point(self, figure1_graph):
        analysis = CypherRunner(figure1_graph).analyze(ONE_HOP)
        certificate = analysis.certificate
        assert certificate.records
        assert certificate.max_cardinality_bound < math.inf
        assert "max cardinality <=" in certificate.format_summary()
        assert certificate.format_summary() in analysis.format_summary()
        assert "card<=" in certificate.format_table()


class _Unbounded(PassThrough):
    """A complete operator that declares no finite worst case."""

    def cardinality_bound(self, child_bounds, statistics):
        return math.inf


class TestDeclaredInfinity:
    def test_infinite_bound_is_inadmissible(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(ONE_HOP)
        certificate = analyze_plan(
            _Unbounded(root), statistics=runner.statistics
        ).certificate
        assert certificate.max_cardinality_bound == math.inf
        assert certificate.admissible(None)  # no threshold, no gate
        assert not certificate.admissible(10**18)
        diagnostic = certificate.diagnostic(10**18)
        assert diagnostic.code == "S405"
        assert "unbounded" in diagnostic.message


class TestDiagnostics:
    def test_s405_names_the_worst_operator_and_threshold(
        self, figure1_graph
    ):
        certificate, _, _ = certificate_of(figure1_graph, ONE_HOP)
        diagnostic = certificate.diagnostic(1)
        assert diagnostic.code == "S405"
        assert diagnostic.is_error
        assert "exceeds the admission threshold" in diagnostic.message
        assert certificate.worst().operator in diagnostic.message

    def test_admissible_plan_has_no_diagnostic(self, figure1_graph):
        certificate, _, _ = certificate_of(figure1_graph, ONE_HOP)
        assert certificate.diagnostic(ADMIT_BOUND) is None


@pytest.fixture(scope="module")
def ldbc():
    dataset = LDBCGenerator(scale_factor=0.03, seed=11).generate()
    graph = dataset.to_logical_graph(ExecutionEnvironment())
    return dataset, graph


class TestBoundSoundness:
    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_observed_never_exceeds_proven_bound(self, ldbc, name):
        # the q-error audit's hard sibling: estimates may err, bounds
        # may not — any S406 means the bound derivation is wrong
        dataset, graph = ldbc
        query = instantiate(ALL_QUERIES[name], dataset.first_name("medium"))
        runner = CypherRunner(graph)
        _, root = runner.compile(query)
        findings = audit_bound_soundness(root, runner.statistics)
        assert findings == [], [d.format() for d in findings]

    def test_tampered_statistics_are_caught_as_s406(self, figure1_graph):
        # plant the violation: claim knows has zero fan-out, so the
        # expansion bound certifies 0 rows while the plan produces some
        statistics = GraphStatistics.from_graph(figure1_graph)
        statistics.max_out_degree_by_label["knows"] = 0
        runner = CypherRunner(figure1_graph, statistics=statistics)
        _, root = runner.compile(EXPAND_2)
        findings = audit_bound_soundness(root, statistics)
        assert any(d.code == "S406" for d in findings)
        assert all(d.is_error for d in findings)


class TestStatisticsPersistence:
    def test_degree_maps_round_trip(self, figure1_graph):
        statistics = GraphStatistics.from_graph(figure1_graph)
        restored = GraphStatistics.from_dict(statistics.to_dict())
        assert (
            restored.max_out_degree_by_label
            == statistics.max_out_degree_by_label
        )
        assert (
            restored.max_in_degree_by_label
            == statistics.max_in_degree_by_label
        )
        assert restored.max_out_degree(["knows"]) == (
            statistics.max_out_degree(["knows"])
        )

    def test_legacy_dict_without_degrees_falls_back(self, figure1_graph):
        statistics = GraphStatistics.from_graph(figure1_graph)
        legacy = statistics.to_dict()
        del legacy["max_out_degree_by_label"]
        del legacy["max_in_degree_by_label"]
        restored = GraphStatistics.from_dict(legacy)
        # sound but looser: any vertex's fan-out is bounded by the
        # number of matching edges
        assert restored.max_out_degree(["knows"]) == (
            restored.edges_with_labels(["knows"])
        )
        assert restored.max_in_degree(["knows"]) == (
            restored.edges_with_labels(["knows"])
        )


@pytest.fixture(scope="module")
def admitting_service(ldbc):
    _, graph = ldbc
    registry = GraphRegistry()
    registry.register("ldbc", graph)
    with QueryService(
        registry, max_concurrency=2, max_cost_bound=ADMIT_BOUND
    ) as service:
        yield service


class TestAdmissionControl:
    def test_normal_query_is_admitted(self, admitting_service):
        result = admitting_service.execute(
            "ldbc", "MATCH (p:Person)-[:knows]->(q:Person) RETURN p, q"
        )
        assert result.row_count > 0

    def test_explosive_query_rejected_before_execution(
        self, admitting_service
    ):
        with pytest.raises(CostAdmissionError) as excinfo:
            admitting_service.execute("ldbc", EXPLOSIVE)
        error = excinfo.value
        assert isinstance(error, AdmissionError)
        assert isinstance(error.certificate, CostCertificate)
        assert error.diagnostic.code == "S405"
        assert error.certificate.max_cardinality_bound > ADMIT_BOUND
        assert admitting_service.metrics.snapshot()["rejected"] >= 1

    def test_prepared_path_is_gated_too(self, admitting_service, ldbc):
        dataset, _ = ldbc
        handle = admitting_service.prepare(
            "ldbc",
            "MATCH (a:Person)-[e:knows*1..10]->(b:Person), (c:Comment) "
            "WHERE a.firstName = $name RETURN a, b, c",
        )
        with pytest.raises(CostAdmissionError):
            admitting_service.execute_prepared(
                handle.statement_id, {"name": dataset.first_name("medium")}
            )

    def test_prepared_admissible_query_runs(self, admitting_service, ldbc):
        dataset, _ = ldbc
        handle = admitting_service.prepare(
            "ldbc",
            "MATCH (p:Person) WHERE p.firstName = $name RETURN p.firstName",
        )
        result = admitting_service.execute_prepared(
            handle.statement_id, {"name": dataset.first_name("low")}
        )
        assert result.row_count > 0

    def test_no_threshold_means_no_gate(self, ldbc):
        _, graph = ldbc
        registry = GraphRegistry()
        registry.register("ldbc", graph)
        with QueryService(registry, max_concurrency=1) as service:
            # default service: no threshold, no rejection — the gate is
            # strictly opt-in so existing deployments are untouched
            assert service.max_cost_bound is None
            result = service.execute(
                "ldbc", "MATCH (p:Person) RETURN p.firstName"
            )
            assert result.row_count > 0
            assert service.metrics.snapshot()["rejected"] == 0


class TestAdmissionPath:
    """Admission certifies in one place, and only when a bound is set."""

    PREPARED = (
        "MATCH (p:Person) WHERE p.firstName = $name RETURN p.firstName"
    )

    def test_service_without_bound_never_certifies(self, ldbc, monkeypatch):
        dataset, graph = ldbc

        def certify(*args, **kwargs):
            raise AssertionError("certified without a cost bound")

        monkeypatch.setattr(repro.analysis.plan, "analyze_plan", certify)
        registry = GraphRegistry()
        registry.register("ldbc", graph)
        with QueryService(registry, max_concurrency=1) as service:
            plain = service.execute(
                "ldbc", "MATCH (p:Person)-[:knows]->(q:Person) RETURN p, q"
            )
            assert plain.row_count > 0
            handle = service.prepare("ldbc", self.PREPARED)
            for _ in range(2):
                result = service.execute_prepared(
                    handle.statement_id, {"name": dataset.first_name("low")}
                )
                assert result.row_count > 0

    def test_prepared_statement_is_certified_once(self, ldbc, monkeypatch):
        dataset, graph = ldbc
        calls = []
        analyze = repro.analysis.plan.analyze_plan

        def counting(*args, **kwargs):
            calls.append(args[0])
            return analyze(*args, **kwargs)

        monkeypatch.setattr(repro.analysis.plan, "analyze_plan", counting)
        registry = GraphRegistry()
        registry.register("ldbc", graph)
        with QueryService(
            registry, max_concurrency=1, max_cost_bound=ADMIT_BOUND
        ) as service:
            handle = service.prepare("ldbc", self.PREPARED)
            for selectivity in ("low", "medium", "low"):
                service.execute_prepared(
                    handle.statement_id,
                    {"name": dataset.first_name(selectivity)},
                )
        assert len(calls) == 1
