"""Failure-injection tests: errors must surface with useful context and
must not corrupt engine state."""

import pytest

from repro.cypher import CypherSemanticError, CypherSyntaxError
from repro.dataflow import ExecutionEnvironment, JobExecutionError
from repro.engine import CypherRunner
from repro.epgm import Edge, GradoopId, LogicalGraph, PropertyValue, Vertex
from repro.epgm.io import CSVDataSource


class TestQueryErrors:
    def test_syntax_error_propagates(self, figure1_graph):
        with pytest.raises(CypherSyntaxError):
            figure1_graph.cypher("MATCH (p:Person")

    def test_semantic_error_propagates(self, figure1_graph):
        with pytest.raises(CypherSemanticError):
            figure1_graph.cypher("MATCH (p:Person) WHERE ghost.x = 1 RETURN *")

    def test_engine_usable_after_failed_query(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        with pytest.raises(CypherSyntaxError):
            runner.execute_table("MATCH (p:Person")
        rows = runner.execute_table("MATCH (p:Person) RETURN count(*) AS n")
        assert rows == [{"n": 3}]


class TestUDFFailures:
    def test_poisoned_property_fails_with_operator_context(self, env):
        """A UDF crash inside a leaf names the operator in the error."""

        class Poisoned(PropertyValue):
            def compare(self, other):
                raise RuntimeError("boom")

        vertex = Vertex(GradoopId(1), label="Person")
        vertex.properties.set("age", 5)
        vertex.properties._entries["age"] = Poisoned(5)
        graph = LogicalGraph.from_collections(env, [vertex], [])
        with pytest.raises(JobExecutionError) as excinfo:
            graph.cypher("MATCH (p:Person) WHERE p.age > 3 RETURN *")
        assert "SelectAndProjectVertices" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, RuntimeError)


class TestCorruptData:
    def test_dangling_edge_fails_at_result_construction(self, env):
        """An edge pointing at a missing vertex is detected, not silently
        dropped, when the match collection is materialized."""
        vertex = Vertex(GradoopId(1), label="Person")
        dangling = Edge(
            GradoopId(10),
            label="knows",
            source_id=GradoopId(1),
            target_id=GradoopId(999),  # does not exist
        )
        graph = LogicalGraph.from_collections(env, [vertex], [dangling])
        with pytest.raises(KeyError):
            graph.cypher("MATCH (a)-[e:knows]->(b) RETURN *")

    def test_malformed_csv_rejected(self, env, tmp_path):
        path = str(tmp_path / "broken")
        import os

        os.makedirs(path)
        with open(os.path.join(path, "metadata.csv"), "w") as handle:
            handle.write("v;Person;name:string\n")
        with open(os.path.join(path, "graphs.csv"), "w") as handle:
            handle.write("1;g;\n")
        with open(os.path.join(path, "vertices.csv"), "w") as handle:
            handle.write("not-an-id;[1];Person;Alice\n")
        with pytest.raises(ValueError):
            CSVDataSource(path).get_logical_graph(env)

    def test_csv_with_unknown_type_rejected(self, env, tmp_path):
        path = str(tmp_path / "badtype")
        import os

        os.makedirs(path)
        with open(os.path.join(path, "metadata.csv"), "w") as handle:
            handle.write("v;Person;name:blob\n")
        with open(os.path.join(path, "graphs.csv"), "w") as handle:
            handle.write("1;g;\n")
        with open(os.path.join(path, "vertices.csv"), "w") as handle:
            handle.write("2;[1];Person;Alice\n")
        with pytest.raises(ValueError):
            CSVDataSource(path).get_logical_graph(env)


class TestDataflowRobustness:
    def test_filter_udf_error_names_operator(self):
        env = ExecutionEnvironment(parallelism=2)
        ds = env.from_collection([1, 2]).filter(
            lambda x: x / 0 > 1, name="exploding-filter"
        )
        with pytest.raises(JobExecutionError) as excinfo:
            ds.collect()
        assert "exploding-filter" in str(excinfo.value)

    def test_join_key_udf_error_wrapped(self):
        env = ExecutionEnvironment(parallelism=2)
        left = env.from_collection([1])
        right = env.from_collection([2])
        joined = left.join(
            right, lambda l: l.missing, lambda r: r, name="bad-key-join"
        )
        with pytest.raises(JobExecutionError):
            joined.collect()

    def test_iteration_step_error_propagates(self):
        env = ExecutionEnvironment(parallelism=2)
        initial = env.from_collection([1])

        def step(working, iteration):
            return working.map(lambda x: x / 0), None

        from repro.dataflow import IterationError

        with pytest.raises((JobExecutionError, IterationError)):
            env.iterate(initial, step, max_iterations=2).collect()
