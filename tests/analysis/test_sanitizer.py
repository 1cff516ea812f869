"""The embedding sanitizer: corruption fixtures and plan wiring.

Each byte-level corruption class must trigger its *specific* S2xx code —
the sanitizer is only useful if a truncated entry is distinguishable from
a dangling path offset.  The wiring tests assert the attach/reset/detach
lifecycle and that plain execution carries no instrumentation at all.
"""

import struct

import pytest

from repro.analysis import (
    EmbeddingSanitizer,
    SanitizerError,
    validate_embedding,
)
from repro.engine import (
    CypherRunner,
    Embedding,
    EmbeddingMetaData,
    MatchStrategy,
    PhysicalOperator,
)
from repro.epgm import GradoopId

_ENTRY = struct.Struct(">BQ")
_PROP_LEN = struct.Struct(">H")


def codes_of(findings):
    return [code for code, _detail in findings]


@pytest.fixture
def meta():
    return EmbeddingMetaData().with_entry("a", "v").with_entry("b", "v")


@pytest.fixture
def embedding():
    return Embedding.of_ids(GradoopId(1), GradoopId(2))


class TestValidateEmbedding:
    def test_sound_embedding_has_no_findings(self, meta, embedding):
        assert validate_embedding(embedding, meta) == []

    def test_truncated_entry_is_s201(self, meta, embedding):
        corrupt = Embedding(embedding.id_data[:-1])
        assert codes_of(validate_embedding(corrupt, meta)) == ["S201"]

    def test_missing_column_is_s202(self, meta, embedding):
        corrupt = Embedding(embedding.id_data[:9])
        assert "S202" in codes_of(validate_embedding(corrupt, meta))

    def test_unknown_flag_byte_is_s203(self, meta, embedding):
        corrupt = Embedding(bytes([7]) + embedding.id_data[1:])
        assert "S203" in codes_of(validate_embedding(corrupt, meta))

    def test_flag_contradicting_meta_kind_is_s203(self, meta, embedding):
        # a PATH flag in a column the metadata declares as a vertex
        corrupt = Embedding(
            _ENTRY.pack(1, 0) + embedding.id_data[9:], b"\x00\x00\x00\x00"
        )
        assert "S203" in codes_of(validate_embedding(corrupt, meta))

    def test_dangling_path_offset_is_s204(self, meta, embedding):
        with_path = embedding.append_path([GradoopId(5)])
        path_meta = meta.with_entry("p", "p")
        corrupt = Embedding(
            with_path.id_data[:18] + _ENTRY.pack(1, 9999),
            with_path.path_data,
        )
        assert "S204" in codes_of(validate_embedding(corrupt, path_meta))

    def test_path_overrunning_path_data_is_s204(self, meta, embedding):
        with_path = embedding.append_path([GradoopId(5)])
        path_meta = meta.with_entry("p", "p")
        # count says 1 element but its 8 id bytes are cut off
        corrupt = Embedding(with_path.id_data, with_path.path_data[:-4])
        assert "S204" in codes_of(validate_embedding(corrupt, path_meta))

    def test_even_path_element_count_is_s205(self, meta, embedding):
        # via lists are [e1, v1, ..., ek]: always odd (or zero) length
        corrupt = embedding.append_path([GradoopId(5), GradoopId(6)])
        path_meta = meta.with_entry("p", "p")
        assert "S205" in codes_of(validate_embedding(corrupt, path_meta))

    def test_path_outside_declared_bounds_is_s205(self, meta, embedding):
        two_hops = embedding.append_path(
            [GradoopId(5), GradoopId(6), GradoopId(7)]
        )
        path_meta = meta.with_entry("p", "p")
        findings = validate_embedding(
            two_hops, path_meta, path_bounds={"p": (1, 1)}
        )
        assert "S205" in codes_of(findings)
        assert validate_embedding(
            two_hops, path_meta, path_bounds={"p": (1, 2)}
        ) == []

    def test_zero_hop_path_below_lower_bound_is_s205(self, meta, embedding):
        zero_hop = embedding.append_path([])
        path_meta = meta.with_entry("p", "p")
        assert "S205" in codes_of(
            validate_embedding(zero_hop, path_meta, path_bounds={"p": (1, 3)})
        )
        assert validate_embedding(
            zero_hop, path_meta, path_bounds={"p": (0, 3)}
        ) == []

    def test_overlong_prop_length_is_s206(self, meta, embedding):
        prop_meta = meta.with_property("a", "name")
        with_prop = embedding.append_properties(["Alice"])
        # bump the length field past the end of the buffer
        corrupt = Embedding(
            with_prop.id_data,
            b"",
            _PROP_LEN.pack(200) + with_prop.prop_data[2:],
        )
        assert "S206" in codes_of(validate_embedding(corrupt, prop_meta))

    def test_prop_not_consuming_declared_bytes_is_s206(self, meta, embedding):
        prop_meta = meta.with_property("a", "name")
        payload = embedding.append_properties(["Alice"]).prop_data[2:]
        # declared length covers four trailing garbage bytes the
        # deserializer never consumes — the walk silently misaligns
        corrupt = Embedding(
            embedding.id_data,
            b"",
            _PROP_LEN.pack(len(payload) + 4) + payload + b"\x00" * 4,
        )
        assert "S206" in codes_of(validate_embedding(corrupt, prop_meta))

    def test_property_count_mismatch_is_s207(self, meta, embedding):
        prop_meta = meta.with_property("a", "name")
        corrupt = embedding.append_properties(["Alice", 7])
        assert "S207" in codes_of(validate_embedding(corrupt, prop_meta))

    def test_duplicate_id_under_iso_is_s208(self, meta):
        duplicate = Embedding.of_ids(GradoopId(1), GradoopId(1))
        findings = validate_embedding(
            duplicate, meta, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        assert codes_of(findings) == ["S208"]
        # homomorphism permits the repetition
        assert validate_embedding(duplicate, meta) == []

    def test_morphism_skipped_on_structurally_corrupt_embeddings(self, meta):
        # id_at would raise on the bad flag; S208 must not mask S203
        corrupt = Embedding(
            bytes([7]) + Embedding.of_ids(GradoopId(1), GradoopId(1)).id_data[1:]
        )
        findings = validate_embedding(
            corrupt, meta, vertex_strategy=MatchStrategy.ISOMORPHISM
        )
        assert "S203" in codes_of(findings)
        assert "S208" not in codes_of(findings)


class _Corrupting(PhysicalOperator):
    """Test operator injecting a byte-level mutation into a plan."""

    display = "Corrupting"

    def __init__(self, child, mutate):
        super().__init__([child])
        self.meta = child.meta
        self.estimated_cardinality = child.estimated_cardinality
        self._mutate = mutate

    def _build(self):
        return self.children[0].evaluate().map(self._mutate, name="corrupt")


def _truncate(embedding):
    return Embedding(
        embedding.id_data[:-1], embedding.path_data, embedding.prop_data
    )


class TestSanitizedExecution:
    QUERY = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"

    def test_clean_query_checks_embeddings_without_findings(self, figure1_graph):
        runner = CypherRunner(figure1_graph, sanitize=True)
        rows = runner.execute_table(self.QUERY)
        assert rows
        assert runner.last_sanitizer is not None
        assert runner.last_sanitizer.checked > len(rows)
        assert runner.last_sanitizer.diagnostics == []

    def test_sanitize_off_by_default_with_no_instrumentation(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(self.QUERY)
        assert runner.last_sanitizer is None
        assert root._sanitizer is None
        # the built dataset is the operator's own, not a Sanitize(...) wrapper
        assert not root.evaluate().operator.name.startswith("Sanitize")

    def test_sanitized_matches_plain_results(self, figure1_graph):
        plain = CypherRunner(figure1_graph).execute_table(self.QUERY)
        sanitized = CypherRunner(figure1_graph, sanitize=True).execute_table(
            self.QUERY
        )
        # no ORDER BY: the sanitized (reference) run orders rows its own way
        assert sorted(plain, key=repr) == sorted(sanitized, key=repr)

    def test_corruption_mid_plan_raises_sanitizer_error(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(self.QUERY)
        corrupted = _Corrupting(root, _truncate)
        EmbeddingSanitizer().attach(corrupted)
        with pytest.raises(SanitizerError) as excinfo:
            corrupted.evaluate().collect()
        assert excinfo.value.diagnostics[0].code == "S201"

    def test_collect_mode_accumulates_instead_of_raising(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(self.QUERY)
        corrupted = _Corrupting(root, _truncate)
        sanitizer = EmbeddingSanitizer(mode="collect").attach(corrupted)
        corrupted.evaluate().collect()
        assert sanitizer.diagnostics
        assert {d.code for d in sanitizer.diagnostics} == {"S201"}

    def test_detach_restores_plain_execution(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(self.QUERY)
        corrupted = _Corrupting(root, _truncate)
        sanitizer = EmbeddingSanitizer().attach(corrupted)
        sanitizer.detach(corrupted)
        assert corrupted.evaluate().collect()  # corrupt but unchecked

    def test_attach_collects_path_bounds_from_expansions(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a"
        )
        sanitizer = EmbeddingSanitizer().attach(root)
        assert sanitizer.path_bounds == {"e": (1, 2)}
        root.evaluate().collect()
        assert sanitizer.checked > 0
        assert sanitizer.diagnostics == []

    def test_iso_strategy_threaded_into_checks(self, figure1_graph):
        runner = CypherRunner(
            figure1_graph,
            vertex_strategy=MatchStrategy.ISOMORPHISM,
            sanitize=True,
        )
        rows = runner.execute_table(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a, b"
        )
        assert rows
        assert runner.last_sanitizer.diagnostics == []

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSanitizer(mode="log")

    def test_runner_rejects_invalid_sanitize_value(self, figure1_graph):
        with pytest.raises(ValueError):
            CypherRunner(figure1_graph, sanitize="yes")


class TestOperatorContracts:
    def test_join_key_disagreement_is_s209(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        sanitizer = EmbeddingSanitizer(mode="collect")
        left = Embedding.of_ids(GradoopId(1))
        right = Embedding.of_ids(GradoopId(2))
        sanitizer.check_join_keys(root, left, right, [0], [0])
        assert [d.code for d in sanitizer.diagnostics] == ["S209"]
        sanitizer.diagnostics.clear()
        sanitizer.check_join_keys(root, left, Embedding.of_ids(GradoopId(1)),
                                  [0], [0])
        assert sanitizer.diagnostics == []

    def test_projection_mutation_is_s209(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        sanitizer = EmbeddingSanitizer(mode="collect")
        source = Embedding().append_properties(["Alice", 1984])
        good = source.project_properties([1])
        sanitizer.check_projection(root, source, good, [1])
        assert sanitizer.diagnostics == []
        bad = source.project_properties([0])  # kept the wrong value
        sanitizer.check_projection(root, source, bad, [1])
        assert [d.code for d in sanitizer.diagnostics] == ["S209"]


class TestReset:
    def test_plan_reexecutes_after_reset(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(
            "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        )
        first = root.evaluate().collect()
        root.reset()
        assert root._dataset is None
        assert root.evaluate().collect() == first

    def test_explain_analyze_is_repeatable(self, figure1_graph):
        runner = CypherRunner(figure1_graph)
        query = "MATCH (a:Person)-[e:knows]->(b:Person) RETURN a"
        assert runner.explain_analyze(query) == runner.explain_analyze(query)

    def test_reset_covers_variable_length_expansion(self, figure1_graph):
        # ExpandEmbeddings runs its superstep loop in a lazy iteration
        # operator; reset must rebuild the whole iteration DAG, not
        # replay stale partitions
        runner = CypherRunner(figure1_graph)
        _, root = runner.compile(
            "MATCH (a:Person)-[e:knows*1..2]->(b:Person) RETURN a"
        )
        first = sorted(root.evaluate().collect(), key=hash)
        root.reset()
        assert sorted(root.evaluate().collect(), key=hash) == first
