"""Pre-computed graph statistics for the query planner (paper §3.2).

"We currently utilize the total number of vertices and edges, vertex and
edge label distributions as well as the number of distinct source and
target vertices overall and by edge label."

Statistics can be persisted to JSON (Gradoop ships statistics files next
to its CSV datasets) so repeated runs skip the counting pass.
"""

import json


class GraphStatistics:
    """Cardinality statistics of one data graph."""

    def __init__(
        self,
        vertex_count,
        edge_count,
        vertex_count_by_label,
        edge_count_by_label,
        distinct_source_count,
        distinct_target_count,
        distinct_source_by_label,
        distinct_target_by_label,
    ):
        self.vertex_count = vertex_count
        self.edge_count = edge_count
        #: monotone counter bumped whenever the underlying graph (and thus
        #: these statistics) changes; plan/result cache keys include it, so
        #: a bump invalidates every cached artifact derived from the old
        #: graph without touching the caches themselves
        self.version = 0
        self.vertex_count_by_label = dict(vertex_count_by_label)
        self.edge_count_by_label = dict(edge_count_by_label)
        self.distinct_source_count = distinct_source_count
        self.distinct_target_count = distinct_target_count
        self.distinct_source_by_label = dict(distinct_source_by_label)
        self.distinct_target_by_label = dict(distinct_target_by_label)

    @classmethod
    def from_graph(cls, graph):
        """Single pass over the graph's element datasets."""
        vertex_count_by_label = {}
        for vertex in graph.collect_vertices():
            vertex_count_by_label[vertex.label] = (
                vertex_count_by_label.get(vertex.label, 0) + 1
            )
        edge_count_by_label = {}
        sources, targets = set(), set()
        sources_by_label, targets_by_label = {}, {}
        edge_count = 0
        for edge in graph.collect_edges():
            edge_count += 1
            edge_count_by_label[edge.label] = edge_count_by_label.get(edge.label, 0) + 1
            sources.add(edge.source_id)
            targets.add(edge.target_id)
            sources_by_label.setdefault(edge.label, set()).add(edge.source_id)
            targets_by_label.setdefault(edge.label, set()).add(edge.target_id)
        return cls(
            vertex_count=sum(vertex_count_by_label.values()),
            edge_count=edge_count,
            vertex_count_by_label=vertex_count_by_label,
            edge_count_by_label=edge_count_by_label,
            distinct_source_count=len(sources),
            distinct_target_count=len(targets),
            distinct_source_by_label={
                label: len(ids) for label, ids in sources_by_label.items()
            },
            distinct_target_by_label={
                label: len(ids) for label, ids in targets_by_label.items()
            },
        )

    # Persistence ---------------------------------------------------------------

    def to_dict(self):
        return {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "vertex_count_by_label": self.vertex_count_by_label,
            "edge_count_by_label": self.edge_count_by_label,
            "distinct_source_count": self.distinct_source_count,
            "distinct_target_count": self.distinct_target_count,
            "distinct_source_by_label": self.distinct_source_by_label,
            "distinct_target_by_label": self.distinct_target_by_label,
        }

    @classmethod
    def from_dict(cls, data):
        # files from older versions also carry two per-label degree maps
        # that nothing reads any more; they load and are dropped
        retired = ("max_out_degree_by_label", "max_in_degree_by_label")
        return cls(**{k: v for k, v in data.items() if k not in retired})

    def write_json(self, path):
        """Persist next to a dataset, like Gradoop's statistics files."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)

    @classmethod
    def read_json(cls, path):
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # Lookups with sensible fallbacks ------------------------------------------

    def vertices_with_labels(self, labels):
        """Vertex count matching a label alternation ([] = all labels)."""
        if not labels:
            return self.vertex_count
        return sum(self.vertex_count_by_label.get(label, 0) for label in labels)

    def edges_with_labels(self, labels):
        if not labels:
            return self.edge_count
        return sum(self.edge_count_by_label.get(label, 0) for label in labels)

    def distinct_sources(self, labels):
        if not labels:
            return max(self.distinct_source_count, 1)
        return max(
            sum(self.distinct_source_by_label.get(label, 0) for label in labels), 1
        )

    def distinct_targets(self, labels):
        if not labels:
            return max(self.distinct_target_count, 1)
        return max(
            sum(self.distinct_target_by_label.get(label, 0) for label in labels), 1
        )

    def __repr__(self):
        return "GraphStatistics(|V|=%d, |E|=%d, %d vertex labels, %d edge labels)" % (
            self.vertex_count,
            self.edge_count,
            len(self.vertex_count_by_label),
            len(self.edge_count_by_label),
        )
