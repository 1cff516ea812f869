"""A Pregel-style runtime on the dataflow substrate.

Vertices hold state and exchange messages in synchronized supersteps; each
superstep is a dataflow job (messages grouped by target, joined with
vertex state, transformed by the vertex program), so message traffic shows
up in the environment's shuffle metrics just like the query engine's
joins do.
"""


class VertexProgram:
    """User code for a vertex-centric computation."""

    #: Optional message combiner: ``staticmethod(list) -> list``.  Applied
    #: per target vertex before delivery, like Pregel/Giraph combiners —
    #: a sum combiner turns k messages into one and cuts traffic.
    combiner = None

    def initial_state(self, vertex, adjacency):
        """The vertex's state before superstep 0."""
        raise NotImplementedError

    def compute(self, ctx, vertex, adjacency, state, messages):
        """One superstep for one vertex; returns the new state.

        Args:
            ctx: :class:`ComputeContext` — ``send``/``emit``/``superstep``.
            vertex: The data vertex.
            adjacency: List of ``(edge, neighbour_id, outgoing)`` for every
                incident edge (both directions, like Giraph's edge list
                plus mirrored in-edges).
            state: State returned by the previous superstep.
            messages: Messages addressed to this vertex (empty list in
                superstep 0 and for silent vertices).
        """
        raise NotImplementedError


class ComputeContext:
    """Per-vertex, per-superstep services."""

    __slots__ = ("superstep", "_outbox", "_results")

    def __init__(self, superstep, outbox, results):
        self.superstep = superstep
        self._outbox = outbox
        self._results = results

    def send(self, target_id, payload):
        """Deliver ``payload`` to ``target_id`` in the next superstep."""
        self._outbox.append((target_id, payload))

    def emit(self, result):
        """Add a final result (collected across all supersteps)."""
        self._results.append(result)


class PregelRuntime:
    """Executes a :class:`VertexProgram` over a logical graph."""

    def __init__(self, graph, max_supersteps=30):
        self.graph = graph
        self.environment = graph.environment
        self.max_supersteps = max_supersteps
        # message traffic is priced on the simulated cluster: every job
        # runs the reference path, which places (and orders) the elements
        vertices = graph.vertices.collect(mode="reference")
        self._vertices = {v.id.value: v for v in vertices}
        self._adjacency = {vid: [] for vid in self._vertices}
        for edge in graph.edges.collect(mode="reference"):
            source, target = edge.source_id.value, edge.target_id.value
            self._adjacency[source].append((edge, target, True))
            if target != source:
                self._adjacency[target].append((edge, source, False))

    def run(self, program):
        """Run to convergence (no messages) or ``max_supersteps``.

        Returns:
            ``(states, results)`` — final state per vertex id (int keys)
            and everything the program emitted.
        """
        environment = self.environment
        vertices = self._vertices
        adjacency = self._adjacency
        results = []
        states = {
            vid: program.initial_state(vertex, adjacency[vid])
            for vid, vertex in vertices.items()
        }

        # messages as (target_vid, payload) records
        inbox = [(vid, None) for vid in vertices]  # wake everyone for step 0
        first = True
        for superstep in range(self.max_supersteps):
            if not inbox:
                break
            inbox_ds = environment.from_collection(inbox, name="pregel-messages")
            # superstep 0's wake-up markers carry no payloads to combine
            combiner = None if first else program.combiner

            def deliver(vid, messages, _combiner=combiner):
                payloads = [payload for _, payload in messages]
                if _combiner is not None:
                    payloads = list(_combiner(payloads))
                return [(vid, payloads)]

            grouped = inbox_ds.group_by(lambda m: m[0]).reduce_group(
                deliver, name="pregel-deliver"
            )

            def superstep_fn(record, _step=superstep, _first=first):
                vid, payloads = record
                outbox = []
                ctx = ComputeContext(_step, outbox, results)
                messages = [] if _first else payloads
                new_state = program.compute(
                    ctx, vertices[vid], adjacency[vid], states[vid], messages
                )
                return [("state", vid, new_state)] + [
                    ("message", target, payload) for target, payload in outbox
                ]

            produced = grouped.flat_map(superstep_fn, name="pregel-compute").collect(
                mode="reference"
            )
            inbox = []
            for kind, key, value in produced:
                if kind == "state":
                    states[key] = value
                else:
                    if key not in vertices:
                        raise KeyError(
                            "message sent to unknown vertex %r" % key
                        )
                    inbox.append((key, value))
            first = False
        return states, results
