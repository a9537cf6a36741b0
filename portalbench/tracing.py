"""Run-time tracing of the portal's layer seams, from outside the program.

:class:`Tracer` replaces public functions and methods of the program
with timing wrappers while a traced round runs, and puts every original
back afterwards.  Nothing under ``src/`` changes: the wrappers are
installed on the module attributes and classes the program looks up at
call time.

Each wrapped call records a span ``(id, parent, name, start_ns,
duration_ns)``.  Spans stay in memory (up to :data:`MAX_SPANS`) and are
written out by :func:`dump_trace` when the run ends; per-name
aggregates (calls, total time, self time) are kept for every call.
"""

from __future__ import annotations

import json
import time

__all__ = ["MAX_SPANS", "Tracer", "dump_trace", "seams"]

#: Spans kept verbatim for the trace file; aggregates cover every call.
MAX_SPANS = 200_000


class _Aggregate:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Spans and counters around wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.aggregates: dict[str, _Aggregate] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, int, int]] = []
        # Open spans: [span id, name, child time in ns].
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(frame[1] == name for frame in self._stack)

    def call(self, name: str, function, args, kwargs, on_result=None, skip_inside=None):
        """Run ``function`` inside a span named ``name``.

        A call that re-enters a span of the same name (a subclass method
        calling its parent's, one wrapped entry point calling another)
        is not timed again, so no time is counted twice; nor is a call
        made inside an open ``skip_inside`` span.
        """
        if (self._stack and self._stack[-1][1] == name) or (
            skip_inside is not None and self.inside(skip_inside)
        ):
            result = function(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            aggregate = self.aggregates.get(name)
            if aggregate is None:
                aggregate = self.aggregates[name] = _Aggregate()
            aggregate.calls += 1
            aggregate.total_ns += duration
            aggregate.self_ns += duration - frame[2]
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, parent, name, start, duration))
        if on_result is not None:
            on_result(self, result)
        return result

    def reset(self) -> None:
        """Start counting afresh; the spans kept so far stay."""
        self.aggregates.clear()
        self.counters.clear()

    # -- installing wrappers --------------------------------------------------

    def wrap(
        self, owner, attribute: str, name: str, on_result=None, skip_inside=None
    ) -> None:
        """Replace ``owner.attribute`` with a wrapper recording ``name``.

        ``owner`` is a module (for functions the program imported by
        name) or a class (for methods defined on that class itself).
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, on_result, skip_inside)

        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def dump_trace(path, header: dict, spans: list) -> None:
    """Write ``header``, then one JSON line per kept span.

    ``spans`` holds ``{"round", "worker", "spans"}`` entries, the spans
    of one traced round of one pool worker each.
    """
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for part in spans:
            for span_id, parent, name, start, duration in part["spans"]:
                out.write(json.dumps({
                    "round": part["round"], "worker": part["worker"], "id": span_id,
                    "parent": parent, "name": name, "start_ns": start, "dur_ns": duration,
                }) + "\n")


def _count_rows_scanned(tracer: Tracer, cell_set) -> None:
    tracer.count("olap.rows_scanned", cell_set.fact_rows_scanned)


def _count_replayed(tracer: Tracer, mutations) -> None:
    # StarHistory.as_of asks the log for exactly the range it replays.
    if tracer.inside("storage.as_of"):
        tracer.count("storage.replayed_mutations", len(mutations))


def seams(tracer: Tracer, *, cluster: bool = False) -> None:
    """Wrap the public calls at every layer seam the benchmark reports.

    With ``cluster`` the state-backend and codec calls of the pool's
    backend-backed stores are wrapped too (inside a pool worker).
    """
    from repro.cluster import stores as cluster_stores
    from repro.cluster.backend import SqliteBackend
    from repro.cluster.stores import BackendSessionStore, BackendViewStore
    from repro.personalization.engine import PersonalizationEngine
    from repro.personalization.view_store import ViewStore
    from repro.prml import evaluator as prml_evaluator
    from repro.prml.evaluator import Evaluator
    from repro.reco.recommender import Recommender
    from repro.service import facade
    from repro.service.facade import PersonalizationService
    from repro.service.sessions import InMemorySessionStore
    from repro.storage import snapshot
    from repro.storage.snapshot import StarHistory
    from repro.storage.star import MutationLog, StarSchema
    from repro.web.portal import PortalApp

    tracer.wrap(PortalApp, "handle", "web.handle")
    tracer.wrap(PersonalizationService, "login", "service.login")
    for store in (InMemorySessionStore, BackendSessionStore):
        tracer.wrap(store, "get", "service.session_store")
        tracer.wrap(store, "put", "service.session_store")
    tracer.wrap(PersonalizationEngine, "start_session", "personalization.start_session")
    tracer.wrap(ViewStore, "get_or_build", "personalization.view")
    tracer.wrap(BackendViewStore, "get_or_build", "personalization.view")
    tracer.wrap(Evaluator, "execute", "prml.rule_exec")
    for function in ("prml_distance", "prml_intersection", "prml_predicate"):
        tracer.wrap(prml_evaluator, function, "geometry.spatial")
    tracer.wrap(facade, "parse_query", "olap.parse")
    tracer.wrap(facade, "execute", "olap.execute", on_result=_count_rows_scanned)
    tracer.wrap(StarHistory, "as_of", "storage.as_of")
    tracer.wrap(MutationLog, "between", "storage.log_range", on_result=_count_replayed)
    tracer.wrap(snapshot, "star_from_dict", "storage.reconstruct")
    tracer.wrap(snapshot, "star_to_dict", "storage.checkpoint")
    # Fact appends replayed while rebuilding a past generation belong to
    # the as-of read, not to ingest.
    for method in ("insert_facts", "insert_fact"):
        tracer.wrap(StarSchema, method, "storage.insert", skip_inside="storage.as_of")
    tracer.wrap(Recommender, "recommend", "reco.recommend")
    if cluster:
        for method in (
            "put", "get", "delete", "items", "keys", "count", "clear",
            "prune", "incr", "counter", "counters",
        ):
            if method in SqliteBackend.__dict__:
                tracer.wrap(SqliteBackend, method, "cluster.backend")
        for function in sorted(vars(cluster_stores)):
            if function.startswith(("encode_", "decode_")):
                tracer.wrap(cluster_stores, function, "cluster.codec")
