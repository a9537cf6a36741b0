"""The benchmark's workloads, both through a 2-worker pool: pool_replay
and churn_asof.

Each workload object is built once per run from the seed (world, stream,
write plan, the benchmark's own expectations), then drives rounds:

* :meth:`setup` starts a fresh, cold pool over a new state backend
  and waits until every worker answers (timed as set-up);
* :meth:`ready` connects the client and makes the untimed requests a
  round needs first;
* :meth:`run` issues the round's operations serially from this one
  process and returns the timed seconds;
* :meth:`check` verifies the round's answers against computations made
  apart from the program;
* :meth:`layer_counts` and :meth:`spans` return the round's layer
  counters and (traced rounds) the workers' spans;
* :meth:`teardown` stops the pool.

A run is made of whole rounds, and no operation of a round is expected
to fail.
"""

from __future__ import annotations

import dataclasses
import functools
import http.client
import json
import math
import os
import random
import threading
import time
from collections import Counter

from core import Checks, Recorder
from tracing import Tracer, seams

__all__ = ["WORKLOADS", "PoolReplay", "ChurnAsOf"]

FACT = "Sales"
#: ``5kmStores``: ``Distance(s.geometry, <login point>) < 5km``; the
#: world's coordinates are metres.
RADIUS_M = 5000.0
#: The selection report that fires ``IntAirportCity`` (whitespace-free).
AIRPORT_TRIGGER = (
    "GeoMD.Store.City",
    "Distance(GeoMD.Store.City.geometry,GeoMD.Airport.geometry)<20km",
)
STATS_PATH = "/__bench/stats"
WRITE_PATH = "/__bench/write"
RESET_PATH = "/__bench/reset"
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


# -- the benchmark's own account of the data ----------------------------------


class StoreIndex:
    """Store points and per-store sales, read from the world and its rows.

    This is the expectation the ``5kmStores`` logins are checked
    against: which stores lie within 5 km of a login point, and how many
    sales rows (and units) those stores have.
    """

    def __init__(self, world, star) -> None:
        self.points = [
            (store.name, store.location.x, store.location.y)
            for store in world.stores
        ]
        table = star.fact_table(FACT)
        stores = table.key_column("Store")
        units = table.measure_column("UnitSales")
        self.total_rows = len(stores)
        self.rows: Counter = Counter(stores)
        self.units: Counter = Counter()
        for store, value in zip(stores, units):
            self.units[store] += value
        self.keys = {
            "Store": sorted(self.rows),
            "Customer": sorted(set(table.key_column("Customer"))),
            "Product": sorted(set(table.key_column("Product"))),
            "Time": sorted(set(table.key_column("Time"))),
        }
        self.cities = sorted(city.name for city in world.cities)
        xs = [x for _name, x, _y in self.points]
        ys = [y for _name, _x, y in self.points]
        self.bbox = (min(xs), min(ys), max(xs), max(ys))

    def within(self, x: float, y: float) -> list[str]:
        return [
            name
            for name, sx, sy in self.points
            if math.hypot(sx - x, sy - y) < RADIUS_M
        ]


def fact_rows(rng: random.Random, keys: dict, count: int, customers=()) -> list:
    """``count`` seeded sales rows over existing (or given extra) keys."""
    customer_keys = list(keys["Customer"]) + list(customers)
    rows = []
    for _ in range(count):
        units = rng.randint(1, 10)
        cost = round(units * rng.uniform(0.5, 80.0), 2)
        rows.append(
            (
                {
                    "Store": rng.choice(keys["Store"]),
                    "Customer": rng.choice(customer_keys),
                    "Product": rng.choice(keys["Product"]),
                    "Time": rng.choice(keys["Time"]),
                },
                {
                    "UnitSales": units,
                    "StoreCost": cost,
                    "StoreSales": round(cost * rng.uniform(1.1, 1.6), 2),
                },
            )
        )
    return rows


def strip_token(body):
    if isinstance(body, dict) and "token" in body:
        return {key: value for key, value in body.items() if key != "token"}
    return body


def check_logins(
    checks: Checks, events, bodies, index: StoreIndex, threshold: int
) -> Counter:
    """Check every login that only the Store-radius rule can select for.

    ``TrainAirportCity`` selects cities once the user's airport-city
    interest degree exceeds the threshold; ``IntAirportCity`` raises
    that degree by one per matching selection report.  Logins of users
    past the threshold are counted, not checked.
    """
    degree: Counter = Counter()
    checked = train = 0
    for event, (status, body) in zip(events, bodies):
        user = (event.datamart, event.user)
        if event.kind == "selection" and status == 200:
            pattern = (
                str(event.payload.get("target", "")).replace(" ", ""),
                str(event.payload.get("condition", "")).replace(" ", ""),
            )
            if pattern == AIRPORT_TRIGGER:
                degree[user] += 1
        if event.kind != "login":
            continue
        if degree[user] > threshold:
            train += 1
            continue
        x, y = event.payload["location"]
        stores = index.within(x, y)
        rows = sum(index.rows[s] for s in stores)
        view = body.get("view", {}) if isinstance(body, dict) else {}
        checked += 1
        checks.expect(
            "login_5km_members",
            view.get("members_selected") == len(stores),
            f"{event.session}: members_selected {view.get('members_selected')} "
            f"!= {len(stores)} stores within 5 km",
        )
        checks.expect(
            "login_5km_rows",
            view.get("fact_rows_kept") == rows,
            f"{event.session}: fact_rows_kept {view.get('fact_rows_kept')} != {rows}",
        )
    return Counter({"checked": checked, "train_logins": train})


def app_counts(app) -> dict:
    """Counters a portal keeps about its caches (read after a round)."""
    service = app.service
    builds = patches = 0
    for datamart in service.registry:
        store = datamart.engine.view_store
        if store is not None:
            stats = store.stats()
            builds += stats["builds"]
            patches += stats["patches"]
    return {
        "query_cache_hits": service.query_cache_hits,
        "query_cache_misses": service.query_cache_misses,
        "view_builds": builds,
        "view_patches": patches,
        "reco_memo_hits": service.recommender.memo_hits,
        "reco_memo_misses": service.recommender.memo_misses,
        "rehydrations": getattr(service.sessions, "rehydrations", 0),
    }


def tracer_counts(tracer: Tracer) -> dict:
    """A tracer's per-name call counts, times and counters, flat."""
    out = {}
    for name, agg in tracer.aggregates.items():
        out[f"{name}.calls"] = agg.calls
        out[f"{name}.ms"] = agg.total_ns / 1e6
    out.update(tracer.counters)
    return out


# -- stream replay ------------------------------------------------------------


def request_for(event, tokens: dict, epoch: dict):
    """The HTTP request one generated event stands for."""
    kind = event.kind
    payload = dict(event.payload)
    token = tokens.get(event.session)
    if kind == "login":
        payload["datamart"] = event.datamart
        return "login", "POST", "/api/v1/login", payload, None, event.datamart
    if kind == "logout":
        return kind, "POST", "/api/v1/logout", None, token, None
    if kind == "view":
        return kind, "GET", "/api/v1/view", None, token, None
    if kind == "query":
        if payload.get("as_of") is not None:
            payload["as_of"] = epoch[event.datamart]
            return "as_of", "POST", "/api/v1/query", payload, token, None
        return kind, "POST", "/api/v1/query", payload, token, None
    if kind == "selection":
        return kind, "POST", "/api/v1/selection", payload, token, None
    if kind == "layer":
        return kind, "GET", f"/api/v1/layers/{payload['layer']}", None, token, None
    if kind == "recommendations":
        path = f"/api/v1/recommendations/{payload['kind']}"
        return "reco", "GET", path, None, token, None
    raise ValueError(f"unknown event kind {kind!r}")


def replay(target, events, epoch: dict, rec: Recorder, bodies: list) -> float:
    """Serial stream-order replay; returns the wall seconds it took."""
    tokens: dict[str, str] = {}
    clock = time.perf_counter
    started = clock()
    for event in events:
        kind, method, path, body, token, datamart = request_for(event, tokens, epoch)
        sent = clock()
        status, response = target.request(
            method, path, body=body, token=token, datamart=datamart
        )
        rec.op(kind, clock() - sent, 200 <= status < 300, str(status))
        if kind == "login" and status == 200:
            tokens[event.session] = response["token"]
        bodies.append((status, response))
    return clock() - started


def stream_for(tier_name: str, seed: int, sessions: int | None = None):
    """World and seeded cohort stream of a scale tier."""
    from repro.workload import build_tier_world, generator_for_tier, tier

    base = tier(tier_name)
    config = dataclasses.replace(base.config, seed=seed)
    if sessions is not None:
        config = dataclasses.replace(config, sessions=sessions)
    tier_spec = dataclasses.replace(base, config=config)
    world = build_tier_world(tier_spec)
    return world, generator_for_tier(tier_spec, world).stream()


def describe_stream(stream, login_report: Counter) -> dict:
    info = stream.describe()
    return {
        "events": info["events"],
        "sessions": info["sessions"],
        "active_users": info["active_users"],
        "events_by_kind": info["events_by_kind"],
        "as_of_reads": info["as_of_reads"],
        "logins_checked_all_rounds": login_report["checked"],
        "logins_past_train_threshold_all_rounds": login_report["train_logins"],
    }


# -- the pool -----------------------------------------------------------------


class WorkerApp:
    """What each pool worker serves: the portal, timed, plus bench routes.

    ``/__bench/stats`` answers the worker's peak RSS, its handler time
    and (in traced rounds) its tracer's counts and spans;
    ``/__bench/write`` changes a tenant's star through the
    :class:`StarSchema` mutation calls (the star lives in the worker);
    ``/__bench/reset`` zeroes the counters after set-up.
    """

    def __init__(self, app, tracer: Tracer | None) -> None:
        self.app = app
        self.tracer = tracer
        self.handle_ns = 0
        self.requests = 0

    def handle(self, method, path, body=None, token=None, headers=None, query=None):
        from repro.web.http import json_response

        if path == STATS_PATH:
            return json_response(self._stats())
        if path == WRITE_PATH:
            return json_response(self._write(body))
        if path == RESET_PATH:
            # Set-up probes (readiness, as-of epochs) are not workload.
            self.handle_ns = self.requests = 0
            if self.tracer is not None:
                self.tracer.reset()
                self.tracer.spans.clear()
            return json_response({"reset": True})
        started = time.perf_counter_ns()
        response = self.app.handle(
            method, path, body, token=token, headers=headers, query=query
        )
        self.handle_ns += time.perf_counter_ns() - started
        self.requests += 1
        return response

    def _stats(self) -> dict:
        hwm_kb = 0
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    hwm_kb = int(line.split()[1])
        out = {"peak_rss_mb": hwm_kb / 1024.0, "handle_ms": self.handle_ns / 1e6,
               "requests": self.requests}
        if self.tracer is not None:
            # Before app_counts, whose store stats read the backend too.
            out["trace"] = tracer_counts(self.tracer)
            out["spans"] = self.tracer.spans
        out["counts"] = app_counts(self.app)
        return out

    def _write(self, body) -> dict:
        """One star change, named by ``body["op"]``; answers the star's
        generation, fact rows and unit total after it."""
        from repro.geometry import Point

        star = self.app.registry.get(body["datamart"]).engine.star
        op = body["op"]
        if op == "facts":
            star.insert_facts(FACT, body["rows"])
        elif op == "member":
            star.add_member("Customer", "Customer", body["key"], {"address": "bench"},
                            parents={"City": body["city"]})
        elif op == "feature":
            star.add_feature("Airport", body["name"], Point(body["x"], body["y"]), {})
        elif op == "update":
            # An in-place member update: no replayable delta, so the
            # history takes an eager checkpoint.
            member = star.dimension_table("Customer").member("Customer", body["key"])
            member.attributes["address"] = body["address"]
            star.note_member_change("Customer", op="update")
        elif op != "read":
            raise ValueError(f"unknown write {op!r}")
        table = star.fact_table(FACT)
        return {"generation": star.generation, "rows": len(table),
                "units": sum(table.measure_column("UnitSales"))}


def exit_with_parent(parent: int) -> None:
    """Run in a pool worker: end it once the benchmark process that
    forked it is gone, even if that process was killed outright."""

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def worker_app(world, users, datamarts, backend, traced: bool, parent: int,
               worker_id: int) -> WorkerApp:
    """App factory of the pool: the workload portal over the shared backend."""
    from repro.workload import build_workload_portal

    exit_with_parent(parent)

    tracer = None
    if traced:
        tracer = Tracer()
        seams(tracer, cluster=True)
    app = build_workload_portal(world, users, datamarts=datamarts, backend=backend)
    return WorkerApp(app, tracer)


class PoolWorkload:
    """A fresh 2-worker pool over a fresh SQLite file each round, driven
    serially by one client (``ClusterClient``, tenant/token affinity)."""

    workers = 2

    def __init__(self) -> None:
        self.pool = self.target = self.backend = None
        self.path = None
        self.peak_mb = 0.0
        self.worker_stats = None
        os.makedirs(WORK_DIR, exist_ok=True)

    def portal(self) -> tuple:
        """``(world, users, datamarts)`` every worker builds its portal from."""
        raise NotImplementedError

    def setup(self, traced: bool) -> None:
        from repro.cluster.backend import SqliteBackend
        from repro.cluster.pool import WorkerPool

        self.path = os.path.join(WORK_DIR, f"pool-{os.getpid()}.sqlite")
        self._remove_files()
        self.backend = SqliteBackend(self.path)
        factory = functools.partial(
            worker_app, *self.portal(), self.backend, traced, os.getpid()
        )
        self.pool = WorkerPool(factory, workers=self.workers)
        self._wait_ready()

    def ready(self) -> None:
        """Untimed: connect the client, make the round's first requests,
        then zero every worker's counters."""
        from repro.workload import ClusterTarget

        self.target = ClusterTarget(self.pool)
        self.prime()
        for host, port in self.pool.shard_addresses:
            self._get(host, port, RESET_PATH)
        self.worker_stats = None

    def prime(self) -> None:
        """Requests a round needs before its first operation."""

    def _wait_ready(self, timeout: float = 60.0) -> None:
        """Poll every worker's health route until it answers.

        ``WorkerPool.wait_ready`` sleeps 50 ms between polls, which
        would round the set-up time to that grain."""
        deadline = time.monotonic() + timeout
        for host, port in self.pool.shard_addresses:
            while True:
                try:
                    self._get(host, port, "/api/v1/health")
                    break
                except (OSError, http.client.HTTPException, ValueError):
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.002)

    def write(self, tenant: str, **body) -> tuple[int, dict]:
        """A star change through the tenant's worker's write route."""
        return self.target.request(
            "POST", WRITE_PATH, body={"datamart": tenant, **body}, datamart=tenant
        )

    @staticmethod
    def _get(host: str, port: int, path: str) -> dict:
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def _stats(self) -> list[dict]:
        if self.worker_stats is None:
            self.worker_stats = [
                self._get(host, port, STATS_PATH)
                for host, port in self.pool.shard_addresses
            ]
            self.peak_mb = max(
                [self.peak_mb] + [s["peak_rss_mb"] for s in self.worker_stats]
            )
        return self.worker_stats

    def layer_counts(self) -> dict:
        """The round's counters from every worker (read before the
        checks, which send requests of their own)."""
        counts: Counter = Counter()
        for stats in self._stats():
            counts.update(stats["counts"])
            counts.update(stats.get("trace", {}))
            counts["worker.handle_ms"] += stats["handle_ms"]
            counts["worker.requests"] += stats["requests"]
        return dict(counts)

    def spans(self) -> list:
        """The round's spans, per worker (traced rounds only)."""
        return [stats.get("spans", []) for stats in self._stats()]

    def teardown(self) -> None:
        self._stats()
        if self.target is not None:
            self.target.close()
        if self.pool is not None:
            self.pool.stop()
        if self.backend is not None:
            self.backend.close()
        self._remove_files()
        self.pool = self.target = self.backend = None

    def _remove_files(self) -> None:
        if self.path is None:
            return
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(self.path + suffix)
            except FileNotFoundError:
                pass

    def peak_rss_mb(self) -> float:
        return self.peak_mb

    def close(self) -> None:
        if self.pool is not None:
            self.teardown()


# -- pool_replay --------------------------------------------------------------


class PoolReplay(PoolWorkload):
    """A seeded cohort stream over 4 tenants, serially through the pool."""

    name = "pool_replay"
    #: Percentile of each tail metric: at least ten samples lie beyond
    #: it in MIN_ROUNDS rounds.
    tails = {"login": 75, "query": 80}
    tier_name, quick_tier = "small", "smoke"
    sessions = 24
    #: Fact-append batches per tenant, closing each round.
    ingest_batches = 2
    batch_rows = 50

    def __init__(self, seed: int, quick: bool = False) -> None:
        from repro.data import build_sales_star
        from repro.workload.harness import THRESHOLD

        super().__init__()
        self.threshold = THRESHOLD
        self.seed = seed
        self.quick = quick
        if quick:
            self.batch_rows = 25
        self.world, self.stream = self._stream(0)
        self.index = StoreIndex(self.world, build_sales_star(self.world))
        self.tenants = self.stream.header["config"]["datamarts"]
        self.login_report: Counter = Counter()
        self.stream_events: Counter = Counter()
        self.streams = 0

    def _stream(self, round_index: int):
        """Round ``r`` replays its own stream, seeded from the run's seed
        and ``r``: a run averages over several streams, and two runs
        with one seed do the same work round for round."""
        return stream_for(
            self.quick_tier if self.quick else self.tier_name,
            self.seed * 1000 + round_index,
            sessions=None if self.quick else self.sessions,
        )

    def prepare(self, round_index: int) -> None:
        """Untimed: the round's stream and fact-append batches."""
        _world, self.stream = self._stream(round_index)
        self.events = list(self.stream)
        self.users = self.stream.active_users()
        self.stream_events.update(e.kind for e in self.events)
        self.streams += 1
        rng = random.Random(self.seed * 1000 + round_index)
        self.batches = [
            (tenant, fact_rows(rng, self.index.keys, self.batch_rows))
            for _ in range(self.ingest_batches)
            for tenant in self.tenants
        ]

    def inputs(self) -> dict:
        out = describe_stream(self.stream, self.login_report)
        out["world_scale"] = "small"
        out["fact_rows_per_tenant"] = self.index.total_rows
        out["ingest_rows_per_round"] = self.batch_rows * len(self.batches)
        out["streams"] = self.streams
        out["events_all_rounds"] = dict(sorted(self.stream_events.items()))
        return out

    def portal(self) -> tuple:
        return self.world, self.users, tuple(self.tenants)

    def prime(self) -> None:
        from repro.workload import ReplayDriver

        self.epoch = ReplayDriver(self.target).resolve_as_of()

    def run(self, rec: Recorder) -> float:
        """The stream, then the fact batches.  Through the pool the
        batches close the round: placed amid the stream, each would land
        at a random point of the connection's stall alternation, and
        eight such samples do not repeat."""
        self.bodies: list = []
        self.ingest_answers: list = []
        elapsed = replay(self.target, self.events, self.epoch, rec, self.bodies)
        clock = time.perf_counter
        started = clock()
        for tenant, rows in self.batches:
            sent = clock()
            status, body = self.write(tenant, op="facts", rows=rows)
            rec.write(clock() - sent, len(rows), status == 200)
            self.ingest_answers.append((tenant, status, body))
        return elapsed + clock() - started

    def check(self, checks: Checks) -> None:
        from repro.workload import InProcessTarget, ReplayDriver, build_workload_portal

        self.login_report += check_logins(
            checks, self.events, self.bodies, self.index, self.threshold
        )
        # The reference: the same stream, serially, through the
        # in-process portal with in-heap stores.
        reference = build_workload_portal(self.world, self.users)
        target = InProcessTarget(reference)
        epoch = ReplayDriver(target).resolve_as_of()
        bodies: list = []
        replay(target, self.events, epoch, Recorder(), bodies)
        expected = [(status, strip_token(body)) for status, body in bodies]
        mismatched = [
            i for i, ((status, body), want) in enumerate(zip(self.bodies, expected))
            if (status, strip_token(body)) != want
        ]
        checks.expect(
            "pool_bodies_equal_in_process",
            len(self.bodies) == len(expected) and not mismatched,
            f"{len(mismatched)} of {len(self.bodies)} bodies differ "
            f"(first at event {mismatched[0] if mismatched else None})",
        )
        base_units = sum(self.index.units.values())
        rows_so_far: Counter = Counter()
        units_so_far: Counter = Counter()
        for (tenant, rows), (_t, status, body) in zip(self.batches, self.ingest_answers):
            rows_so_far[tenant] += len(rows)
            units_so_far[tenant] += sum(m["UnitSales"] for _c, m in rows)
            checks.expect(
                "ingest_rows",
                status == 200
                and body.get("rows") == self.index.total_rows + rows_so_far[tenant],
                f"{tenant}: ingest answered {status} {body}",
            )
            checks.expect(
                "ingest_units",
                status == 200 and body.get("units") == base_units + units_so_far[tenant],
                f"{tenant}: unit total after ingest",
            )


# -- churn_asof ---------------------------------------------------------------


class ChurnAsOf(PoolWorkload):
    """Writes beside live and as-of reads on one small-world tenant,
    serially through the pool."""

    name = "churn_asof"
    tails = {"login": 75, "query": 75}
    tenant = "dm-0"
    queries = (
        "SELECT SUM(UnitSales) FROM Sales BY Product.Family",
        "SELECT SUM(StoreSales) FROM Sales BY Store.City",
        "SELECT SUM(StoreCost) FROM Sales BY Time.Month",
        "SELECT SUM(UnitSales) FROM Sales BY Customer.City",
    )
    total_query = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"
    #: Sessions read from at once; every step one of them is replaced by
    #: a fresh login (the replaced session stays open).
    slots = 4
    #: A world smaller than the tiers' (24 stores, 40 customers, 1,000
    #: sales rows): a cold as-of reconstruction rebuilds every dimension
    #: member, about 100 ms of CPU on the small tier's world against
    #: about 30 ms here, which keeps the as-of latency within reach of
    #: the bounds on a machine whose CPU speed drifts.
    world_config = dict(seed=7, states_x=2, states_y=1, cities_per_state=4,
                        customers_per_city=5, sales=1_000)

    def __init__(self, seed: int, quick: bool = False) -> None:
        from repro.data import WorldConfig, build_sales_star, generate_world

        super().__init__()
        self.quick = quick
        self.world = generate_world(WorldConfig(**self.world_config))
        self.index = StoreIndex(self.world, build_sales_star(self.world))
        self.seed = seed
        self.steps = 8 if quick else 24
        self.batch_rows = 25 if quick else 50
        self.users = [(self.tenant, f"churn-{slot}", "churn") for slot in range(self.slots)]

    def _plan(self, rng: random.Random) -> list:
        """The round's operations, as data: every round replays them.

        Sessions are numbered in login order; ``slot_session[slot]`` is
        the session a slot's reads go to.
        """
        index = self.index
        plan: list = []
        slot_session: list[int] = []
        logins = 0

        def login() -> int:
            nonlocal logins
            _name, x, y = rng.choice(index.points)
            plan.append(("login", logins, f"churn-{logins % self.slots}", (x, y)))
            logins += 1
            return logins - 1

        for _slot in range(self.slots):
            slot_session.append(login())
        customers: list[str] = []
        min_x, min_y, max_x, max_y = index.bbox
        for step in range(self.steps):
            plan.append(("facts", fact_rows(rng, index.keys, self.batch_rows, customers)))
            if step % 3 == 1:
                for i in range(2):
                    key = f"bench-customer-{step}-{i}"
                    plan.append(("member", key, rng.choice(index.cities)))
                    customers.append(key)
            if step % 4 == 2:
                plan.append((
                    "feature", f"bench-airport-{step}",
                    rng.uniform(min_x, max_x), rng.uniform(min_y, max_y),
                ))
            if step % 8 == 5:
                plan.append(("update", rng.choice(index.keys["Customer"]), f"moved {step}"))
            plan.append(("mark", step))
            plan.append(("query", slot_session[step % self.slots],
                         rng.choice(self.queries), step))
            plan.append(("view", slot_session[(step + 1) % self.slots]))
            if step >= 1:
                # The generation of the step before, which no read has
                # named yet: every as-of read is a cold reconstruction.
                plan.append(("as_of", step - 1))
            if step % 2 == 0:
                plan.append(("reco", slot_session[(step + 2) % self.slots],
                             rng.choice(("queries", "layers", "members"))))
            slot_session[(step + 3) % self.slots] = login()
        return plan

    def inputs(self) -> dict:
        kinds = Counter(op[0] for op in self.plan)
        kinds.pop("mark", None)
        return {
            "world": self.world_config,
            "tenants": 1,
            "fact_rows_base": self.index.total_rows,
            "ops_by_kind": dict(sorted(kinds.items())),
            "fact_rows_appended_per_round": sum(
                len(op[1]) for op in self.plan if op[0] == "facts"
            ),
        }

    def prepare(self, round_index: int) -> None:
        """Untimed: the round's plan, seeded from the run's seed and ``r``."""
        self.plan = self._plan(random.Random(self.seed * 1000 + round_index))

    def portal(self) -> tuple:
        return self.world, self.users, (self.tenant,)

    def prime(self) -> None:
        _status, body = self.write(self.tenant, op="read")
        self.generation = body["generation"]

    def run(self, rec: Recorder) -> float:
        target, tenant = self.target, self.tenant
        tokens: dict[int, str] = {}
        marks: dict[int, int] = {}
        live: dict[int, tuple] = {}
        self.logins = []
        self.as_of_pairs = []
        self.appended = []
        self.write_answers = []
        clock = time.perf_counter
        started = clock()
        for op in self.plan:
            kind = op[0]
            if kind in ("facts", "member", "feature", "update"):
                if kind == "facts":
                    body = {"op": kind, "rows": op[1]}
                elif kind == "member":
                    body = {"op": kind, "key": op[1], "city": op[2]}
                elif kind == "feature":
                    body = {"op": kind, "name": op[1], "x": op[2], "y": op[3]}
                else:
                    body = {"op": kind, "key": op[1], "address": op[2]}
                sent = clock()
                status, answer = self.write(tenant, **body)
                rows = len(op[1]) if kind == "facts" else 0
                rec.write(clock() - sent, rows, status == 200,
                          kind="write" if kind == "facts" else "write_meta")
                if kind == "facts":
                    self.appended.extend(op[1])
                    self.write_answers.append((len(self.appended), status, answer))
                self.generation = answer.get("generation")
                continue
            if kind == "mark":
                marks[op[1]] = self.generation
                continue
            datamart = None
            if kind == "login":
                method, path, token = "POST", "/api/v1/login", None
                body = {"user": op[2], "location": list(op[3]), "datamart": tenant}
                datamart = tenant
            elif kind == "query":
                method, path, token = "POST", "/api/v1/query", tokens[op[1]]
                body = {"q": op[2], "limit": 100}
            elif kind == "view":
                method, path, body, token = "GET", "/api/v1/view", None, tokens[op[1]]
            elif kind == "as_of":
                session, text, step = live[op[1]][:3]
                method, path, token = "POST", "/api/v1/query", tokens[session]
                body = {"q": text, "limit": 100, "as_of": marks[step]}
            else:  # reco
                method, path, body, token = (
                    "GET", f"/api/v1/recommendations/{op[2]}", None, tokens[op[1]],
                )
            sent = clock()
            status, response = target.request(
                method, path, body=body, token=token, datamart=datamart
            )
            rec.op(kind, clock() - sent, status == 200, str(status))
            if kind == "login":
                tokens[op[1]] = response.get("token")
                self.logins.append((op[1], op[3], len(self.appended), status, response))
            elif kind == "query":
                live[op[3]] = (op[1], op[2], op[3], status, response)
            elif kind == "as_of":
                self.as_of_pairs.append((live[op[1]], status, response))
        elapsed = clock() - started
        self.tokens = tokens
        return elapsed

    def _expected(self, location, appended) -> tuple[int, float, list]:
        """Rows and units of the stores within 5 km of ``location``."""
        stores = self.index.within(*location)
        chosen = set(stores)
        rows = sum(self.index.rows[s] for s in stores)
        units = sum(self.index.units[s] for s in stores)
        for coordinates, measures in appended:
            if coordinates["Store"] in chosen:
                rows += 1
                units += measures["UnitSales"]
        return rows, units, stores

    def check(self, checks: Checks) -> None:
        base_units = sum(self.index.units.values())
        for appended, status, answer in self.write_answers:
            units = base_units + sum(m["UnitSales"] for _c, m in self.appended[:appended])
            checks.expect(
                "ingest_rows",
                status == 200 and answer.get("rows") == self.index.total_rows + appended,
                f"after {appended} appended rows: {status} {answer}",
            )
            checks.expect(
                "ingest_units", status == 200 and answer.get("units") == units,
                f"after {appended} appended rows: unit total {answer.get('units')}",
            )
        for _session, location, appended, status, body in self.logins:
            rows, _units, stores = self._expected(location, self.appended[:appended])
            view = body.get("view", {})
            checks.expect(
                "login_5km_members",
                status == 200 and view.get("members_selected") == len(stores),
                f"login at {location}: {view}",
            )
            checks.expect(
                "login_5km_rows",
                view.get("fact_rows_kept") == rows,
                f"login at {location}: kept {view.get('fact_rows_kept')} != {rows}",
            )
        for (_session, text, step, live_status, live_body), status, body in self.as_of_pairs:
            checks.expect(
                "as_of_equals_live_at_g",
                status == 200 and live_status == 200 and body == live_body,
                f"as-of read of step {step} ({text}) differs from the live answer",
            )
        # Live totals after the writes: base rows of each session's stores
        # plus every appended row of those stores, summed here.
        for session, location, _appended, _status, _body in self.logins:
            rows, units, _stores = self._expected(location, self.appended)
            token = self.tokens[session]
            _status, view = self.target.request("GET", "/api/v1/view", token=token)
            status, answer = self.target.request(
                "POST", "/api/v1/query", body={"q": self.total_query, "limit": 1000},
                token=token,
            )
            total = sum(row[-1] for row in answer.get("rows", ()))
            checks.expect(
                "live_rows_after_writes",
                view.get("fact_rows_kept") == rows,
                f"session {session}: kept {view.get('fact_rows_kept')} != {rows}",
            )
            checks.expect(
                "live_units_after_writes",
                status == 200 and total == units,
                f"session {session}: units {total} != {units}",
            )


WORKLOADS = {cls.name: cls for cls in (PoolReplay, ChurnAsOf)}
