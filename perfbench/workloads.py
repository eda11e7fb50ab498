"""The four benchmark workloads: seeded inputs, measured loops, answer checks.

Every workload has the same shape:

* ``prepare(seed, smoke, corrupt)`` imports what it needs and builds its
  inputs from the seed (this is the timed set-up);
* ``run_phase(seconds)`` measures whole passes (scans, query lists) or a
  timed closed loop (service) and returns a :class:`Phase`;
  scan-deep runs exactly one pass and query-engine times each pass as one
  batch operation;
* ``close()`` releases what ``prepare`` started.

The seed changes names and attribute order (scans, service), the request
stream (service) and instance contents (query engine) — never the shape of
the work.  Expected answers never come from the code under test: for the
scans they follow from how the universe is built (a cell's two schemas come
from the same class iff a witness must exist), for the service from the
checked-in ``answers.json``, for the query engine from closed forms or a
small counter below.  ``corrupt=True`` flips one expected answer, so the
benchmark's own tests can show that a wrong answer fails the run.
"""

from __future__ import annotations

import gc
import json
import random
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ANSWERS = Path(__file__).resolve().parent / "answers.json"
CLIENT = Path(__file__).resolve().parent / "client.py"


class Phase(NamedTuple):
    """One measured phase: per-operation latencies plus counts."""

    latencies: List[float]  # seconds per timed operation (per pass where batched)
    busy: float  # seconds of timed operation time
    timed: int  # operations inside ``busy``: ops_per_s is timed / busy
    attempted: int
    failed: int
    decided: int
    extra: dict  # workload-specific samples (hit/miss split, query shapes)


def _fresh_memo() -> None:
    """Empty the program's memo caches and collect garbage (never timed)."""
    from repro.utils import memo

    memo.clear_all()
    gc.collect()


def _whole_passes(seconds: float, run_pass) -> List[float]:
    """Run passes until another one would overrun ``seconds`` (at least one)."""
    durations: List[float] = []
    start = time.perf_counter()
    while not durations or (time.perf_counter() - start) + durations[-1] <= seconds:
        durations.append(run_pass())
    return durations


# ------------------------------------------------------------------- scans


def keyed_universe(seed: int, types, max_arity: int, copies: int,
                   originals: bool) -> Tuple[list, List[int]]:
    """Schemas of every class of ``enumerate_keyed_schemas(types, 1, max_arity)``.

    Each class contributes its canonical schema (when ``originals``) and
    ``copies`` seed-derived shuffled copies; the returned labels give each
    schema's class index, which is the known answer: two schemas are
    equivalent iff their labels match.
    """
    from repro.workloads.schema_gen import enumerate_keyed_schemas, shuffled_copy

    rng = random.Random(seed)
    schemas, labels = [], []
    for label, schema in enumerate(enumerate_keyed_schemas(types, 1, max_arity)):
        if originals:
            schemas.append(schema)
            labels.append(label)
        for _ in range(copies):
            schemas.append(shuffled_copy(schema, rng.randrange(1 << 30)))
            labels.append(label)
    return schemas, labels


def _row_wrong(row, labels: List[int]) -> bool:
    same = labels[row.index1] == labels[row.index2]
    return row.equivalence_found != same or row.isomorphic != same


class ScanWide:
    """``theorem13_scan`` over 9 classes × (original + 3 copies): 666 cells."""

    name = "scan-wide"
    tail_percentile = 98.0
    attributed_floor = 0.9

    def prepare(self, seed: int, smoke: bool, corrupt: bool) -> None:
        from repro.core import search

        self._scan = search.theorem13_scan
        types, copies = (["T"], 1) if smoke else (["T", "U"], 3)
        self.schemas, self.labels = keyed_universe(seed, types, 2, copies, True)
        if corrupt:
            self.labels[-1] = self.labels[0]

    def run_phase(self, seconds: float) -> Phase:
        latencies: List[float] = []
        counts = [0, 0, 0]  # attempted, failed, decided

        def one_pass() -> float:
            _fresh_memo()
            stamps: List[float] = []
            start = time.perf_counter()
            rows = self._scan(
                self.schemas,
                on_progress=lambda done, total, proc: stamps.append(
                    time.perf_counter()
                ),
            )
            elapsed = time.perf_counter() - start
            latencies.extend(b - a for a, b in zip(stamps, stamps[1:]))
            for row in rows:
                counts[0] += 1
                if row.verdict == "ok":
                    counts[2] += 1
                    counts[1] += _row_wrong(row, self.labels)
            return elapsed

        busy = sum(_whole_passes(seconds, one_pass))
        return Phase(latencies, busy, counts[0], counts[0], counts[1], counts[2], {})

    def close(self) -> None:
        pass


class ScanDeep:
    """Every cell of ``enumerate_keyed_schemas(["T"], 1, 3)`` under a deadline."""

    name = "scan-deep"
    tail_percentile = 75.0
    attributed_floor = 0.9
    # The slowest grid cell, (2, 4), takes 2.3-3.4 s on a 2-vCPU machine
    # and (1, 5) about 11 s; 6 s leaves each side a factor of about 1.8.
    cell_budget = 6.0
    # Cells (by class index) that run into the deadline at the commit that
    # added this benchmark: (1, 5) decides in about 11 s, the others take
    # more than 60 s.  Each costs exactly the budget, which says nothing
    # about the layers, so they count in ``decided_ratio`` but not in time.
    deadline_cells = frozenset({(1, 5), (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (5, 5)})

    def prepare(self, seed: int, smoke: bool, corrupt: bool) -> None:
        from repro.core import search

        self._scan = search.theorem13_scan
        max_arity = 2 if smoke else 3
        self.schemas, self.labels = keyed_universe(seed, ["T"], max_arity, 1, False)
        if smoke:
            self.cell_budget = 2.0
        if corrupt:
            self.labels[-1] = self.labels[0]
        n = len(self.schemas)
        self.cells = [(i, j) for i in range(n) for j in range(i, n)]

    def run_phase(self, seconds: float) -> Phase:
        """One pass over the 21 cells; only the 14 grid cells are timed.

        A phase is always exactly one pass, so ``decided_ratio`` is over the
        same 21 cells every run.  The grid cells are timed as one batch:
        the seed's attribute orders move single cells by tens of percent
        (over five seeds the per-cell median spread by 0.27 and the slowest
        cell by 0.20), while their sum spread by 0.08.
        ``extra["untimed_s"]`` holds the deadline cells' time, which only
        the traced run's attribution share needs.
        """
        _fresh_memo()
        grid = untimed = 0.0
        counts = [0, 0, 0, 0]  # attempted, failed, decided, timed
        for cell in self.cells:
            began = time.perf_counter()
            (row,) = self._scan(self.schemas, cells=[cell], deadline=self.cell_budget)
            elapsed = time.perf_counter() - began
            if cell in self.deadline_cells:
                untimed += elapsed
            else:
                grid += elapsed
                counts[3] += 1
            counts[0] += 1
            if row.verdict == "ok":
                counts[2] += 1
                counts[1] += _row_wrong(row, self.labels)
        return Phase([grid], grid, counts[3], counts[0], counts[1], counts[2],
                     {"untimed_s": untimed})

    def close(self) -> None:
        pass


# ----------------------------------------------------------------- service


def _signature(schema) -> Tuple[str, ...]:
    return tuple(sorted(a.type_name for r in schema for a in r.attributes))


class ServeMixed:
    """Closed-loop HTTP clients against an in-process ``ServiceThread``.

    Eight connections keep the server busy: with two, the server idled
    between requests and the run-to-run spread of throughput on a 2-vCPU
    machine was about 20 %; saturated, it was about 10 %.

    The traffic mix is an assumption; no trace of real requests to this
    service exists.  Popularity is Zipf-like, as Breslau et al. measured
    for web proxy requests ("Web Caching and Zipf-like Distributions:
    Evidence and Implications", INFOCOM 1999, exponents 0.64 to 0.83), with
    an exponent inside their range.  Nine in ten questions ask for
    dominance, the search the service exists for.  The streams are longer
    than a run consumes, so no client repeats its own sequence.
    """

    name = "serve-mixed"
    tail_percentile = 95.0
    attributed_floor = 0.0
    clients = 8
    copies = 1
    zipf_exponent = 0.8
    equivalence_share = 0.1
    stream_length = 20_000

    def prepare(self, seed: int, smoke: bool, corrupt: bool) -> None:
        from repro.engine import EngineConfig
        from repro.service.server import ServiceConfig, ServiceThread

        self._thread_class = ServiceThread
        self._configs = (EngineConfig(request_workers=2), ServiceConfig(port=0))
        self.questions, self.streams = self.question_streams(seed, smoke, corrupt)
        self.service = self._thread_class(*self._configs).start()
        self._fresh = True

    def question_streams(self, seed: int, smoke: bool, corrupt: bool):
        """The questions ``(kind, body, expected)`` and one index stream per client.

        Questions are the ordered pairs of universe schemas with equal type
        signatures, each asked as dominance and as equivalence.
        Popularity follows a Zipf law over pairs with fixed ranks, so every
        seed asks the same mix of cheap and costly questions; the seed
        changes the schemas' names and the draws.
        """
        from repro.relational.catalog import format_schema

        copies = 0 if smoke else self.copies
        schemas, labels = keyed_universe(seed, ["T", "U"], 2, copies, True)
        answers = json.loads(ANSWERS.read_text())
        classes = [repr(s) for s in schemas if s.relations[0].name == "R0"]
        if classes != answers["classes"]:
            raise RuntimeError("answers.json does not describe this class list")
        table = answers["dominance"]
        texts = [format_schema(s) for s in schemas]
        pairs = [
            (a, b)
            for a in range(len(schemas))
            for b in range(len(schemas))
            if _signature(schemas[a]) == _signature(schemas[b])
        ]
        random.Random(0).shuffle(pairs)
        if corrupt:
            a, b = pairs[0]  # the most popular question's class pair
            table = [list(row) for row in table]
            table[labels[a]][labels[b]] = not table[labels[a]][labels[b]]
        share = {"dominance": 1.0 - self.equivalence_share,
                 "equivalence": self.equivalence_share}
        questions, weights = [], []
        for rank, (a, b) in enumerate(pairs):
            body = json.dumps({"schema1": texts[a], "schema2": texts[b]})
            for kind, expected in (
                ("dominance", table[labels[a]][labels[b]]),
                ("equivalence", labels[a] == labels[b]),
            ):
                questions.append((kind, body, expected))
                weights.append(share[kind] / (rank + 1) ** self.zipf_exponent)
        rng = random.Random(seed)
        streams = [
            rng.choices(range(len(questions)), weights=weights, k=self.stream_length)
            for _ in range(self.clients)
        ]
        return questions, streams

    def _restart(self) -> None:
        """A fresh server (cold result cache) with cold memo caches."""
        if self.service is not None:
            self.service.stop()
        _fresh_memo()
        self.service = self._thread_class(*self._configs).start()

    def run_phase(self, seconds: float) -> Phase:
        if not self._fresh:
            self._restart()
        self._fresh = False
        spec = {"port": self.service.port, "seconds": seconds,
                "questions": self.questions, "streams": self.streams}
        done = subprocess.run(
            [sys.executable, str(CLIENT)], input=json.dumps(spec),
            capture_output=True, text=True, timeout=seconds + 60, check=True,
        )
        report = json.loads(done.stdout)
        samples = sorted(report["samples"])
        # A request is a repeat when some client already had the answer to
        # the same question before sending it.
        first_answer: Dict[int, float] = {}
        for sent, answered, qid, _, _ in samples:
            first_answer[qid] = min(answered, first_answer.get(qid, answered))
        repeat = [first_answer[s[2]] < s[0] for s in samples]
        latencies = [s[1] - s[0] for s in samples]
        return Phase(
            latencies,
            report["elapsed"],
            len(samples),
            len(samples),
            sum(1 for s in samples if not s[3]),
            sum(1 for s in samples if s[4]),
            {
                "hit": [t for t, r in zip(latencies, repeat) if r],
                "miss": [t for t, r in zip(latencies, repeat) if not r],
            },
        )

    def close(self) -> None:
        if getattr(self, "service", None) is not None:
            self.service.stop()
            self.service = None


# ------------------------------------------------------------ query engine
#
# These input constructors import the program lazily, so that the import
# cost lands in the timed set-up.  None of them uses the code under test to
# compute an expected answer.


class _Op(NamedTuple):
    shape: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _evaluate_op(shape: str, query, instance, expected_rows: int) -> _Op:
    from repro.cq import evaluation

    return _Op(shape, lambda: evaluation.evaluate(query, instance),
               lambda result: len(result) == expected_rows)


def _distinct(rng, count: int) -> List[int]:
    return rng.sample(range(1 << 30), count)


def _edge_schema():
    from repro.relational.attribute import Attribute
    from repro.relational.schema import DatabaseSchema, RelationSchema

    return DatabaseSchema((RelationSchema(
        "E", (Attribute("src", "Node"), Attribute("dst", "Node")), None),))


def _edges(rows):
    from repro.relational.domain import Value
    from repro.relational.instance import DatabaseInstance

    return DatabaseInstance.from_rows(
        _edge_schema(), {"E": [(Value("Node", a), Value("Node", b)) for a, b in rows]}
    )


def _chain_query(length: int, tag: str):
    from repro.cq.syntax import Atom, ConjunctiveQuery, Variable

    xs = [Variable(f"{tag}x{i}") for i in range(length + 1)]
    body = [Atom("E", (xs[i], xs[i + 1])) for i in range(length)]
    return ConjunctiveQuery(Atom("Q", (xs[0], xs[length])), body)


def _star_op(rng, fact_rows: int, tag: str) -> _Op:
    from repro.cq.syntax import Atom, ConjunctiveQuery, Variable
    from repro.relational.attribute import Attribute
    from repro.relational.domain import Value
    from repro.relational.instance import DatabaseInstance
    from repro.relational.schema import DatabaseSchema, RelationSchema

    dims, dim_rows = 3, 32
    fact = RelationSchema("fact", tuple(
        [Attribute("id", "FactId")]
        + [Attribute(f"d{i}", f"Dim{i}") for i in range(dims)]), ["id"])
    schema = DatabaseSchema([fact] + [
        RelationSchema(f"dim{i}", (Attribute("id", f"Dim{i}"),
                                   Attribute("payload", "Payload")), ["id"])
        for i in range(dims)
    ])
    base = rng.randrange(1 << 30)
    keys = [rng.sample(range(1 << 20), dim_rows) for _ in range(dims)]
    rows = {"fact": [
        tuple([Value("FactId", base + r)]
              + [Value(f"Dim{i}", rng.choice(keys[i])) for i in range(dims)])
        for r in range(fact_rows)
    ]}
    for i in range(dims):
        rows[f"dim{i}"] = [(Value(f"Dim{i}", k), Value("Payload", rng.randrange(1 << 20)))
                           for k in keys[i]]
    v = {name: Variable(f"{tag}{name}") for name in
         ("F", "D0", "D1", "D2", "K0", "K1", "K2", "P0", "P1", "P2")}
    query = ConjunctiveQuery(
        Atom("Q", (v["F"], v["P0"], v["P1"], v["P2"])),
        [Atom("fact", (v["F"], v["D0"], v["D1"], v["D2"]))]
        + [Atom(f"dim{i}", (v[f"K{i}"], v[f"P{i}"])) for i in range(dims)],
        [(v[f"D{i}"], v[f"K{i}"]) for i in range(dims)],
    )
    # Every fact row joins exactly one row of each dimension.
    return _evaluate_op("star", query, DatabaseInstance.from_rows(schema, rows),
                        fact_rows)


def _chain_dangling_op(rng, dangling: int, tag: str) -> _Op:
    path = 64
    labels = _distinct(rng, path + 1 + 2 * dangling)
    rest = labels[path + 1:]
    rows = [(labels[i], labels[i + 1]) for i in range(path)]
    rows += [(rest[2 * i], rest[2 * i + 1]) for i in range(dangling)]
    rng.shuffle(rows)
    # A 64-edge path has 61 length-4 chains; dangling edges extend none.
    return _evaluate_op("chain_dangling", _chain_query(4, tag), _edges(rows), path - 3)


def _bowtie_op(rng, spokes: int, tag: str) -> _Op:
    labels = _distinct(rng, 1 + 2 * spokes)
    hub, ins, outs = labels[0], labels[1:spokes + 1], labels[spokes + 1:]
    rows = [(u, hub) for u in ins] + [(hub, w) for w in outs]
    rng.shuffle(rows)
    # Every 2-chain ends at an out-spoke, which has no successor.
    return _evaluate_op("bowtie", _chain_query(3, tag), _edges(rows), 0)


def _triangle_op(rng, nodes: int, edges: int, tag: str) -> _Op:
    from repro.cq.syntax import Atom, ConjunctiveQuery, Variable

    rows = {(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(edges)}
    successors = defaultdict(set)
    for a, b in rows:
        successors[a].add(b)
    on_triangle = {a for a, b in rows for c in successors[b] if a in successors[c]}
    x, y, z, y2, z2, x2 = (Variable(f"{tag}{n}") for n in ("X", "Y", "Z", "Y2", "Z2", "X2"))
    query = ConjunctiveQuery(
        Atom("Q", (x,)),
        [Atom("E", (x, y)), Atom("E", (y2, z)), Atom("E", (z2, x2))],
        [(y, y2), (z, z2), (x, x2)],
    )
    return _evaluate_op("triangle", query, _edges(sorted(rows)), len(on_triangle))


def _chase_op(rng, groups: int, per_group: int, tag: str) -> _Op:
    import importlib

    from repro.cq.canonical import null_value
    from repro.relational.attribute import Attribute
    from repro.relational.domain import Value
    from repro.relational.instance import DatabaseInstance
    from repro.relational.schema import DatabaseSchema, RelationSchema

    # ``repro.cq`` re-exports the function ``chase`` under the module's name.
    chase = importlib.import_module("repro.cq.chase")
    schema = DatabaseSchema((RelationSchema(
        "R", (Attribute("k", "K"), Attribute("a", "A"), Attribute("b", "B")), ["k"]),))
    rows = [
        (Value("K", key), null_value("A", f"{tag}a{g}_{i}"),
         null_value("B", f"{tag}b{g}_{i}"))
        for g, key in enumerate(_distinct(rng, groups)) for i in range(per_group)
    ]
    rng.shuffle(rows)
    instance = DatabaseInstance.from_rows(schema, {"R": rows})
    egds = chase.egds_of_schema(schema)
    # The key EGD merges each group's rows into one.
    return _Op("chase", lambda: chase.chase(instance, egds=egds),
               lambda result: len(result.instance.relation("R")) == groups)


def _containment_ops(tag: str) -> List[_Op]:
    from repro.cq import homomorphism
    from repro.cq.syntax import Atom, ConjunctiveQuery, Variable

    schema = _edge_schema()
    shorter, longer = _chain_query(8, tag + "s"), _chain_query(9, tag + "l")
    xs = [Variable(f"{tag}c{i}") for i in range(12)]
    cycle = ConjunctiveQuery(Atom("Q", (xs[0],)),
                             [Atom("E", (xs[i], xs[(i + 1) % 12])) for i in range(12)])
    lx, ly = Variable(f"{tag}LX"), Variable(f"{tag}LY")
    loop = ConjunctiveQuery(Atom("Q", (lx,)), [Atom("E", (lx, ly))], [(lx, ly)])

    def star(rays: int, prefix: str):
        centre = Variable(f"{prefix}C")
        return ConjunctiveQuery(Atom("Q", (centre,)), [
            Atom("E", (centre, Variable(f"{prefix}R{i}"))) for i in range(rays)])

    big, small = star(8, tag + "b"), star(3, tag + "m")
    contained = homomorphism.is_contained_in
    return [
        # chain(8) and chain(9) are incomparable.
        _Op("containment", lambda: (contained(shorter, longer, schema),
                                    contained(longer, shorter, schema)),
            lambda result: result == (False, False)),
        # A self-loop satisfies every cycle pattern.
        _Op("containment", lambda: contained(loop, cycle, schema),
            lambda result: result is True),
        # More rays from the exported centre imply fewer.
        _Op("containment", lambda: contained(big, small, schema),
            lambda result: result is True),
    ]


class QueryEngine:
    """Evaluation, chase and containment at scale on fresh seeded inputs."""

    name = "query-engine"
    tail_percentile = 75.0
    attributed_floor = 0.0

    def prepare(self, seed: int, smoke: bool, corrupt: bool) -> None:
        self.seed, self.smoke, self.corrupt = seed, smoke, corrupt
        self.passes = 0
        self._next_pass: Optional[List[_Op]] = self._build_pass()

    def _build_pass(self) -> List[_Op]:
        """Fresh seeded instances and freshly named queries for one pass."""
        rng = random.Random(f"{self.seed}:{self.passes}")
        tag = f"p{self.passes}_"
        scale = 10 if self.smoke else 1
        ops = [
            _star_op(rng, 10_000 // scale, tag + "s1"),
            _star_op(rng, 20_000 // scale, tag + "s2"),
            _chain_dangling_op(rng, 2_000 // scale, tag + "c1"),
            _chain_dangling_op(rng, 10_000 // scale, tag + "c2"),
            _bowtie_op(rng, 200, tag + "b1"),
            _bowtie_op(rng, 400, tag + "b2"),
            _triangle_op(rng, 80, 500, tag + "t1"),
            _triangle_op(rng, 80, 5_000 // scale, tag + "t2"),
            _chase_op(rng, 256, 4, tag + "h1"),
            _chase_op(rng, 16, 32, tag + "h2"),
        ] + _containment_ops(tag + "q")
        if self.corrupt:
            ops[0] = ops[0]._replace(check=lambda result: False)
        self.passes += 1
        return ops

    def run_phase(self, seconds: float) -> Phase:
        """One operation per pass: the whole list, timed as a batch.

        The list mixes sub-millisecond containments with second-long joins,
        so per-query percentiles would fall between query kinds and jump
        from run to run; the batch time is steady.  Per-shape times go to
        ``extra`` as per-pass sums.
        """
        latencies: List[float] = []
        counts = [0, 0]
        by_shape: Dict[str, List[float]] = defaultdict(list)

        def one_pass() -> float:
            start = time.perf_counter()
            ops, self._next_pass = self._next_pass, None
            if ops is None:
                ops = self._build_pass()
            spent = 0.0
            shapes: Dict[str, float] = defaultdict(float)
            for op in ops:
                began = time.perf_counter()
                try:
                    result = op.run()
                    ok = op.check(result)
                except Exception:  # a crash is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                elapsed = time.perf_counter() - began
                result = None
                _fresh_memo()  # no memo may answer a later operation
                spent += elapsed
                shapes[op.shape] += elapsed
                counts[0] += 1
                counts[1] += not ok
            latencies.append(spent)
            for shape, elapsed in shapes.items():
                by_shape[shape].append(elapsed)
            return time.perf_counter() - start

        _whole_passes(seconds, one_pass)
        return Phase(latencies, sum(latencies), counts[0], counts[0], counts[1],
                     counts[0] - counts[1], {"shapes": dict(by_shape)})

    def close(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (ScanWide, ScanDeep, ServeMixed, QueryEngine)}
