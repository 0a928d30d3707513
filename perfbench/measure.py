"""The measured process: set up the program, time one workload's
operations, and write what the checker and the reporter need.

Run by ``perfbench/run.py`` in a fresh interpreter with the program's
``src`` directory on ``PYTHONPATH``, so every set-up and every timed
phase starts with empty program memos and executes its operations in a
fixed order. With ``--setup-only`` the process sets the program up once,
writes the set-up time and ends; ``run.py`` starts such processes for
the extra set-ups behind ``setup_s``, so no two set-ups share a heap or
a memo. The program is driven only through its public API and measured
as shipped: the collector is left alone and no switch of the program is
touched.

Every workload runs whole rounds of a fixed list of operations until
``--seconds`` of wall-clock time have passed, so each run sees the same
mix of operation classes. With ``--trace 1`` the tracer's wrappers and
the program's own ``repro.obs.metrics`` registry are on during the timed
phase.

Clock. Every workload runs the program in this one process and one
thread, with one worker (so no fork pool), and no operation waits on
another process or on a device; set-up and operations are therefore
timed by the process's CPU time (``time.process_time``).
On an idle host that equals the wall-clock time; on a shared host it
leaves out the time the hypervisor gives this machine's processors to
others. The length of a run is wall-clock time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import pickle
import resource
import statistics
import time
from pathlib import Path

from tracer import Tracer

from repro import (
    CostModel,
    CostWeights,
    RDFSchema,
    ReformulationAwareStatistics,
    SearchBudget,
    TransitionEnumerator,
    TripleStore,
    ViewSelector,
    parse_ntriples,
)
from repro.obs import metrics
from repro.selection.maintenance import MaterializedViewSet
from repro.selection.search import SearchCore

# Modules whose functions the tracer wraps; operations call through them
# so traced runs see the wrappers. (``import a.b as m`` would resolve
# ``repro.reformulation.reformulate`` to the function of that name.)
mqo_module = importlib.import_module("repro.engine.mqo")
evaluation_module = importlib.import_module("repro.query.evaluation")
parser_module = importlib.import_module("repro.query.parser")
reformulation_module = importlib.import_module("repro.reformulation.reformulate")
maintenance_module = importlib.import_module("repro.selection.maintenance")
recommender_module = importlib.import_module("repro.selection.recommender")
store_module = importlib.import_module("repro.rdf.store")

#: Recommendation settings of ``select`` and ``maintain``: a fixed
#: created-states budget (never a time limit) and the program's default
#: weights, those of the paper's Section 6 experiments.
STATE_BUDGET = 300
WEIGHTS = CostWeights()


def _clock() -> float:
    """Wall-clock time: the length of a run."""
    return time.perf_counter()


def _cpu_clock() -> float:
    """CPU time of this process: what is measured."""
    return time.process_time()


def load_catalog(inputs: Path) -> tuple[TripleStore, RDFSchema]:
    schema = RDFSchema.from_triples(
        parse_ntriples((inputs / "schema.nt").read_text())
    )
    store = TripleStore()
    store.add_all(parse_ntriples((inputs / "data.nt").read_text()))
    return store, schema


def answer_digest(answers) -> str:
    """An answer set in a process-independent form: the digest of its
    sorted rows, each row the N3 texts of its terms."""
    rows = sorted([term.n3() for term in row] for row in answers)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_rounds(workload: "Workload", seconds: float) -> list[float]:
    """Whole rounds of ``workload.operation`` until ``seconds`` of wall
    time passed and at least ``workload.min_operations`` ran (or the
    stream ends); returns the CPU time of each operation. What an
    operation returns is handed to ``workload.keep`` outside its
    timing."""
    latencies = []
    started = _clock()
    index = 0
    while index + workload.round_length <= workload.total():
        for _ in range(workload.round_length):
            begin = _cpu_clock()
            result = workload.operation(index)
            latencies.append(_cpu_clock() - begin)
            workload.keep(index, result)
            index += 1
        if _clock() - started >= seconds and index >= workload.min_operations:
            break
    return latencies


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    round_length = 1
    #: Fewest operations of a timed phase, whatever ``--seconds`` says.
    #: Each workload sets it above what ``run_seconds`` (12) allows on a
    #: 2-core machine, so that every run makes the same operations; the
    #: run ends at ``--seconds`` only on a machine, or a program, fast
    #: enough to make these sooner.
    min_operations = 1

    def __init__(self, inputs: Path) -> None:
        self.inputs = inputs
        self.stream = json.loads((inputs / "stream.json").read_text())
        #: Operations whose output an in-process check rejected.
        self.wrong = 0
        self.extra: dict = {}

    def setup(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def total(self) -> int:
        raise NotImplementedError

    def operation(self, index: int):
        raise NotImplementedError

    def keep(self, index: int, result) -> None:
        """Record what the checker needs of an operation's result."""

    def finish(self) -> dict:
        """Outputs for the checker (computed after the timed phase)."""
        return {}


class Select(Workload):
    """One post-reformulation recommendation per operation."""

    round_length = 6
    min_operations = 12

    def setup(self) -> None:
        self.store, self.schema = load_catalog(self.inputs)
        self.parsed = [
            [parser_module.parse_query(text) for text in op["queries"]]
            for op in self.stream
        ]
        self.recommendations = []

    def total(self) -> int:
        return len(self.stream)

    def operation(self, index: int):
        selector = ViewSelector(
            self.store,
            self.schema,
            weights=WEIGHTS,
            strategy=self.stream[index]["strategy"],
            entailment="post_reformulation",
            budget=SearchBudget(max_states=STATE_BUDGET),
        )
        return selector.recommend(self.parsed[index])

    def keep(self, index: int, result) -> None:
        self.recommendations.append(result)

    def finish(self) -> dict:
        outputs = []
        reductions = []
        for index, recommendation in enumerate(self.recommendations):
            result = recommendation.result
            reductions.append(result.rcr)
            if not result.best_cost <= result.initial_cost:
                self.wrong += 1
                continue
            extents = recommendation.materialize()
            for query in self.parsed[index]:
                outputs.append({
                    "op": index,
                    "query": str(query),
                    "digest": answer_digest(recommendation.answer(query.name, extents)),
                })
        self.extra["cost_reduction"] = statistics.fmean(reductions)
        return {"answers": outputs}


class Answer(Workload):
    """One ad-hoc query answered under RDFS by reformulation."""

    round_length = 8
    min_operations = 1200

    def setup(self) -> None:
        self.store, self.schema = load_catalog(self.inputs)
        self.texts = [query["text"] for query in self.stream["queries"]]
        # Digests, not answer sets, so that peak memory does not grow
        # with the number of operations a run makes.
        self.digests = []
        self.disjuncts = 0
        self.rows = 0

    def total(self) -> int:
        return len(self.texts)

    def operation(self, index: int):
        query = parser_module.parse_query(self.texts[index])
        union = reformulation_module.reformulate(query, self.schema)
        self.disjuncts += len(union.disjuncts)
        return evaluation_module.evaluate_union(union, self.store)

    def keep(self, index: int, result) -> None:
        self.digests.append(answer_digest(result))
        self.rows += len(result)

    def finish(self) -> dict:
        return {"answers": [
            {"op": index, "query": self.texts[index], "digest": digest}
            for index, digest in enumerate(self.digests)
        ]}


class Maintain(Workload):
    """One single-triple update through maintained views, then one
    workload query answered from them."""

    round_length = 12  # six delete-insert pairs; each query three times
    min_operations = 1440

    def setup(self) -> None:
        self.store, self.schema = load_catalog(self.inputs)
        self.queries = [
            parser_module.parse_query(text) for text in self.stream["queries"]
        ]
        selector = ViewSelector(
            self.store,
            self.schema,
            weights=WEIGHTS,
            strategy="dfs",
            entailment="post_reformulation",
            budget=SearchBudget(max_states=STATE_BUDGET),
        )
        self.recommendation = selector.recommend(self.queries)
        self.views = MaterializedViewSet(
            self.recommendation.state, self.store, self.schema
        )
        self.updates = [
            (kind, next(parse_ntriples(line)))
            for kind, line in self.stream["updates"]
        ]
        self.applied = 0

    def total(self) -> int:
        return len(self.updates)

    def operation(self, index: int) -> None:
        kind, triple = self.updates[index]
        if kind == "insert":
            self.views.insert(triple)
        else:
            self.views.remove(triple)
        self.views.answer(self.queries[index % len(self.queries)].name)
        self.applied = index + 1

    def finish(self) -> dict:
        self.extra["cost_reduction"] = self.recommendation.result.rcr
        return {
            "applied": self.applied,
            "views": pickle.dumps(list(self.recommendation.views)).hex(),
            "extents": {
                view.name: answer_digest(self.views.extent(view.name))
                for view in self.recommendation.views
            },
            "answers": [
                {"query": str(query), "digest": answer_digest(self.views.answer(query.name))}
                for query in self.queries
            ],
        }


WORKLOADS = {"select": Select, "answer": Answer, "maintain": Maintain}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


def install_tracer() -> Tracer:
    tracer = Tracer()
    wraps = [
        (recommender_module, "run_search", "selection.search"),
        (TransitionEnumerator, "transitions", "selection.enumerate"),
        (CostModel, "cost", "selection.price"),
        (CostModel, "transition_cost", "selection.price"),
        (SearchCore, "consider", "selection.consider"),
        (ReformulationAwareStatistics, "atom_count", "stats.atom_count"),
        (parser_module, "parse_query", "query.parse"),
        (reformulation_module, "reformulate", "reformulation.reformulate"),
        (mqo_module, "plan_batch", "engine.union_plan"),
        (evaluation_module, "evaluate_union", "engine.union_execute"),
        (store_module.TripleStore, "add", "rdf.store_write"),
        (store_module.TripleStore, "remove", "rdf.store_write"),
        (maintenance_module, "evaluate", "selection.maintenance.delta"),
        (maintenance_module, "answer_query", "selection.view_read"),
    ]
    for owner, attribute, name in wraps:
        tracer.wrap(owner, attribute, name)
    # Count atom_count calls that had to evaluate (missed the memo):
    # exactly those that reformulate their atom.
    original = ReformulationAwareStatistics.atom_count

    def counted(self, atom):
        before = tracer.calls.get("reformulation.reformulate", 0)
        try:
            return original(self, atom)
        finally:
            if tracer.calls.get("reformulation.reformulate", 0) > before:
                tracer.calls["stats.atom_count.evaluated"] = (
                    tracer.calls.get("stats.atom_count.evaluated", 0) + 1
                )

    ReformulationAwareStatistics.atom_count = counted
    tracer._patches.append((ReformulationAwareStatistics, "atom_count", original))
    metrics.reset()
    metrics.enable()
    tracer.watch_gc()
    return tracer


def layer_metrics(tracer: Tracer, workload: Workload, ops: int) -> dict:
    """Per-layer figures, each per operation of the timed phase."""
    per_op = 1.0 / ops
    seconds = tracer.self_time
    calls = tracer.calls
    counters = metrics.snapshot()["counters"]
    hits = counters.get("engine.plan_cache.hit", 0)
    misses = counters.get("engine.plan_cache.miss", 0)
    return {
        "selection.search_s": seconds.get("selection.search", 0.0) * per_op,
        "selection.states_created": counters.get("selection.search.created", 0) * per_op,
        "selection.enumerate_s": seconds.get("selection.enumerate", 0.0) * per_op,
        "selection.price_s": seconds.get("selection.price", 0.0) * per_op,
        "selection.consider_s": seconds.get("selection.consider", 0.0) * per_op,
        "selection.cost_reduction": workload.extra.get("cost_reduction", 0.0),
        "stats.atom_count_s": seconds.get("stats.atom_count", 0.0) * per_op,
        "stats.atom_count.calls": calls.get("stats.atom_count", 0) * per_op,
        "stats.atom_count.evaluated": calls.get("stats.atom_count.evaluated", 0) * per_op,
        "query.parse_s": seconds.get("query.parse", 0.0) * per_op,
        "reformulation.reformulate_s": seconds.get("reformulation.reformulate", 0.0) * per_op,
        "reformulation.disjuncts": getattr(workload, "disjuncts", 0) * per_op,
        "engine.union_plan_s": seconds.get("engine.union_plan", 0.0) * per_op,
        "engine.union_execute_s": seconds.get("engine.union_execute", 0.0) * per_op,
        "engine.answer_rows": getattr(workload, "rows", 0) * per_op,
        "engine.plan_cache.hit": hits * per_op,
        "engine.plan_cache.miss": misses * per_op,
        "engine.plan_cache.flush": counters.get("engine.plan_cache.flush", 0) * per_op,
        "engine.plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mqo.shared_nodes.materialized": counters.get("mqo.shared_nodes.materialized", 0) * per_op,
        "rdf.store_write_s": seconds.get("rdf.store_write", 0.0) * per_op,
        "selection.maintenance.delta_s": seconds.get("selection.maintenance.delta", 0.0) * per_op,
        "selection.maintenance.delta_queries": calls.get("selection.maintenance.delta", 0) * per_op,
        "selection.view_read_s": seconds.get("selection.view_read", 0.0) * per_op,
        "engine.route.interpreted": counters.get("engine.route.interpreted", 0) * per_op,
        "runtime.gc_s": tracer.gc_seconds * per_op,
        "runtime.gc_collections": tracer.gc_collections * per_op,
    }


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.inputs)
    begin = _cpu_clock()
    workload.setup()
    setup_s = _cpu_clock() - begin
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
    else:
        measure(workload, args, setup_s)


def measure(workload: Workload, args, setup_s: float) -> None:
    gc.collect()

    tracer = install_tracer() if args.trace else None
    try:
        latencies = run_rounds(workload, args.seconds)
    finally:
        if tracer:
            tracer.restore()
            tracer.unwatch_gc()
            metrics.disable()
    # Peak memory of the set-up and timed phases, before the outputs are
    # gathered for the checker.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check = workload.finish()
    result = {
        "ops": len(latencies),
        "busy_s": sum(latencies),
        "latencies_ms": [latency * 1e3 for latency in latencies],
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "wrong": workload.wrong,
        "extra": workload.extra,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, workload, len(latencies))
        tracer.write(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(result))
    args.out.with_suffix(".check.json").write_text(json.dumps(check))


if __name__ == "__main__":
    main()
