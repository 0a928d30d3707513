"""Seeded input generator of the benchmark (standard library only).

Everything the benchmark feeds the program is made here, from the
``--seed`` argument, as plain text: the catalog (an RDF Schema and
instance data in N-Triples) and one operation stream per workload
(datalog query texts and N-Triples update lines). The
module never imports ``repro``, so the program's own generators
(``repro.datagen``, ``repro.workload``) can change without changing
what the benchmark measures, and no program memo is warm when a
measured process starts.

Determinism: every random choice comes from ``random.Random`` seeded
with an integer, and every collection iterated while choosing is a
list or an insertion-ordered dict, never a set. The output is
therefore byte-identical under any ``PYTHONHASHSEED``
(``perfbench/check_determinism.py`` checks it).

The catalog is Barton-shaped (Section 6.5 of the paper): 39 classes,
61 properties and 106 RDFS statements (38 subclass, 15 subproperty,
30 domain, 23 range), about 40k explicit triples over 6000 entities,
property usage Zipf-skewed. The schema is generated from a fixed
schema seed, so query classes have the same reformulation profile in
every run. What else comes from ``--seed`` differs per workload (see
:data:`FIXED_CATALOG`).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

NS = "http://bench.example.org/catalog#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"

NUM_CLASSES = 39
NUM_PROPERTIES = 61
SUBPROPERTY_STATEMENTS = 15
DOMAIN_STATEMENTS = 30
RANGE_STATEMENTS = 23
NUM_ENTITIES = 6_000
NUM_TRIPLES = 40_000
LITERAL_PROBABILITY = 0.3
ZIPF_SKEW = 1.1
SCHEMA_SEED = 7

#: Queries of ``answer`` whose estimated reformulation size (see
#: :func:`reformulation_estimate`) exceeds this are left out.
ANSWER_DISJUNCT_CAP = 100

CLASSES = [f"{NS}C{i:02d}" for i in range(NUM_CLASSES)]
PROPERTIES = [f"{NS}p{i:02d}" for i in range(NUM_PROPERTIES)]


def _zipf(rng: random.Random, items: list):
    """An item, skewed toward the front of ``items``."""
    rank = int(len(items) * (rng.random() ** (1.0 + ZIPF_SKEW)))
    return items[min(rank, len(items) - 1)]


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------


class Schema:
    """The RDFS statements plus the closures the generator needs."""

    def __init__(self) -> None:
        rng = random.Random(SCHEMA_SEED)
        self.subclass: list[tuple[str, str]] = []
        self.subproperty: list[tuple[str, str]] = []
        self.domain: list[tuple[str, str]] = []
        self.range: list[tuple[str, str]] = []
        # A shallow, broad class tree: one statement per non-root class.
        for index in range(1, NUM_CLASSES):
            parent = CLASSES[rng.randrange(max(1, (index + 1) // 3))]
            self.subclass.append((CLASSES[index], parent))
        half = NUM_PROPERTIES // 2
        while len(self.subproperty) < SUBPROPERTY_STATEMENTS:
            pair = (PROPERTIES[rng.randrange(half, NUM_PROPERTIES)],
                    PROPERTIES[rng.randrange(half)])
            if pair not in self.subproperty:
                self.subproperty.append(pair)
        for target, count in ((self.domain, DOMAIN_STATEMENTS),
                              (self.range, RANGE_STATEMENTS)):
            while len(target) < count:
                pair = (PROPERTIES[rng.randrange(NUM_PROPERTIES)],
                        CLASSES[rng.randrange(NUM_CLASSES)])
                if pair not in target:
                    target.append(pair)
        self.domains = _group(self.domain)
        self.ranges = _group(self.range)
        sub_classes = _group((sup, sub) for sub, sup in self.subclass)
        sub_props = _group((sup, sub) for sub, sup in self.subproperty)
        self.class_closure = {c: _closure(c, sub_classes) for c in CLASSES}
        self.property_closure = {p: _closure(p, sub_props) for p in PROPERTIES}
        self.ancestors = {
            c: [a for a in CLASSES if c in self.class_closure[a]]
            for c in CLASSES
        }

    def statements(self) -> list[tuple[str, str, str]]:
        return (
            [(s, RDFS + "subClassOf", o) for s, o in self.subclass]
            + [(s, RDFS + "subPropertyOf", o) for s, o in self.subproperty]
            + [(s, RDFS + "domain", o) for s, o in self.domain]
            + [(s, RDFS + "range", o) for s, o in self.range]
        )

    def type_alternatives(self, cls: str) -> int:
        """Disjuncts that can entail ``t(s, rdf:type, cls)``: the class
        and its subclasses, plus every property (with its
        subproperties) whose domain or range is one of them."""
        total = 0
        for sub in self.class_closure[cls]:
            total += 1
            for prop in PROPERTIES:
                if sub in self.domains.get(prop, ()):
                    total += len(self.property_closure[prop])
                if sub in self.ranges.get(prop, ()):
                    total += len(self.property_closure[prop])
        return total


def _group(pairs) -> dict[str, list[str]]:
    grouped: dict[str, list[str]] = {}
    for key, value in pairs:
        grouped.setdefault(key, []).append(value)
    return grouped


def _closure(start: str, children: dict[str, list[str]]) -> list[str]:
    """``start`` and everything below it, in discovery order."""
    found = [start]
    for node in found:
        for child in children.get(node, ()):
            if child not in found:
                found.append(child)
    return found


class Catalog:
    """Schema plus seeded instance data, with the indexes the query
    samplers walk."""

    def __init__(self, seed: int) -> None:
        self.schema = Schema()
        rng = random.Random(seed * 7919 + 1)
        self.types: dict[str, str] = {}
        instances: dict[str, list[str]] = {c: [] for c in CLASSES}
        entities = [f"{NS}e{i}" for i in range(NUM_ENTITIES)]
        for entity in entities:
            cls = _zipf(rng, CLASSES)
            self.types[entity] = cls
            instances[cls].append(entity)
        self.triples: dict[tuple[str, str, str], None] = {}
        self.out: dict[str, list[tuple[str, str]]] = {}

        def pick(classes: list[str]) -> str:
            candidates = [e for c in classes for e in instances[c]]
            if candidates and rng.random() < 0.9:
                return candidates[rng.randrange(len(candidates))]
            return entities[rng.randrange(len(entities))]

        target = NUM_TRIPLES - NUM_ENTITIES
        while len(self.triples) < target:
            prop = _zipf(rng, PROPERTIES)
            subject = pick(self.schema.domains.get(prop, []))
            if rng.random() < LITERAL_PROBABILITY:
                obj = f'"v{rng.randrange(NUM_ENTITIES * 2)}"'
            else:
                obj = pick(self.schema.ranges.get(prop, []))
            key = (subject, prop, obj)
            if key not in self.triples:
                self.triples[key] = None
                self.out.setdefault(subject, []).append((prop, obj))
        self.entities = entities
        self.by_property: dict[str, list[str]] = {}
        for _s, prop, obj in self.triples:
            self.by_property.setdefault(prop, []).append(obj)
        # Subjects with enough outgoing edges to anchor stars.
        self.hubs = [e for e in entities if len(self.out.get(e, ())) >= 4]

    def data_lines(self) -> list[str]:
        lines = [f"<{e}> <{RDF_TYPE}> <{c}> ." for e, c in self.types.items()]
        lines.extend(f"<{s}> <{p}> {_nt(o)} ." for s, p, o in self.triples)
        return lines

    def schema_lines(self) -> list[str]:
        return [f"<{s}> <{p}> <{o}> ." for s, p, o in self.schema.statements()]


def _nt(term: str) -> str:
    return term if term.startswith('"') else f"<{term}>"


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


def _render(term) -> str:
    if isinstance(term, int):
        return f"X{term}"
    if term == RDF_TYPE:
        return "rdf:type"
    return _nt(term)


def query_text(name: str, head: list[int], atoms: list[tuple]) -> str:
    """Datalog text of a query; ints are variables ``X<i>``."""
    body = ", ".join(
        "t(" + ", ".join(_render(term) for term in atom) + ")" for atom in atoms
    )
    return f"{name}({', '.join(f'X{v}' for v in head)}) :- {body}"


def reformulation_estimate(schema: Schema, atoms: list[tuple]) -> int:
    """The benchmark's rule for the size of a query's reformulation:
    the product over atoms of the atom's alternatives (a property atom
    has one per subproperty, a typed atom one per entailing class or
    property). An atom with a variable class or property counts every
    class or property of the schema. Canonical deduplication can only
    make the real union smaller."""
    total = 1
    for _s, p, o in atoms:
        if isinstance(p, int):
            total *= NUM_PROPERTIES + 1
        elif p == RDF_TYPE:
            if isinstance(o, int):
                total *= sum(schema.type_alternatives(c) for c in CLASSES)
            else:
                total *= schema.type_alternatives(o)
        else:
            total *= len(schema.property_closure[p])
    return total


class QuerySampler:
    """Satisfiable queries sampled from the catalog's graph.

    A sample starts at a data entity, follows its edges, and abstracts
    the entities into variables; the sampled subgraph witnesses that
    the query has an answer on the saturated store.
    """

    def __init__(self, catalog: Catalog, rng: random.Random) -> None:
        self.catalog = catalog
        self.rng = rng

    def _object(self, obj: str, variable: int, keep: float):
        return obj if self.rng.random() < keep else variable

    def _typed(self, entity: str, general: bool) -> str:
        """The entity's class, or (``general``) one of its ancestors."""
        cls = self.catalog.types[entity]
        if general:
            ancestors = self.catalog.schema.ancestors[cls]
            return ancestors[self.rng.randrange(len(ancestors))]
        return cls

    def star(self, size: int, keep: float = 0.4):
        rng = self.rng
        hubs = self.catalog.hubs
        center = hubs[rng.randrange(len(hubs))]
        edges = list(self.catalog.out[center])
        rng.shuffle(edges)
        atoms, seen = [], []
        for prop, obj in edges:
            if prop in seen:
                continue
            seen.append(prop)
            atoms.append((0, prop, self._object(obj, len(atoms) + 1, keep)))
            if len(atoms) == size - 1:
                break
        atoms.append((0, RDF_TYPE, self._typed(center, rng.random() < 0.5)))
        variables = [v for a in atoms for v in (a[0], a[2]) if isinstance(v, int)]
        head = [0] + [v for v in dict.fromkeys(variables) if v != 0][:1]
        return head, atoms

    def _walk(self, edges: int) -> list[tuple[str, str]]:
        """A path of ``edges`` property edges between entities, as
        ``(node, property-to-next)`` pairs followed by ``(last, "")``."""
        rng = self.rng
        out = self.catalog.out
        hubs = self.catalog.hubs
        while True:
            node = hubs[rng.randrange(len(hubs))]
            path: list[tuple[str, str]] = []
            visited = [node]
            while len(path) < edges:
                steps = [(p, o) for p, o in out[node]
                         if o in out and o not in visited]
                if not steps:
                    break
                prop, following = steps[rng.randrange(len(steps))]
                path.append((node, prop))
                visited.append(following)
                node = following
            if len(path) == edges:
                return path + [(node, "")]

    def chain(self, size: int, keep: float = 0.3):
        """A path of ``size - 1`` property atoms ending in a typed atom;
        with probability ``keep`` the path's start is a constant."""
        path = self._walk(size - 1)
        atoms = [(i, prop, i + 1) for i, (_node, prop) in enumerate(path[:-1])]
        last = len(path) - 1
        general = self.rng.random() < 0.5
        atoms.append((last, RDF_TYPE, self._typed(path[-1][0], general)))
        head = [0, last]
        if self.rng.random() < keep:
            # Bind the start of the path to its entity: a selective chain.
            atoms = [tuple(path[0][0] if t == 0 else t for t in a) for a in atoms]
            head = [last]
        return head, atoms

    def mixed(self, size: int):
        """A two-edge chain whose middle entity also carries a star
        branch of ``size - 2`` edges."""
        rng = self.rng
        while True:
            path = self._walk(2)
            middle = path[1][0]
            branch = [(p, o) for p, o in self.catalog.out[middle]
                      if p != path[1][1]]
            if len(branch) >= size - 2:
                break
        atoms = [(0, path[0][1], 1), (1, path[1][1], 2)]
        for i, (prop, obj) in enumerate(branch[: size - 2]):
            atoms.append((1, prop, self._object(obj, 3 + i, 0.5)))
        if rng.random() < 0.5:
            atoms.append((2, RDF_TYPE, self._typed(path[2][0], True)))
        return [0, 2], atoms


# ----------------------------------------------------------------------
# Workload streams
# ----------------------------------------------------------------------

#: ``select`` rounds: one recommendation per (shape, strategy) pair;
#: DFS and GSTR alternate.
SELECT_ROUND = (("star", "dfs"), ("chain", "gstr"), ("mixed", "dfs"),
                ("star", "gstr"), ("chain", "dfs"), ("mixed", "gstr"))
SELECT_QUERIES = 3
#: The ``select`` stream: this many rounds, drawn once from a fixed
#: query seed; ``--seed`` orders the operations within each round. A
#: run makes the first two rounds (12 recommendations), so every run
#: makes the same recommendations. When each seed drew its own queries,
#: the median recommendation moved by 0.22 of itself from seed to seed,
#: more than the machine's drift.
SELECT_ROUNDS = 40
SELECT_QUERY_SEED = 5

#: ``answer`` rounds: one query per (shape, size, reformulation-size
#: band); three small and five medium unions per round. Estimates jump
#: from at most 40 to above 100 (a typed atom on the root class alone
#: has 112 alternatives), so no band lies between 40 and the cap.
ANSWER_ROUND = (("star", 2, 1, 10), ("chain", 2, 1, 10), ("star", 3, 1, 10),
                ("chain", 3, 11, 40), ("star", 4, 11, 40), ("chain", 4, 11, 40),
                ("star", 3, 11, 40), ("chain", 2, 11, 40))
#: The ``answer`` pool: this many rounds, drawn once from a fixed query
#: seed, in a fixed order; ``--seed`` orders the queries within each
#: round, so runs that make the same number of rounds answer the same
#: queries. A run answers 1200 of them (``measure.Answer``), which
#: leaves room for a program twice as fast before a run reaches the end
#: of the stream. Query costs are heavy-tailed (p95 is five
#: times the median); with a pool drawn anew from each seed, the mean
#: and p90 latency of the same machine moved by 8% (standard deviation)
#: from seed to seed.
ANSWER_ROUNDS = 375
ANSWER_QUERY_SEED = 3

MAINTAIN_QUERY_SEED = 13
#: The ``maintain`` update stream: this many rounds of twelve updates
#: (the round of ``measure.Maintain``), six pairs of a delete and an
#: insert of catalog triples, drawn once from a fixed update seed;
#: ``--seed`` orders the pairs within each round, so runs that make the
#: same number of rounds apply the same updates. With the stream drawn
#: from each seed, one seed ran 8% faster than another, run back to
#: back.
MAINTAIN_ROUNDS = 1_000
MAINTAIN_UPDATE_SEED = 11
#: Triples held out of the ``maintain`` data: how far the inserts lag
#: behind the deletes (see :func:`maintain_stream`).
MAINTAIN_LAG = 60

def _shaped(sampler: QuerySampler, shape: str, size: int, keep: float | None = None):
    options = {} if keep is None else {"keep": keep}
    if shape == "star":
        return sampler.star(size, **options)
    if shape == "chain":
        return sampler.chain(size, **options)
    return sampler.mixed(size)


def _variant(catalog: Catalog, rng: random.Random, atoms: list[tuple]):
    """``atoms`` with every constant object replaced by the object of
    another triple of the same property (a class by one of its
    ancestors): the shared skeleton view fusion can factorize."""
    by_property = catalog.by_property
    varied = []
    for s, p, o in atoms:
        if isinstance(o, str) and p == RDF_TYPE:
            ancestors = catalog.schema.ancestors[o]
            o = ancestors[rng.randrange(len(ancestors))]
        elif isinstance(o, str):
            objects = by_property[p]
            o = objects[rng.randrange(len(objects))]
        varied.append((s, p, o))
    return varied


def select_stream(catalog: Catalog, seed: int) -> list[dict]:
    """Each recommendation gets queries sharing one skeleton (a sampled
    query plus variants differing in constants), so the search has
    views to fuse, as in the paper's high-commonality workloads. The
    seed shuffles the DFS operations of a round among the round's DFS
    positions, and the GSTR operations among the GSTR positions."""
    rng = random.Random(SELECT_QUERY_SEED)
    sampler = QuerySampler(catalog, rng)
    order = random.Random(seed * 31 + 2)
    ops = []
    for _round in range(SELECT_ROUNDS):
        drawn = []
        for shape, strategy in SELECT_ROUND:
            head, atoms = _shaped(sampler, shape, 3)
            queries = [query_text("q1", head, atoms)]
            while len(queries) < SELECT_QUERIES:
                variant = _variant(catalog, rng, atoms)
                queries.append(query_text(f"q{len(queries) + 1}", head, variant))
            drawn.append({"strategy": strategy, "shape": shape,
                          "queries": queries})
        dfs, gstr = drawn[0::2], drawn[1::2]
        order.shuffle(dfs)
        order.shuffle(gstr)
        ops.extend(op for pair in zip(dfs, gstr) for op in pair)
    return ops


def answer_stream(catalog: Catalog, seed: int) -> dict:
    """Distinct queries, one per class of :data:`ANSWER_ROUND` per
    round, in rounds ordered by ``seed``. Every sample above
    :data:`ANSWER_DISJUNCT_CAP` is left out and counted; so are samples
    outside their class's band."""
    sampler = QuerySampler(catalog, random.Random(ANSWER_QUERY_SEED))
    rounds, seen, sampled, dropped = [], set(), 0, 0
    for _round in range(ANSWER_ROUNDS):
        kept = []
        rounds.append(kept)
        for shape, size, low, high in ANSWER_ROUND:
            for _attempt in range(10_000):
                head, atoms = _shaped(sampler, shape, size)
                text = query_text("q", head, atoms)
                estimate = reformulation_estimate(catalog.schema, atoms)
                sampled += 1
                dropped += estimate > ANSWER_DISJUNCT_CAP
                if low <= estimate <= high and text not in seen:
                    break
            else:
                raise RuntimeError(f"no {shape}{size} query in [{low}, {high}]")
            seen.add(text)
            kept.append({"text": text, "class": f"{shape}{size}-{high}",
                         "estimate": estimate})
    order = random.Random(seed * 31 + 3)
    for kept in rounds:
        order.shuffle(kept)
    return {"queries": [query for kept in rounds for query in kept],
            "sampled": sampled, "dropped": dropped, "cap": ANSWER_DISJUNCT_CAP}


def maintain_stream(catalog: Catalog, seed: int) -> dict:
    """Fixed query texts over the fixed catalog (see
    :data:`FIXED_CATALOG`), so the recommended views are the same in
    every run; the order of the updates within each round is the seeded
    part. With seeded data and queries, the recommendation, and with it
    the throughput, changed 17-fold from seed to seed."""
    sampler = QuerySampler(catalog, random.Random(MAINTAIN_QUERY_SEED))
    queries = []
    for index, shape in enumerate(("star", "chain", "star", "chain")):
        head, atoms = _shaped(sampler, shape, 3, keep=0.0)
        queries.append(query_text(f"q{index + 1}", head, atoms))
    # Updates touch the properties the queries use, so the delta rules
    # have views to maintain. The first MAINTAIN_LAG of these triples are
    # held out of the data; update pair k deletes triple k + MAINTAIN_LAG
    # and inserts triple k. The store therefore always lacks as many
    # triples, and deletes and inserts cost alike, while the store a run
    # ends with differs from the one it began with, which is what the
    # checker compares. A first version inserted fresh triples, which
    # were cheap, and deleted existing ones, one to two: the store shrank
    # as a run went on.
    used = [p for text in queries for p in PROPERTIES if f"<{p}>" in text]
    existing = [t for t in catalog.triples if t[1] in used]
    random.Random(MAINTAIN_UPDATE_SEED).shuffle(existing)
    for triple in existing[:MAINTAIN_LAG]:
        del catalog.triples[triple]
    order = random.Random(seed * 31 + 4)
    updates = []
    for start in range(0, 6 * MAINTAIN_ROUNDS, 6):
        pairs = [
            (existing[k + MAINTAIN_LAG], existing[k])
            for k in range(start, start + 6)
        ]
        order.shuffle(pairs)
        for removed, inserted in pairs:
            updates.append(["remove", "<{}> <{}> {} .".format(*removed[:2], _nt(removed[2]))])
            updates.append(["insert", "<{}> <{}> {} .".format(*inserted[:2], _nt(inserted[2]))])
    return {"queries": queries, "updates": updates}


STREAMS = {
    "select": select_stream,
    "answer": answer_stream,
    "maintain": maintain_stream,
}


#: The catalog of each workload comes from a fixed seed. Costs follow
#: the data closely (the wide atoms the ``select`` statistics count; the
#: extents of the maintained views; which queries the ``answer`` pool
#: holds), so only the streams come from ``--seed``: the ``select``
#: queries, the update stream, the order of the ``answer`` rounds.
FIXED_CATALOG = {"select": 29, "answer": 23, "maintain": 17}


def generate(workload: str, seed: int, directory: Path) -> None:
    """Write ``schema.nt``, ``data.nt`` and ``stream.json``."""
    catalog = Catalog(FIXED_CATALOG[workload])
    # The stream first: ``maintain`` holds triples out of the data.
    stream = STREAMS[workload](catalog, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.nt").write_text("\n".join(catalog.schema_lines()) + "\n")
    (directory / "data.nt").write_text("\n".join(catalog.data_lines()) + "\n")
    (directory / "stream.json").write_text(json.dumps(stream, indent=0) + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(STREAMS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)
