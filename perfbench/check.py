"""Reference answers, computed apart from the routes being measured.

Run by ``perfbench/run.py`` after the measured process has ended, in a
process of its own. Every reference is the Section 4 equivalence read
the other way round: the query (or view) evaluated by the seed
evaluator ``evaluate_greedy`` on the *saturated* store, never by the
engine, the reformulation or the views that produced the
measured answers. Prints ``{"checked": n, "mismatches": [...]}``.
"""

from __future__ import annotations

import argparse
import json
import pickle
from pathlib import Path

from repro import parse_ntriples, parse_query, saturate
from repro.query.evaluation import evaluate_greedy

from measure import answer_digest, load_catalog


def check_answers(answers: list[dict], saturated) -> tuple[int, list]:
    mismatches = []
    references: dict[str, list] = {}
    for entry in answers:
        text = entry["query"]
        if text not in references:
            references[text] = answer_digest(evaluate_greedy(parse_query(text), saturated))
        if references[text] != entry["digest"]:
            mismatches.append({"op": entry.get("op"), "query": text})
    return len(answers), mismatches


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--outputs", type=Path, required=True)
    args = parser.parse_args()
    outputs = json.loads(args.outputs.read_text())
    store, schema = load_catalog(args.inputs)
    checked, mismatches = 0, []
    if args.workload == "maintain":
        stream = json.loads((args.inputs / "stream.json").read_text())
        for kind, line in stream["updates"][: outputs["applied"]]:
            triple = next(parse_ntriples(line))
            if kind == "insert":
                store.add(triple)
            else:
                store.remove(triple)
        saturated = saturate(store, schema)
        for view in pickle.loads(bytes.fromhex(outputs["views"])):
            checked += 1
            if answer_digest(evaluate_greedy(view, saturated)) != outputs["extents"][view.name]:
                mismatches.append({"view": str(view)})
    else:
        saturated = saturate(store, schema)
    count, wrong = check_answers(outputs.get("answers", []), saturated)
    print(json.dumps({"checked": checked + count, "mismatches": mismatches + wrong}))


if __name__ == "__main__":
    main()
