"""Generate one workload's input files and their reference answers.

    python3 perfbench/prepare.py --workload hk-20k --seed 1 --out DIR

Writes each generated graph into DIR and ``reference.json`` beside them. The
benchmark runs this in a child process before it times anything, so the
generator's and the reference's memory never counts toward the measured
process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generators  # noqa: E402
import reference  # noqa: E402
from workloads import ABLATE_SEED, K, RAND_TRIALS, WORKLOADS, graph_seed  # noqa: E402


def prepare(name: str, seed: int, out: Path) -> dict:
    w = WORKLOADS[name]
    refs = {}
    for index, spec in enumerate(w.graphs):
        if spec.model == "file":
            continue  # committed inputs are checked against their goldens
        gseed = graph_seed(seed, index)
        if spec.model == "hk":
            edges = generators.holme_kim(spec.n, spec.m, spec.p_triad, gseed)
            text = generators.pajek_text(spec.n, edges)
            edges = [(u + 1, v + 1) for u, v in edges]
            labels = list(range(1, spec.n + 1))
        else:
            edges = generators.gnm(spec.n, spec.m, gseed)
            text = generators.edgelist_text(edges)
            labels = sorted({v for e in edges for v in e})
        (out / spec.filename).write_text(text)
        removals = [(K, RAND_TRIALS, ABLATE_SEED)] if w.paper_experiment else []
        if spec.name == w.main and w.removal_trials:
            removals.append((K, w.removal_trials, seed))
        refs[spec.name] = reference.build(
            labels, edges, paths=w.paper_experiment, removals=removals, k=K
        )
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    refs = prepare(args.workload, args.seed, args.out)
    (args.out / "reference.json").write_text(json.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
