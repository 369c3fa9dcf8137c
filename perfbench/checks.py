"""Checks on every operation's output against the reference answers.

A check returns a list of problems; an empty list means the output is right.
Outputs for the committed karate network must equal the README's goldens
byte for byte. TC, TR and SDEG outputs on generated graphs must equal the
reference exactly, ties broken by ascending label as the CLI documents.
BC, CNC, EC and PR rankings may order near-ties either way: a listed node
passes at rank r when its reference score is within ``TIE_TOL`` (relative to
the largest score) of the r-th largest reference score.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from reference import removal_density
from workloads import ABLATE_SEED, RAND_TRIALS

COMPARISON = ("TR", "BC", "CNC", "EC", "PR", "TC")
EXACT = ("TR", "TC", "SDEG")
# BC and CNC differ from the reference only by rounding; EC and PR by the
# solvers' 1e-10 stopping tolerances.
TIE_TOL = {"BC": 1e-9, "CNC": 1e-9, "EC": 1e-7, "PR": 1e-7}
# printed scores carry 6 significant digits
SCORE_REL_TOL = 1e-5
REMOVAL_REL_TOL = 1e-12

KARATE_COMPARE = """TR,BC,CNC,EC,PR,TC
1,1,1,34,34,1
34,34,3,1,1,34
33,33,34,3,33,33
2,3,32,33,2,2
3,32,9,2,3,3
"""

KARATE_ABLATE_ROWS = [
    "karate,TR,0.0468,1 34 33 2 3",
    "karate,BC,0.0567,1 34 33 3 32",
    "karate,CNC,0.0739,1 3 34 32 9",
    "karate,EC,0.0468,34 1 3 33 2",
    "karate,PR,0.0468,34 1 33 2 3",
    "karate,TC,0.0468,1 34 33 2 3",
    "karate,RAND,0.1410,",
]


def load_references(raw: dict) -> dict:
    """Turn ``reference.json`` back into int-keyed score maps."""
    for ref in raw.values():
        ref["scores"] = {m: {int(v): s for v, s in sc.items()} for m, sc in ref["scores"].items()}
        if "adjacency" in ref:
            ref["adjacency"] = {int(v): set(nb) for v, nb in ref["adjacency"].items()}
    return raw


class Checker:
    """Checks the outputs of one workload run against its references."""

    def __init__(self, refs: dict, k: int):
        self.refs = refs
        self.k = k

    def cli(self, argv: Sequence[str], out: str) -> List[str]:
        """Problems in the stdout of one successful CLI invocation."""
        command = argv[0]
        try:
            if command == "info":
                return self._exact(out, self._ref(argv[1])["info"], "info")
            if command == "rank":
                return self._rank(argv[1], argv[argv.index("--measure") + 1].upper(), out)
            if command == "compare":
                return self._compare(argv[1], out)
            if command == "ablate":
                return self._ablate(argv[1 : argv.index("--k")], out)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"{command}: unreadable output ({exc!r})"]
        return [f"no check for command {command!r}"]

    def removal(self, graph: str, k: int, trials: int, seed: int, value: float) -> List[str]:
        want = self.refs[graph]["removal"][f"{k},{trials},{seed}"]
        if abs(value - want) > REMOVAL_REL_TOL * abs(want):
            return [f"random_removal_density {value!r}, closed form gives {want!r}"]
        return []

    def _ref(self, path: str) -> dict:
        return self.refs[Path(path).stem]

    @staticmethod
    def _exact(out: str, want: str, what: str) -> List[str]:
        return [] if out == want else [f"{what}: output differs from the reference"]

    def _rank(self, path: str, measure: str, out: str) -> List[str]:
        ref = self._ref(path)
        if measure in EXACT:
            return self._exact(out, ref["rank"][measure], f"rank {measure}")
        scores = ref["scores"][measure]
        lines = out.splitlines()
        if lines[0] != "rank,node,score":
            return [f"rank {measure}: bad header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if [r for r, _, _ in rows] != [str(i) for i in range(1, len(rows) + 1)]:
            return [f"rank {measure}: rank column is not 1..{len(rows)}"]
        nodes = [int(v) for _, v, _ in rows]
        problems = _top_problems(measure, nodes, scores, self.k)
        for _, v, text in rows:
            want = scores.get(int(v), 0.0)
            if abs(float(text) - want) > SCORE_REL_TOL * abs(want) + 1e-12:
                problems.append(f"rank {measure}: node {v} scored {text}, reference {want!r}")
        return problems

    def _columns_ok(self, ref: dict, measure: str, nodes: List[int]) -> List[str]:
        scores = ref["scores"][measure]
        if measure in EXACT:
            want = sorted(scores, key=lambda v: (-scores[v], v))[: self.k]
            return [] if nodes == want else [f"{measure}: top {nodes}, reference {want}"]
        return _top_problems(measure, nodes, scores, self.k)

    def _compare(self, path: str, out: str) -> List[str]:
        if Path(path).stem == "karate":
            return self._exact(out, KARATE_COMPARE, "compare karate")
        ref = self._ref(path)
        lines = out.splitlines()
        if lines[0] != ",".join(COMPARISON):
            return [f"compare: bad header {lines[0]!r}"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != min(self.k, ref["nodes"]):
            return [f"compare: {len(rows)} rows"]
        problems = []
        for c, measure in enumerate(COMPARISON):
            problems += self._columns_ok(ref, measure, [int(row[c]) for row in rows])
        return problems

    def _ablate(self, files: Sequence[str], out: str) -> List[str]:
        names = [Path(f).stem for f in files]
        table, plot = out.split("\n\n")
        lines = table.splitlines()
        if lines[0] != "graph,measure,density,removed":
            return [f"ablate: bad header {lines[0]!r}"]
        rows = lines[1:]
        per_graph = len(COMPARISON) + 1
        if len(rows) != per_graph * len(names):
            return [f"ablate: {len(rows)} rows for {len(names)} graphs"]
        problems: List[str] = []
        densities: Dict[str, List[str]] = {}
        for i, name in enumerate(names):
            block = rows[i * per_graph : (i + 1) * per_graph]
            densities[name] = [row.split(",")[2] for row in block[:-1]]
            if name == "karate":
                if block != KARATE_ABLATE_ROWS:
                    problems.append("ablate: karate rows differ from the README golden")
                continue
            problems += self._ablate_block(name, block)
        plot_lines = plot.splitlines()
        if plot_lines[0] != ",".join(("network",) + COMPARISON):
            problems.append(f"ablate: bad plot header {plot_lines[0]!r}")
        want = [",".join([name] + densities[name]) for name in names]
        if plot_lines[1:] != want:
            problems.append("ablate: plot series disagrees with the density rows")
        return problems

    def _ablate_block(self, name: str, block: List[str]) -> List[str]:
        ref = self.refs[name]
        adj, n, m = ref["adjacency"], ref["nodes"], ref["edges"]
        problems = []
        for measure, row in zip(COMPARISON + ("RAND",), block):
            graph, tag, text, removed = row.split(",")
            if (graph, tag) != (name, measure):
                problems.append(f"ablate: row {row!r} where {name},{measure} belongs")
                continue
            if measure == "RAND":
                rand = ref["removal"][f"{self.k},{RAND_TRIALS},{ABLATE_SEED}"]
                if removed or text != f"{rand:.4f}":
                    problems.append(f"ablate {name}: RAND row {row!r}, closed form {rand:.4f}")
                continue
            nodes = [int(v) for v in removed.split()]
            problems += self._columns_ok(ref, measure, nodes)
            want = f"{removal_density(adj, n, m, nodes):.4f}"
            if text != want:
                problems.append(f"ablate {name} {measure}: density {text}, closed form {want}")
        return problems


def _top_problems(measure: str, nodes: List[int], scores: Dict[int, float], k: int) -> List[str]:
    want = min(k, len(scores))
    if len(nodes) != want or len(set(nodes)) != want:
        return [f"{measure}: {nodes} is not {want} distinct nodes"]
    ordered = sorted(scores.values(), reverse=True)
    tol = TIE_TOL[measure] * abs(ordered[0])
    for r, v in enumerate(nodes):
        if v not in scores:
            return [f"{measure}: node {v} is not in the graph"]
        if abs(scores[v] - ordered[r]) > tol:
            return [f"{measure}: rank {r + 1} is node {v} ({scores[v]!r}), reference {ordered[r]!r}"]
    return []


def repeat_problem(first: Optional[str], out: str) -> List[str]:
    """Stdout must be byte-identical to the first run of the same invocation."""
    return [] if first is None or first == out else ["stdout differs from an earlier repeat"]
