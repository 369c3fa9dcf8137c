"""tricent benchmark: what a user waits for, on seeded graphs, with outputs checked.

    python3 perfbench/run.py --workload hk-20k --seed 1 --seconds 45 --trace 0

Every metric of every workload, end-to-end and per layer:

    for w in hk-20k er-20k paper-suite; do for t in 0 1; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 45 --trace $t
    done; done

Run from the root of a checkout. Workloads are defined in ``workloads.py``.
A child process generates the workload's graphs from ``--seed`` and computes
their reference answers; then this process runs each operation in-process
through ``tricent.cli.main`` (and ``random_removal_density`` as a library
call), one after another from a single thread, after an untimed warm-up on
karate: whole passes over the workload's operations, so every operation of a
run has the same number of samples, for as long as one more pass still ends
within ``--seconds``. BLAS runs single-threaded. Every output is checked
after its timing stops.

``--trace 0`` prints the median wall time of each operation and reports the
end-to-end metrics: the sum of those medians (``pass_s``), the median time of
``import tricent.cli`` in a fresh interpreter, and the process's peak RSS.
``--trace 1`` runs one pass untraced and one pass with ``tracer.Tracer``
installed, and reports per-layer self times, call counts, input descriptors
and the tracing overhead; it writes the spans to ``perfbench/out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exits 2 without
a result when the checkout lacks tricent's sources or the karate data.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # One single-threaded process: numpy's BLAS, loaded below, must not
    # spread onto the second core.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from checks import Checker, load_references, repeat_problem  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import K, RANK_MEASURES, WORKLOADS, Op, graph_path, operations  # noqa: E402

# Metrics every workload reports with --trace 0. The per-operation medians
# (info_s, rank_tc_s, removal_s, compare_s, ...) are printed too, but not
# reported: on a shared two-core machine the host's speed drifts by 20-40%
# over tens of seconds, so a median over the few seconds one operation gets
# in a run spreads between runs as wide as the widest bound allowed; pass_s
# spans the whole run.
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
SETUP_REPEATS = 5  # before the timed passes, and again after them
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120


def child_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_times() -> List[float]:
    """Seconds for ``import tricent.cli`` in fresh interpreters, after one warm-up."""
    code = "import time\nt = time.perf_counter()\nimport tricent.cli\nprint(time.perf_counter() - t)"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(), capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        times.append(float(done.stdout))
    return times[1:]


def import_times() -> Dict[str, float]:
    """Median cumulative import time of tricent and of scipy, from ``-X importtime``."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tricent.cli"],
            env=child_env(), capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        for key, value in parse_importtime(done.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def parse_importtime(text: str) -> Dict[str, float]:
    """Seconds spent importing tricent and scipy, each counted once at its outermost import."""
    entries = []  # (depth, name, cumulative seconds), children listed before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:") :].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"tricent": 0.0, "scipy": 0.0}
    ancestors: List[tuple] = []
    for depth, name, seconds in reversed(entries):  # parents now come before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = name.split(".")[0]
        if top in totals and all(a[1].split(".")[0] != top for a in ancestors):
            totals[top] += seconds
        ancestors.append((depth, name))
    return totals


def environment() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "cpus": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Session:
    """Runs operations, times them, checks them, and counts failures."""

    def __init__(self, checker: Checker, paths: Dict[str, Path]):
        import tricent.cli
        import tricent.experiments
        import tricent.graph

        self.cli, self.experiments, self.graph = tricent.cli, tricent.experiments, tricent.graph
        self.checker = checker
        self.paths = paths
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.first_out: Dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.stdout_bytes = 0

    def run(self, op: Op, tracer: Optional[Tracer] = None) -> float:
        """Run ``op`` once, record its wall time under ``op.metric``, and return it."""
        if tracer is not None:
            tracer.op = op.metric
        gc.collect()
        took = self._removal(op) if op.removal else sum(self._invoke(argv) for argv in op.argvs)
        self.samples[op.metric].append(took)
        return took

    def _invoke(self, argv: tuple) -> float:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            code = repr(exc)
        took = time.perf_counter() - start
        text = out.getvalue()
        self.stdout_bytes += len(text.encode())
        if code != 0:
            problems = [f"exit {code}: {err.getvalue().strip()}"]
        else:
            problems = self.checker.cli(argv, text) + repeat_problem(self.first_out.get(argv), text)
            self.first_out.setdefault(argv, text)
        self._record(" ".join(argv), problems)
        return took

    def _removal(self, op: Op) -> float:
        name, k, trials, seed = op.removal
        g = self.graph.load_graph(self.paths[name])
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = self.experiments.random_removal_density(g, k, trials=trials, seed=seed)
        except Exception as exc:  # a crash is one failed operation, not the end of the run
            value = exc
        took = time.perf_counter() - start
        if isinstance(value, Exception):
            problems = [repr(value)]
        else:
            problems = self.checker.removal(name, k, trials, seed, value)
        self._record(f"random_removal_density {name} k={k} trials={trials}", problems)
        return took

    def _record(self, what: str, problems: List[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def warm_up(self) -> None:
        """Run every kind of operation once on karate, untimed and unchecked,
        so that first-call costs inside the libraries do not land in a sample."""
        karate = str(ROOT / "data" / "karate.net")
        argvs = [["info", karate], ["compare", karate], ["ablate", karate, "--random-baseline"]]
        argvs += [["rank", karate, "--measure", x] for x in RANK_MEASURES]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                self.cli.main(argv)
        self.experiments.random_removal_density(self.graph.load_graph(karate), K, trials=2, seed=0)

    def timed_passes(self, ops: List[Op], seconds: float) -> None:
        """Whole passes over ``ops``, at least one, while a pass as long as the
        longest so far still ends within ``seconds`` of the start."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            begun = time.perf_counter()
            for op in ops:
                self.run(op)
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if now - start + longest > seconds:
                return


def end_to_end(session: Session, ops: List[Op], setup: List[float]) -> Dict[str, tuple]:
    """Median of each operation's samples; pass_s is the sum of those medians."""
    metrics = {"setup_s": (statistics.median(setup), "s", f"median of {len(setup)}")}
    for op in ops:
        values = session.samples[op.metric]
        metrics[op.metric] = (statistics.median(values), "s", f"median of {len(values)}")
    total = sum(metrics[op.metric][0] for op in ops)
    metrics["pass_s"] = (total, "s", "sum of the medians of every operation")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = (peak, "MB", "after the timed passes")
    return metrics


def per_layer(tracer: Tracer, imports: Dict[str, float], ref: dict, overhead: float, stdout_bytes: int) -> Dict[str, tuple]:
    """Per-layer metrics of one traced pass: self times in s unless named otherwise.

    Layers that some workload never exercises (BC and CNC on the 20k graphs,
    SDEG on paper-suite) are reported as a share of traced time, so that no
    time reads 0.
    """
    t = tracer.total
    s, n = "s", "count"
    calls = {"field": 0}
    wall = traced_wall(tracer)
    return {
        "import.tricent_s": (imports["tricent"], s),
        "import.scipy_s": (imports["scipy"], s),
        "graph.load_s": (t("graph.load_graph"), s),
        "graph.parse_s": (t("graph.parse_pajek", "graph.parse_edgelist"), s),
        "graph.build_s": (t("graph.Graph.__init__"), s),
        "graph.triangle_calls": (t("graph.triangle_neighbors", "graph.triangles_at", **calls), n),
        "graph.triangle_s": (t("graph.triangle_neighbors", "graph.triangles_at"), s),
        "graph.remove_calls": (t("graph.Graph.remove_nodes", **calls), n),
        "graph.remove_s": (t("graph.Graph.remove_nodes", "graph.Graph.induced_subgraph"), s),
        "graph.self_s": (tracer.layer_self("graph"), s),
        "measures.tc_s": (t("measures.tr_centrality"), s),
        "measures.tr_s": (t("measures.triangle_count_centrality"), s),
        "measures.sdeg_share": (100 * t("measures.sdeg_centrality", "measures.sdeg") / wall, "%"),
        "measures.ec_s": (t("measures.eigenvector_centrality"), s),
        "measures.pr_s": (t("measures.pagerank"), s),
        "measures.bc_share": (100 * t("measures.betweenness_centrality") / wall, "%"),
        "measures.cnc_share": (100 * t("measures.closeness_centrality") / wall, "%"),
        "measures.bc_calls": (t("measures.betweenness_centrality", **calls), n),
        "measures.cnc_calls": (t("measures.closeness_centrality", **calls), n),
        "measures.compute_calls": (t("measures.compute", **calls), n),
        "measures.convergence_failures": (tracer.convergence_failures, n),
        "measures.self_s": (tracer.layer_self("measures"), s),
        "experiments.rank_s": (t("experiments.rank_top_k"), s),
        "experiments.random_removal_s": (t("experiments.random_removal_density"), s),
        "experiments.self_s": (tracer.layer_self("experiments"), s),
        "cli.self_s": (tracer.layer_self("cli"), s),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "graph.nodes": (ref["nodes"], n),
        "graph.edges": (ref["edges"], n),
        "graph.triangles": (ref["triangles"], n),
        "graph.sum_deg_sq": (ref["sum_deg_sq"], n),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def traced_wall(tracer: Tracer) -> float:
    """Seconds inside top-level spans: every traced call the pass made."""
    return sum(sp["end"] - sp["start"] for sp in tracer.spans if sp["parent"] is None)


def trace_report(tracer: Tracer, ops: List[Op]) -> List[str]:
    """Self times only paper-suite makes, and where the rank tc command, if run, spends its time."""
    t = tracer.total
    lines = [
        f"{name:32s} {t(fn):14.6f} s"
        for name, fn in (
            ("measures.bc_s", "measures.betweenness_centrality"),
            ("measures.cnc_s", "measures.closeness_centrality"),
            ("experiments.comparison_table_s", "experiments.comparison_table"),
            ("experiments.removal_impact_s", "experiments.removal_impact"),
            ("experiments.plot_series_s", "experiments.plot_series"),
        )
    ]
    op = "rank_tc_s"
    if op not in {o.metric for o in ops}:
        return lines
    parts = {
        "triangle primitives + TC measure": t("graph.triangle_neighbors", "graph.triangles_at", "measures.tr_centrality", op=op),
        "load + parse + build": t("graph.load_graph", "graph.parse_pajek", "graph.parse_edgelist", "graph.Graph.__init__", op=op),
        "rest of measures": tracer.layer_self("measures", op=op) - t("measures.tr_centrality", op=op),
        "experiments": tracer.layer_self("experiments", op=op),
        "cli": tracer.layer_self("cli", op=op),
    }
    ranked = sorted(parts.items(), key=lambda kv: -kv[1])
    lines.append("rank tc self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="tricent benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "tricent" / "cli.py", ROOT / "data" / "karate.net") if not p.is_file()]
    if missing:
        print(f"benchmark: checkout lacks {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tricent

    if Path(tricent.__file__).resolve().parent != SRC / "tricent":
        print(f"benchmark: imported tricent from {tricent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, timeout=CHILD_TIMEOUT_S,
        )
        refs = load_references(json.loads((work / "reference.json").read_text()))
        return measure(args, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path, refs: dict) -> int:
    w = WORKLOADS[args.workload]
    paths = {g.name: graph_path(g, ROOT, work) for g in w.graphs}
    ops = operations(args.workload, args.seed, paths)
    session = Session(Checker(refs, K), paths)
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    ref = refs[w.main]
    print(f"main graph {w.main}: {ref['nodes']} nodes, {ref['edges']} edges, "
          f"{ref['triangles']} triangles, sum deg^2 {ref['sum_deg_sq']}")

    session.warm_up()
    if args.trace:
        imports = import_times()
        start = time.perf_counter()
        for op in ops:
            session.run(op)
        plain = time.perf_counter() - start
        session.stdout_bytes = 0
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            for op in ops:
                session.run(op, tracer)
            traced = time.perf_counter() - start
        finally:
            tracer.restore()
        metrics = per_layer(tracer, imports, ref, traced / plain, session.stdout_bytes)
        for line in trace_report(tracer, ops):
            print(line)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tracer.spans))
    else:
        # set-up is sampled on both sides of the passes, so that its median
        # spans the host's state over the whole run, like pass_s does
        setup = setup_times()
        session.timed_passes(ops, args.seconds)
        setup += setup_times()
        metrics = end_to_end(session, ops, setup)

    for name, (value, unit, *note) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}" + (f"  ({note[0]})" if note else ""))
    print(f"operations: attempted {session.attempted}, failed {session.failed}, "
          f"error_rate {session.failed / session.attempted:.4f}")
    for problem in session.problems[:20]:
        print("FAILED " + problem)

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, *_) in metrics.items()
            if args.trace or name in END_TO_END
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  environment=env, samples=session.samples, problems=session.problems)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
