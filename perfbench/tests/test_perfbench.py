"""The benchmark's own tests: generators, reference answers, output checks, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import pytest

import generators
import reference
import run
from checks import Checker, load_references
from run import END_TO_END, Session, parse_importtime, per_layer
from tracer import Tracer
from workloads import ABLATE_SEED, K, RAND_TRIALS, Op

import tricent
import tricent.cli
from tricent import cli, experiments, graph, measures

ROOT = Path(__file__).resolve().parents[2]
KARATE = ROOT / "data" / "karate.net"


def cli_out(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert tricent.cli.main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 120-node Holme–Kim graph on disk, with its reference answers."""
    work = tmp_path_factory.mktemp("small")
    edges = generators.holme_kim(120, 4, 0.7, seed=5)
    path = work / "small-hk.net"
    path.write_text(generators.pajek_text(120, edges))
    edges = [(u + 1, v + 1) for u, v in edges]
    ref = reference.build(
        list(range(1, 121)), edges, paths=True,
        removals=[(K, RAND_TRIALS, ABLATE_SEED), (K, 7, 3)], k=K,
    )
    refs = load_references(json.loads(json.dumps({"small-hk": ref})))  # as run.py reads it
    return path, refs


def test_generators_are_deterministic():
    a = generators.pajek_text(500, generators.holme_kim(500, 5, 0.7, seed=9))
    b = generators.pajek_text(500, generators.holme_kim(500, 5, 0.7, seed=9))
    c = generators.pajek_text(500, generators.holme_kim(500, 5, 0.7, seed=10))
    assert a == b and a != c
    x = generators.edgelist_text(generators.gnm(400, 2000, seed=9))
    assert x == generators.edgelist_text(generators.gnm(400, 2000, seed=9))
    assert x != generators.edgelist_text(generators.gnm(400, 2000, seed=10))


@pytest.mark.parametrize("make,count", [
    (lambda: generators.holme_kim(300, 6, 0.7, seed=1), 6 * (300 - 6)),
    (lambda: generators.gnm(300, 1500, seed=1), 1500),
])
def test_generators_give_simple_graphs_of_the_stated_size(make, count):
    edges = make()
    assert len(edges) == count
    assert all(u != v for u, v in edges)
    assert len({frozenset(e) for e in edges}) == count


def test_reference_agrees_with_networkx(small):
    nx = pytest.importorskip("networkx")
    path, refs = small
    ref = refs["small-hk"]
    g = nx.Graph()
    g.add_edges_from((u, v) for u, nbrs in ref["adjacency"].items() for v in nbrs)
    bc = nx.betweenness_centrality(g)
    cnc = nx.closeness_centrality(g, wf_improved=True)
    ec = nx.eigenvector_centrality_numpy(g)
    pr = nx.pagerank(g, alpha=reference.DAMPING, tol=1e-14, max_iter=1000)
    for v in g:
        assert ref["scores"]["BC"][v] == pytest.approx(bc[v], abs=1e-12)
        assert ref["scores"]["CNC"][v] == pytest.approx(cnc[v], abs=1e-12)
        assert ref["scores"]["EC"][v] == pytest.approx(ec[v], abs=1e-9)
        assert ref["scores"]["PR"][v] == pytest.approx(pr[v], abs=1e-12)
    assert ref["triangles"] == sum(nx.triangles(g).values()) // 3


@pytest.mark.parametrize("measure", ["tc", "tr", "sdeg", "ec", "pr"])
def test_rank_check_passes_real_output_and_catches_a_swap(small, measure):
    path, refs = small
    checker = Checker(refs, K)
    argv = ("rank", str(path), "--measure", measure, "--k", str(K))
    out = cli_out(argv)
    assert checker.cli(argv, out) == []
    lines = out.splitlines(keepends=True)
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    assert checker.cli(argv, "".join(swapped))


def test_info_and_compare_checks(small):
    path, refs = small
    checker = Checker(refs, K)
    for argv in (("info", str(path)), ("compare", str(path), "--k", "5"), ("compare", str(KARATE), "--k", "5")):
        out = cli_out(argv)
        assert checker.cli(argv, out) == []
        assert checker.cli(argv, out.replace("\n", "\n9", 1))


def test_ablate_check_catches_a_wrong_density(small):
    path, refs = small
    checker = Checker(refs, K)
    argv = ("ablate", str(KARATE), str(path), "--k", "5", "--plot-series", "--random-baseline")
    out = cli_out(argv)
    assert checker.cli(argv, out) == []
    rows = out.splitlines(keepends=True)
    for i in (1, 7, 9, 14):  # karate TR, karate RAND, small-hk BC, small-hk RAND
        graph_name, tag, density, removed = rows[i].split(",")
        wrong = f"{float(density) + 0.0001:.4f}"
        bad = rows[:i] + [",".join((graph_name, tag, wrong, removed))] + rows[i + 1:]
        assert checker.cli(argv, "".join(bad)), rows[i]


def test_removal_check(small):
    path, refs = small
    checker = Checker(refs, K)
    value = experiments.random_removal_density(graph.load_graph(path), K, trials=7, seed=3)
    assert checker.removal("small-hk", K, 7, 3, value) == []
    assert checker.removal("small-hk", K, 7, 3, value * (1 + 1e-9))


@pytest.mark.parametrize("op_seconds, ops, seconds, passes", [
    (1.0, 3, 10, 3),  # passes end at 3, 6, 9 s; a fourth would end at 12 s
    (1.0, 3, 12, 4),  # a pass that ends exactly on time still runs
    (1.0, 20, 10, 1),  # one pass longer than the run still runs once
])
def test_timed_passes_run_whole_passes_while_one_more_fits(monkeypatch, op_seconds, ops, seconds, passes):
    clock = [0.0]
    monkeypatch.setattr(run, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    session = Session.__new__(Session)
    ran = []

    def fake_run(op):
        clock[0] += op_seconds
        ran.append(op)

    session.run = fake_run
    session.timed_passes(list(range(ops)), seconds)
    assert ran == list(range(ops)) * passes


def test_session_counts_a_swapped_rank_as_a_failed_operation(small, monkeypatch):
    path, refs = small
    session = Session(Checker(refs, K), {"small-hk": path})
    op = Op("rank_tc_s", (("rank", str(path), "--measure", "tc", "--k", str(K)),))
    session.run(op)
    assert (session.attempted, session.failed) == (1, 0)
    real_main = tricent.cli.main

    def swapped_main(argv):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            real_main(argv)
        lines = text.getvalue().splitlines(keepends=True)
        print("".join(lines[:1] + lines[2:3] + lines[1:2] + lines[3:]), end="")
        return 0

    monkeypatch.setattr(session.cli, "main", swapped_main)
    session.run(op)
    assert (session.attempted, session.failed) == (2, 1)


def bindings():
    out = {}
    for mod in (tricent, graph, measures, experiments, cli):
        for attr, value in vars(mod).items():
            if inspect.isfunction(value):
                out[(mod.__name__, attr)] = value
    for key, value in cli._COMMANDS.items():
        out[("cli._COMMANDS", key)] = value
    for attr in ("__init__", "remove_nodes", "induced_subgraph"):
        out[("Graph", attr)] = vars(graph.Graph)[attr]
    return out


def current(key):
    owner, attr = key
    if owner == "cli._COMMANDS":
        return cli._COMMANDS[attr]
    if owner == "Graph":
        return vars(graph.Graph)[attr]
    return getattr(sys.modules[owner], attr)


def test_tracer_keeps_outputs_and_restores_every_binding(small):
    path, _ = small
    argvs = [("compare", str(KARATE), "--k", "5"), ("rank", str(path), "--measure", "sdeg")]
    plain = [cli_out(a) for a in argvs]
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert current(("tricent.measures", "triangle_neighbors")) is not before[("tricent.measures", "triangle_neighbors")]
        assert current(("cli._COMMANDS", "rank")) is not before[("cli._COMMANDS", "rank")]
        traced = [cli_out(a) for a in argvs]
    finally:
        tracer.restore()
    assert traced == plain
    assert all(current(key) is fn for key, fn in before.items())
    assert tracer.total("measures.betweenness_centrality", field=0) == 1
    assert tracer.total("graph.triangle_neighbors", field=0) == 34 + 120  # TC on karate, SDEG on small
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]
    assert all(s["start"] <= s["end"] for s in tracer.spans)


def test_parse_importtime_counts_each_package_at_its_outermost_import():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:        50 |        150 |       scipy",
        "import time:       200 |        200 |       scipy.sparse",
        "import time:       300 |        700 |     tricent.measures",
        "import time:        10 |        710 |   tricent",
        "import time:        90 |        800 | tricent.cli",
    ])
    assert parse_importtime(text) == pytest.approx({"tricent": 800e-6, "scipy": 350e-6})


def test_reported_metrics_match_benchmark_json(small):
    path, refs = small
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(END_TO_END) == [m["name"] for m in spec["end_to_end"]]
    tracer = Tracer()
    tracer.install()
    try:
        cli_out(("info", str(path)))
    finally:
        tracer.restore()
    metrics = per_layer(tracer, {"tricent": 0.3, "scipy": 0.2}, refs["small-hk"], 1.0, 0)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
