"""The benchmark's workloads: which graphs each one generates and which operations it times.

The two 20k workloads run ``info`` and ``rank --measure X`` for X in tc, tr,
sdeg, ec and pr on their graph, then one ``random_removal_density`` call.
``paper-suite`` runs the paper's experiment instead: ``compare`` on each file
and one ``ablate`` over all of them, which is where betweenness (BC) and
closeness (CNC) run; the two 20k workloads never run them.

``BENCHMARK.json`` lists hk-20k and paper-suite only. On a shared two-core
host a run needs about 45 s of timed work to be steady, and a full series of
benchmark runs must fit a fixed time that holds two workloads of that length,
not three. er-20k adds no layer the other two miss, only the edge-list path
of the parse layer, so it is the one left for runs by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

RANK_MEASURES = ("tc", "tr", "sdeg", "ec", "pr")
K = 5
# ablate's RAND row uses the CLI's defaults: seed 42 and 100 trials
ABLATE_SEED = 42
RAND_TRIALS = 100


@dataclass(frozen=True)
class GraphSpec:
    """One input file. ``model`` is ``hk`` (Holme–Kim), ``gnm`` or ``file`` (committed)."""

    name: str
    model: str
    n: int = 0
    m: int = 0  # hk: edges per new node; gnm: edge count
    p_triad: float = 0.0
    path: str = ""  # committed files only, relative to the checkout

    @property
    def filename(self) -> str:
        return f"{self.name}.txt" if self.model == "gnm" else f"{self.name}.net"


@dataclass(frozen=True)
class Workload:
    graphs: Tuple[GraphSpec, ...]
    main: str  # graph that info, rank and removal run on; the traced run describes it
    removal_trials: int  # 0: no random_removal_density call of its own
    paper_experiment: bool  # run compare on each graph and ablate over all, not info and rank


KARATE = GraphSpec("karate", "file", path="data/karate.net")

WORKLOADS: Dict[str, Workload] = {
    # triangle-rich with hubs: parse, build and the triangle primitives dominate
    "hk-20k": Workload(
        graphs=(GraphSpec("hk-20k", "hk", n=20000, m=10, p_triad=0.7),),
        main="hk-20k",
        # five removal trials, not er-20k's twenty: enough that the removal
        # layers never read 0 here, few enough to keep the pass short
        removal_trials=5,
        paper_experiment=False,
    ),
    # same size, flat degrees and almost no triangles; read as an edge list
    "er-20k": Workload(
        graphs=(GraphSpec("er-20k", "gnm", n=20000, m=200000),),
        main="er-20k",
        removal_trials=20,
        paper_experiment=False,
    ),
    # karate plus Holme–Kim stand-ins sized like dolphins, USAir97 and blogs
    "paper-suite": Workload(
        graphs=(
            KARATE,
            GraphSpec("dolphins-hk", "hk", n=62, m=3, p_triad=0.7),
            GraphSpec("usair-hk", "hk", n=332, m=6, p_triad=0.7),
            GraphSpec("blogs-hk", "hk", n=1224, m=14, p_triad=0.7),
        ),
        main="blogs-hk",
        removal_trials=0,  # ablate's RAND row removes nodes
        paper_experiment=True,
    ),
}


def graph_seed(seed: int, index: int) -> int:
    """Seed of the index-th graph of a workload run with ``seed``."""
    return seed * 16 + index


def graph_path(spec: GraphSpec, root: Path, work: Path) -> Path:
    return root / spec.path if spec.model == "file" else work / spec.filename


@dataclass(frozen=True)
class Op:
    """One timed operation: CLI invocations run back to back, or one removal call.

    ``metric`` names the end-to-end metric its wall time feeds.
    """

    metric: str
    argvs: Tuple[Tuple[str, ...], ...] = ()
    removal: Optional[Tuple[str, int, int, int]] = None  # graph, k, trials, seed


def operations(name: str, seed: int, paths: Dict[str, Path]) -> List[Op]:
    """The operations of one pass over workload ``name``, in run order."""
    w = WORKLOADS[name]
    if w.paper_experiment:
        files = [str(paths[g.name]) for g in w.graphs]
        compare = Op("compare_s", tuple(("compare", f, "--k", str(K)) for f in files))
        ablate = Op(
            "ablate_s", (("ablate", *files, "--k", str(K), "--plot-series", "--random-baseline"),)
        )
        return [compare, ablate]
    main = str(paths[w.main])
    ops = [Op("info_s", (("info", main),))]
    for x in RANK_MEASURES:
        ops.append(Op(f"rank_{x}_s", (("rank", main, "--measure", x, "--k", str(K)),)))
    if w.removal_trials:
        ops.append(Op("removal_s", removal=(w.main, K, w.removal_trials, seed)))
    return ops
