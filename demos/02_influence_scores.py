"""Score node influence with the triangle-neighborhood measure.

The score treats the subgraph on a node and its triangle-connected
neighbors like a planar linkage and evaluates the mobility count of that
linkage. Nodes embedded in many overlapping triangles come out on top.

Run from the repository root:  python3 demos/02_influence_scores.py
"""

from pathlib import Path

from tricent import (
    Graph,
    load_graph,
    rank_top_k,
    sdeg,
    tr_centrality,
    triangles_at,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def explain(g: Graph, label: str) -> None:
    scores = tr_centrality(g)
    print(f"{label}:")
    for v in g.nodes:
        s = sdeg(g, v)
        nt = triangles_at(g, v)
        print(
            f"  node {v}: sdeg={s} incident-triangles={nt} "
            f"-> 0.01*(3*{s} + {nt} - 2) = {scores[v]:+.2f}"
        )


def main() -> None:
    # the two hand-checkable cases: every K3 node scores 0.05, every K4 node 0.10
    explain(Graph([(1, 2), (2, 3), (1, 3)]), "triangle K3")
    explain(Graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]), "complete K4")

    # a chord turns the 4-cycle into two triangles sharing an edge;
    # the chord endpoints participate in both and pull ahead
    explain(Graph([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]), "diamond")

    # triangle-free nodes always score -0.02: a bare path has no rigidity
    explain(Graph([(1, 2), (2, 3)]), "path P3")

    karate = load_graph(DATA / "karate.net")
    scores = tr_centrality(karate)
    top = rank_top_k(scores, 5)
    print("karate club, five most influential nodes:")
    for rank, v in enumerate(top, start=1):
        print(f"  {rank}. node {v:>2}  TC={scores[v]:.2f}")


if __name__ == "__main__":
    main()
