"""Compare the top-5 rankings of all seven measures side by side.

Reproduces the ranking-comparison experiment: on the karate club, the
triangle-neighborhood score (TC) agrees with the triangle count (TR) and
largely with degree-driven measures, while closeness (CNC) promotes
well-placed low-degree nodes instead.

Run from the repository root:  python3 demos/03_ranking_comparison.py
"""

from pathlib import Path

from tricent import comparison_table, load_graph

DATA = Path(__file__).resolve().parent.parent / "data"

NETWORKS = ["karate.net", "dolphins.net", "blogs.net", "USAir97.net"]


def main() -> None:
    for name in NETWORKS:
        path = DATA / name
        if not path.exists():
            print(f"{name}: not present under data/, skipped (see data/README.md)")
            continue
        g = load_graph(path)
        table = comparison_table(g, 5)
        print(f"{path.stem} ({g.node_count} nodes, {g.edge_count} edges), top 5 per measure:")
        print("  rank  " + "".join(f"{m.value:>6}" for m in table))
        # row r holds each measure's rank-(r+1) node
        for r, nodes in enumerate(zip(*table.values()), start=1):
            row = "".join(f"{v:>6}" for v in nodes)
            print(f"  {r:>4}  {row}")


if __name__ == "__main__":
    main()
