"""Build graphs, read network files, and inspect triangle structure.

Run from the repository root:  python3 demos/01_graph_basics.py
"""

from pathlib import Path

from tricent import Graph, density, load_graph, triangle_neighbors, triangles_at

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    # a graph is just a set of undirected edges; labels are plain integers
    g = Graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
    print(f"toy graph: {g.node_count} nodes, {g.edge_count} edges")
    print(f"  neighbors of 3: {sorted(g.neighbors(3))}")
    print(f"  density: {density(g):.4f}")

    # nodes 1, 2, 3 close a triangle; 4 and 5 dangle off it
    for v in g.nodes:
        gamma = triangle_neighbors(g, v)
        print(
            f"  node {v}: degree {g.degree(v)}, "
            f"triangle neighbors {sorted(gamma) or '-'}, "
            f"incident triangles {triangles_at(g, v)}"
        )

    # removal never mutates: it returns a new graph
    pruned = g.remove_nodes([3])
    print(f"after removing node 3: {pruned.node_count} nodes, {pruned.edge_count} edges")
    print(f"original is untouched: {g.edge_count} edges")

    # Pajek files round-trip with their 1-based labels intact
    karate = load_graph(DATA / "karate.net")
    print(
        f"karate club: {karate.node_count} nodes, {karate.edge_count} edges, "
        f"density {density(karate):.4f}, "
        f"triangles {sum(triangles_at(karate, v) for v in karate.nodes) // 3}"
    )


if __name__ == "__main__":
    main()
