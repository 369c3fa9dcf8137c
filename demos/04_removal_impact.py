"""Measure how hard each ranking hits the network when its top nodes go.

For every measure, delete its five top-ranked nodes and report the density
of what remains: the lower the residual density, the more structurally
important the removed set was. A seeded random-removal baseline shows how
much worse aimless deletion does. The per-network series at the end is the
plot-ready form (density by network, one line per measure).

Run from the repository root:  python3 demos/04_removal_impact.py
"""

from pathlib import Path

from tricent import (
    COMPARISON_MEASURES,
    density,
    load_graph,
    random_removal_density,
    removal_impact,
)

DATA = Path(__file__).resolve().parent.parent / "data"

NETWORKS = ["karate.net", "dolphins.net", "blogs.net", "USAir97.net"]
K = 5


def main() -> None:
    reports = {}
    for name in NETWORKS:
        path = DATA / name
        if not path.exists():
            print(f"{name}: not present under data/, skipped (see data/README.md)")
            continue
        g = load_graph(path)
        report = removal_impact(g, K)
        reports[path.stem] = report
        baseline = random_removal_density(g, K, trials=100)
        print(
            f"{path.stem}: intact density {density(g):.4f}, "
            f"mean after {K} random removals {baseline:.4f}"
        )
        lowest = min(dens for dens, _ in report.values())
        for m, (dens, removed) in report.items():
            # ties for the lowest density are all flagged, never hidden
            marker = "  <- lowest" if dens == lowest else ""
            nodes = " ".join(str(v) for v in removed)
            print(f"  {m.value:>4} removed [{nodes}] -> density {dens:.4f}{marker}")

    if reports:
        print(f"density series across networks (x = {', '.join(reports)}):")
        for m in COMPARISON_MEASURES:
            values = "  ".join(f"{report[m][0]:.4f}" for report in reports.values())
            print(f"  {m.value:>4}: {values}")


if __name__ == "__main__":
    main()
