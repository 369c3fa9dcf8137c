"""Golden bytes: every CLI command's full stdout and exit code, in every format.

The expected outputs live in ``tests/golden/<case>.<format>``. They pin the
exact bytes (number formatting, JSON value types, blank-line separators), so
a refactor of the output path shows any drift here first.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tricent.cli import main

from conftest import DATA_DIR

GOLDEN = Path(__file__).resolve().parent / "golden"
KARATE = str(DATA_DIR / "karate.net")
TOY = str(GOLDEN / "toy.edges")
HK = str(GOLDEN / "hk-332.net")  # Holme–Kim, 332 nodes / 1956 edges, triad p = 0.7
WIDE = str(GOLDEN / "wide-labels.edges")  # negative labels and labels above 2**63
DEEP = str(GOLDEN / "deep.edges")  # diameter 47: BC runs per-source Brandes from every node
# karate with comments, CRLF, labels, a weighted *Edges line and an *Edgeslist section
MIXED = str(GOLDEN / "karate-mixed.net")
# vertices 4, 11, 19 and 20 have no edges; a BFS that let 11 borrow the words of
# row 12, whose first neighbour is the hub 7, would put 11 in CNC's top 5
ISOLATED = str(GOLDEN / "isolated.net")

CASES = {
    "rank-tc": ("rank", KARATE, "--measure", "tc", "--k", "5"),
    "rank-tr": ("rank", KARATE, "--measure", "tr", "--k", "7"),
    **{
        f"rank-{m}": ("rank", KARATE, "--measure", m, "--k", "10")
        for m in ("sdeg", "dc", "bc", "cnc", "ec", "pr")
    },
    "compare-hk": ("compare", HK, "--k", "10"),
    "rank-bc-hk": ("rank", HK, "--measure", "bc", "--k", "50"),
    "rank-bc-deep": ("rank", DEEP, "--measure", "bc", "--k", "20"),
    "rank-cnc-deep": ("rank", DEEP, "--measure", "cnc", "--k", "20"),
    "info-wide": ("info", WIDE),
    "rank-ec-wide": ("rank", WIDE, "--measure", "ec", "--k", "8"),
    "compare": ("compare", KARATE, "--k", "5"),
    "compare-mixed": ("compare", MIXED, "--k", "5"),
    "compare-isolated": ("compare", ISOLATED, "--k", "5"),
    "compare-tc-tr": ("compare", KARATE, "--measures", "TC,TR"),
    "info": ("info", KARATE),
    "info-hk": ("info", HK),
    "ablate": ("ablate", KARATE, TOY, "--plot-series", "--random-baseline"),
}


def run_cli(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_bytes(capsys, case, fmt):
    code, out, err = run_cli(capsys, CASES[case] + ("--format", fmt))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{case}.{fmt}").read_text()


@pytest.mark.parametrize("fmt", ["csv", "tsv", "json"])
def test_golden_bytes_info_empty_edgelist(tmp_path, capsys, fmt):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    code, out, err = run_cli(capsys, ("info", str(empty), "--format", fmt))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"info-empty.{fmt}").read_text()


def test_every_golden_output_has_a_case():
    # CI checks the installed package with this file alone, so an output
    # without a case here would go unchecked
    cases = set(CASES) | {"info-empty"}
    for fmt in ("csv", "tsv", "json"):
        assert {p.stem for p in GOLDEN.glob(f"*.{fmt}")} == cases, fmt


def test_mixed_pajek_file_reads_as_karate():
    assert (GOLDEN / "compare-mixed.csv").read_text() == (GOLDEN / "compare.csv").read_text()
