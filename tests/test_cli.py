"""End-to-end CLI behavior: emission formats, determinism, exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tricent
from tricent.cli import main

from conftest import DATA_DIR

KARATE = str(DATA_DIR / "karate.net")
TOY = str(Path(__file__).resolve().parent / "golden" / "toy.edges")  # 12 nodes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------ rank


def test_rank_tc_golden_column(capsys):
    code, out, err = run_cli(capsys, "rank", KARATE, "--measure", "tc", "--k", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "rank,node,score"
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "34", "33", "2", "3"]


def test_rank_ec_top1(capsys):
    code, out, _ = run_cli(capsys, "rank", KARATE, "--measure", "ec", "--k", "1")
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "34"


def test_rank_json_shape(capsys):
    code, out, _ = run_cli(capsys, "rank", KARATE, "--measure", "tc", "--k", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == "karate"
    assert doc["command"] == "rank"
    assert doc["params"]["measure"] == "TC"
    assert [row["node"] for row in doc["rows"]] == [1, 34, 33]


def test_rank_csv_json_value_agreement(capsys):
    _, csv_out, _ = run_cli(capsys, "rank", KARATE, "--k", "5")
    _, json_out, _ = run_cli(capsys, "rank", KARATE, "--k", "5", "--format", "json")
    doc = json.loads(json_out)
    for line, row in zip(csv_out.splitlines()[1:], doc["rows"]):
        rank, node, score = line.split(",")
        assert int(rank) == row["rank"]
        assert int(node) == row["node"]
        assert float(score) == row["score"]


def test_rank_pr_web_damping(capsys):
    # above a damping of about 0.384 nodes 2 and 3 swap (README's damping note)
    code, out, err = run_cli(capsys, "rank", KARATE, "--measure", "pr", "--damping", "0.85")
    assert (code, err) == (0, "")
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["34", "1", "33", "3", "2"]


def test_rank_explicit_tol(capsys):
    code, out, err = run_cli(capsys, "rank", KARATE, "--measure", "ec", "--tol", "1e-8")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split(",")[1] == "34"


def test_rank_tsv(capsys):
    code, out, _ = run_cli(capsys, "rank", KARATE, "--k", "2", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "rank\tnode\tscore"


# --------------------------------------------------------------------- compare


def test_compare_emits_golden_body(capsys):
    code, out, _ = run_cli(capsys, "compare", KARATE, "--k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "TR,BC,CNC,EC,PR,TC"
    assert lines[1] == "1,1,1,34,34,1"
    assert lines[2] == "34,34,3,1,1,34"
    assert lines[3] == "33,33,34,3,33,33"
    assert lines[4] == "2,3,32,33,2,2"
    assert lines[5] == "3,32,9,2,3,3"


def test_compare_measure_subset(capsys):
    code, out, _ = run_cli(capsys, "compare", KARATE, "--k", "2", "--measures", "tc,bc")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "TC,BC"
    assert lines[1] == "1,1"


def test_compare_empty_tag_is_skipped(capsys):
    assert run_cli(capsys, "compare", KARATE, "--measures", "TC,,TR") == run_cli(
        capsys, "compare", KARATE, "--measures", "TC,TR"
    )


def test_compare_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "compare", KARATE, "--k", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["rows"][0]["TC"] == 1
    assert doc["rows"][0]["PR"] == 34
    assert doc["rows"][1]["TC"] == 34


# ---------------------------------------------------------------------- ablate


def test_ablate_table9_karate_column(capsys):
    code, out, _ = run_cli(capsys, "ablate", KARATE, "--k", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph,measure,density,removed"
    rows = {line.split(",")[1]: line.split(",") for line in lines[1:]}
    assert rows["TC"][2] == "0.0468"
    assert rows["BC"][2] == "0.0567"
    assert rows["CNC"][2] == "0.0739"
    assert rows["TC"][3] == "1 34 33 2 3"


def test_ablate_plot_series_appended(capsys):
    code, out, _ = run_cli(capsys, "ablate", KARATE, "--k", "5", "--plot-series")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    series_lines = blocks[1].splitlines()
    assert series_lines[0] == "network,TR,BC,CNC,EC,PR,TC"
    assert series_lines[1].startswith("karate,0.0468,0.0567,0.0739,")


def test_ablate_random_baseline_row(capsys):
    code, out, _ = run_cli(capsys, "ablate", KARATE, "--k", "5", "--random-baseline", "--seed", "7")
    assert code == 0
    rand_rows = [line for line in out.splitlines() if ",RAND," in line]
    assert len(rand_rows) == 1
    density = float(rand_rows[0].split(",")[2])
    assert 0.0 < density < 0.14  # below the intact karate density


def test_ablate_json_includes_plot(capsys):
    _, out, _ = run_cli(
        capsys, "ablate", KARATE, "--k", "5", "--plot-series", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["plot"]["networks"] == ["karate"]
    assert doc["plot"]["series"]["TC"] == [0.0468]
    tc_rows = [r for r in doc["rows"] if r["measure"] == "TC"]
    assert tc_rows[0]["density"] == 0.0468
    assert tc_rows[0]["removed"] == [1, 34, 33, 2, 3]


# ------------------------------------------------------------------------ info


def test_info_counts(capsys):
    code, out, _ = run_cli(capsys, "info", KARATE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "nodes,edges,density,triangles"
    cells = lines[1].split(",")
    assert cells[0] == "34" and cells[1] == "78" and cells[3] == "45"


def test_info_empty_edgelist(tmp_path, capsys):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    code, out, _ = run_cli(capsys, "info", str(empty))
    assert code == 0
    assert out.splitlines()[1] == "0,0,undefined,0"
    code, out, _ = run_cli(capsys, "info", str(empty), "--format", "json")
    assert json.loads(out)["rows"][0]["density"] is None


def test_input_format_overrides_the_extension(tmp_path, capsys):
    golden = Path(TOY).parent
    pajek_txt = tmp_path / "karate.txt"
    pajek_txt.write_bytes(Path(KARATE).read_bytes())
    argv = ("rank", str(pajek_txt), "--measure", "tc", "--k", "5")
    got = run_cli(capsys, *argv, "--input-format", "pajek")
    assert got == (0, (golden / "rank-tc.csv").read_text(), "")
    code, out, err = run_cli(capsys, *argv, "--input-format", "auto")  # .txt reads as an edge list
    assert (code, out) == (2, "")
    assert "parse error" in err
    edges_net = tmp_path / "toy.net"
    edges_net.write_bytes(Path(TOY).read_bytes())
    want = run_cli(capsys, "info", TOY)
    assert want[0] == 0
    assert run_cli(capsys, "info", str(edges_net), "--input-format", "edgelist") == want


# ------------------------------------------------------------------ exit codes


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "rank", "no-such-file.net")
    assert code == 2
    assert out == ""  # nothing on the data stream
    assert "cannot read" in err


def test_malformed_pajek_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("*Vertices 2\n*Edges\n1 99\n")
    code, out, err = run_cli(capsys, "rank", str(bad))
    assert code == 2
    assert out == ""
    assert "line 3" in err


def test_vertex_count_above_limit_exits_2(tmp_path, capsys, monkeypatch):
    from tricent import graph

    monkeypatch.setattr(graph, "_MAX_VERTICES", 5)
    big = tmp_path / "big.net"
    big.write_text("*Vertices 6\n")
    got = run_cli(capsys, "info", str(big))
    assert got == (2, "", "tricent: parse error: line 1: vertex count above the limit of 5\n")


def test_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_bytes(b"\xff\xfe*Vertices 2\n")
    code, out, err = run_cli(capsys, "info", str(bad))
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_input_decoding_ignores_the_locale(tmp_path, capsys):
    # an ASCII locale with locale coercion and UTF-8 mode both off
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = str(Path(tricent.__file__).resolve().parent.parent)
    utf8 = tmp_path / "cafe.net"
    utf8.write_bytes('*Vertices 3\n1 "café"\n2 "b"\n3 "c"\n*Edges\n1 2\n2 3\n'.encode())
    latin1 = tmp_path / "latin1.net"
    latin1.write_bytes('*Vertices 1\n1 "café"\n'.encode("latin-1"))

    def run(path):
        argv = [sys.executable, "-m", "tricent.cli", "info", str(path)]
        return subprocess.run(
            argv, env=env, capture_output=True, encoding="utf-8", timeout=60
        )

    got = run(utf8)
    assert (got.returncode, got.stdout, got.stderr) == run_cli(capsys, "info", str(utf8))
    got = run(latin1)
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr.startswith("tricent: parse error: 'utf-8' codec can't decode byte 0xe9")


def test_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    karate = tmp_path / "karate.net"
    karate.write_bytes(bom + Path(KARATE).read_bytes())
    for argv in (("info",), ("rank", "--k", "5")):
        want = run_cli(capsys, argv[0], KARATE, *argv[1:])
        assert want[0] == 0
        assert run_cli(capsys, argv[0], str(karate), *argv[1:]) == want
    plain, marked = tmp_path / "plain.edges", tmp_path / "marked.edges"
    plain.write_bytes(b"1 2\n2 3\n")
    marked.write_bytes(bom + plain.read_bytes())
    want = run_cli(capsys, "info", str(plain))
    assert want[0] == 0
    assert run_cli(capsys, "info", str(marked)) == want


def test_cli_import_and_triangle_commands_leave_scipy_unloaded():
    # scipy is imported only on the first BC, CNC, EC or PR call
    env = dict(os.environ, PYTHONPATH=str(Path(tricent.__file__).resolve().parent.parent))
    code = """if True:
        import contextlib, io, sys
        import tricent.cli
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(scipy_modules())
        for path in sys.argv[1:]:
            for argv in [["info", path]] + [["rank", path, "--measure", m] for m in ("tc", "tr", "sdeg", "dc")]:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert tricent.cli.main(argv) == 0, argv
        print(scipy_modules())
    """
    paths = [KARATE, str(Path(__file__).resolve().parent / "golden" / "hk-332.net")]
    got = subprocess.run(
        [sys.executable, "-c", code, *paths], env=env, capture_output=True, text=True, timeout=60
    )
    assert (got.returncode, got.stdout, got.stderr) == (0, "[]\n[]\n", "")


def test_convergence_failure_exits_3(capsys):
    code, out, err = run_cli(capsys, "rank", KARATE, "--measure", "pr", "--max-iter", "1")
    assert code == 3
    assert out == ""
    assert "converge" in err


def test_unrequested_measures_are_not_computed(capsys):
    # EC cannot converge in one step, but only TC is asked for
    code, out, err = run_cli(capsys, "compare", KARATE, "--measures", "TC", "--max-iter", "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["TC", "1", "34", "33", "2", "3"]
    code, out, err = run_cli(capsys, "ablate", KARATE, "--measures", "TC", "--max-iter", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "karate,TC,0.0468,1 34 33 2 3"


def test_oversized_k_exits_4(capsys):
    code, out, err = run_cli(capsys, "ablate", KARATE, "--k", "34")
    assert code == 4
    assert out == ""
    assert "node count" in err


def test_ablate_checks_every_input_before_computing(capsys, monkeypatch, tmp_path):
    from tricent import experiments

    calls = []
    monkeypatch.setattr(experiments, "compute", lambda *a, **kw: calls.append(a))
    code, out, err = run_cli(capsys, "ablate", KARATE, TOY, "--k", "12")
    assert (code, out) == (4, "")
    assert err.endswith("toy.edges: k=12 must be smaller than the node count 12\n")
    bad = tmp_path / "bad.net"
    bad.write_text("*Edges\n1 2\n")
    code, out, err = run_cli(capsys, "ablate", KARATE, str(bad))
    assert (code, out) == (2, "")
    # k = n - 1 leaves one node, whose density is undefined
    code, out, err = run_cli(capsys, "ablate", KARATE, "--k", "33")
    assert (code, out) == (4, "")
    assert err == f"tricent: {KARATE}: k=33 leaves 1 of 34 nodes; residual density needs 2\n"
    code, out, err = run_cli(capsys, "ablate", TOY, KARATE, "--k", "11")
    assert (code, out) == (4, "")
    assert err == f"tricent: {TOY}: k=11 leaves 1 of 12 nodes; residual density needs 2\n"
    assert calls == []


@pytest.mark.parametrize(
    "command, code, err",
    [
        ("rank", 4, "tricent: measure needs a nonempty graph\n"),
        ("compare", 4, "tricent: measure needs a nonempty graph\n"),
        ("ablate", 4, "tricent: {path}: k=5 must be smaller than the node count 0\n"),
        ("info", 0, ""),
    ],
)
def test_zero_vertex_pajek(tmp_path, capsys, command, code, err):
    # a `*Vertices 0` file parses; only info has anything to report on it
    empty = tmp_path / "empty.net"
    empty.write_text("*Vertices 0\n")
    got = run_cli(capsys, command, str(empty))
    expected_out = "nodes,edges,density,triangles\n0,0,undefined,0\n" if code == 0 else ""
    assert got == (code, expected_out, err.format(path=empty))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["compare", "ablate"])
def test_repeated_measure_tag_counts_once(capsys, command, fmt):
    once = run_cli(capsys, command, KARATE, "--k", "2", "--measures", "TC", "--format", fmt)
    twice = run_cli(capsys, command, KARATE, "--k", "2", "--measures", "TC,tc", "--format", fmt)
    assert once[0] == 0
    assert twice == once


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", KARATE, "--measure", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", KARATE, "--k", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rank", KARATE, "--damping", "1.5"])
    assert exc.value.code == 2
    for tol in ("nan", "inf"):
        with pytest.raises(SystemExit) as exc:
            main(["rank", KARATE, "--measure", "ec", "--tol", tol])
        assert exc.value.code == 2
    for argv, message in [
        (["compare", KARATE, "--measures", ","], "empty measure list"),
        (["rank", KARATE, "--measure", "tc,tr"], "expected a single measure tag"),
        (["rank", KARATE, "--measure", "tc,tc"], "expected a single measure tag"),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


# --------------------------------------------------------------- determinism


def test_byte_identical_reruns(capsys):
    first = run_cli(capsys, "compare", KARATE, "--k", "5")
    second = run_cli(capsys, "compare", KARATE, "--k", "5")
    assert first == second
    third = run_cli(capsys, "ablate", KARATE, "--k", "5", "--random-baseline")
    fourth = run_cli(capsys, "ablate", KARATE, "--k", "5", "--random-baseline")
    assert third == fourth


def test_output_uses_lf_endings(capsys):
    _, out, _ = run_cli(capsys, "compare", KARATE, "--k", "3")
    assert "\r" not in out
    assert out.endswith("\n")
    assert not out.endswith("\n\n")


# ------------------------------------------------------------- contract fuzz

FUZZ_SEEDS = [KARATE, TOY, str(Path(TOY).with_name("deep.edges"))]
FUZZ_COMMANDS = (
    [["info"]]
    + [["rank", "--measure", m.value] for m in tricent.Measure]
    + [["compare"], ["ablate", "--k", "2", "--random-baseline"]]
)
# bytes a mutation inserts: digits and separators keep most files readable, the
# rest reach the readers' error paths
FUZZ_TOKENS = [b"0", b"1", b"7", b"-1", b"35", b"999", b" ", b"\n", b"\n\n", b"\t",
               b"%", b"*Edges", b"*Vertices", b"*Arcs", b"1e3", b"\xff", b"\r\n"]


def _fuzz_forms():
    """Each seed file's own bytes, plus the same graph in the other format (labels are 1..n)."""
    forms = []
    for path in map(Path, FUZZ_SEEDS):
        g = tricent.load_graph(path)
        lines = "".join(f"{u} {v}\n" for u, v in g.edges())
        pajek = f"*Vertices {g.node_count}\n*Edges\n{lines}"
        other = (".edges", lines) if path.suffix == ".net" else (".net", pajek)
        forms += [(path.suffix, path.read_bytes()), (other[0], other[1].encode())]
    return forms


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one byte overwritten, one token inserted, or one span deleted or repeated."""
    buf = bytearray(data)
    at = rng.randrange(len(buf))
    op = rng.randrange(4)
    if op == 0:
        buf[at] = rng.randrange(256)
    elif op == 1:
        buf[at:at] = rng.choice(FUZZ_TOKENS)
    elif op == 2:
        del buf[at:at + rng.randint(1, 40)]
    else:
        buf[at:at] = buf[at:at + rng.randint(1, 40)]
    return bytes(buf)


def test_cli_contract_holds_on_mutated_inputs(tmp_path, capsys, monkeypatch):
    from tricent import graph

    monkeypatch.setattr(graph, "_MAX_VERTICES", 200)  # no mutated count allocates much
    rng = random.Random(7)
    forms = _fuzz_forms()
    for case in range(75):
        suffix, data = rng.choice(forms)
        path = tmp_path / f"case{case}{suffix}"
        path.write_bytes(_mutate(rng, data))
        command, *options = FUZZ_COMMANDS[case % len(FUZZ_COMMANDS)]
        argv = [command, str(path), *options, "--format", rng.choice(["csv", "json"])]
        first = run_cli(capsys, *argv)
        code, out, _ = first
        assert code in {0, 2, 3, 4}, (case, argv, first)
        if code:
            assert out == "", (case, argv, first)
        else:
            assert run_cli(capsys, *argv) == first, (case, argv)
