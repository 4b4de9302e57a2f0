import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from fanheavy.cli import main
from fanheavy.graph import complete_graph, cycle_graph
from fanheavy.graphio import decode_graph6, encode_graph6

from conftest import petersen


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def write_g6(tmp_path, name, *graphs):
    path = tmp_path / name
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    return str(path)


def test_check_fan_false_exit1(tmp_path, capsys):
    path = write_g6(tmp_path, "c5.g6", cycle_graph(5))
    code, out, _ = run(capsys, "check", path, "--condition", "fan")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] is False and rep["violations"]


def test_check_thm5_true_exit0(tmp_path, capsys):
    path = write_g6(tmp_path, "k4.g6", complete_graph(4))
    code, out, _ = run(capsys, "check", path, "--condition", "thm5")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_malformed_exit2(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("!!not graph6!!\n")
    code, _, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2
    assert "error" in err
    # no whitespace on the first line: graph6, not an edge-list header
    path.write_text("C~!\n")
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2 and out == ""
    assert err == "error: character '!' outside graph6 range 63..126\n"


def write_nx_g6(tmp_path, name, *graphs):
    """graph6 file as networkx writes it with header=True: the header
    prefixes the first line."""
    path = tmp_path / name
    path.write_bytes(b"".join(nx.to_graph6_bytes(g, header=i == 0)
                              for i, g in enumerate(graphs)))
    return str(path)


# the content decides the format, not the file name: "auto" names the file
# with no suffix, "graph6" with the .g6 one
NAME_HINTS = pytest.mark.parametrize("suffix", ["", ".g6"], ids=["auto", "graph6"])


@NAME_HINTS
def test_check_accepts_graph6_header(tmp_path, capsys, suffix):
    path = write_nx_g6(tmp_path, "c5" + suffix, nx.cycle_graph(5))
    assert Path(path).read_text().startswith(">>graph6<<")
    code, out, err = run(capsys, "check", path, "--condition", "fan")
    assert code == 1 and err == ""
    assert json.loads(out)["violations"][0]["pair"] == [0, 2]


def test_verify_accepts_graph6_header(tmp_path, capsys):
    path = write_nx_g6(tmp_path, "corpus.g6", nx.complete_graph(4), nx.cycle_graph(5),
                       nx.petersen_graph())
    code, out, _ = run(capsys, "verify", "--corpus", path, "--theorem", "thm5")
    assert code == 0
    summary = json.loads(out)
    assert (summary["corpus_size"], summary["parse_errors"]) == (3, [])
    assert (summary["gate_passed"], summary["hypothesis_passed"]) == (3, 2)


@NAME_HINTS
def test_check_rejects_extra_graphs(tmp_path, capsys, suffix):
    path = write_g6(tmp_path, "two" + suffix, complete_graph(4), cycle_graph(5))
    code, out, err = run(capsys, "check", path, "--condition", "thm5")
    assert code == 2 and out == ""
    # the graph6 error, not an edge-list parse of the same text
    assert err.startswith("error:") and "2 graph6 lines" in err


def test_check_edge_list_input(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text("\n4\t4\n0 1\n1 2\n2 3\n3 0\n")
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] is True
    # P4 as an edge list: 0 and 2 are both light at n = 5
    path.write_text("5 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 1 and json.loads(out)["violations"][0]["pair"] == [0, 2]


def test_check_free_and_table_format(tmp_path, capsys):
    path = write_g6(tmp_path, "c6.g6", cycle_graph(6))
    code, out, _ = run(capsys, "check", path, "--condition", "free",
                       "--patterns", "claw,p7")
    assert code == 0
    assert json.loads(out) == {"condition": "free", "verdict": True, "violations": []}
    # JSON is the only output format
    code, out, err = run(capsys, "check", path, "--condition", "free", "--format", "table")
    assert code == 2 and out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [("check", "-", "--condition", "fan", "--fmt", "graph6"),
                                  ("hunt", "--r", "p7", "--s", "deer", "--corpus", "-",
                                   "--max-n", "9")],
                         ids=["check-fmt", "hunt-max-n"])
def test_removed_options_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage:") and "unrecognized arguments" in err


def test_verify_small_corpus(tmp_path, capsys):
    path = write_g6(tmp_path, "corpus.g6",
                    complete_graph(4), cycle_graph(5), petersen())
    code, out, _ = run(capsys, "verify", "--corpus", path, "--theorem", "thm5")
    assert code == 0
    summary = json.loads(out)
    assert summary["corpus_size"] == 3
    assert summary["counterexamples"] == []
    # Petersen is 2-connected but fails the hypothesis (all vertices light
    # with light distance-2 pairs in its induced paths)
    assert summary["gate_passed"] == 3
    assert summary["hypothesis_passed"] == 2


def test_verify_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run(capsys, "verify", "--corpus", path, "--theorem", "thm1")
    assert code == 0
    assert json.loads(out)["corpus_size"] == 0


def test_verify_reports_parse_errors_and_continues(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("C~\n!!bad!!\nD~{\n")
    code, out, _ = run(capsys, "verify", "--corpus", path, "--theorem", "thm5")
    assert code == 0
    summary = json.loads(out)
    assert summary["corpus_size"] == 2
    assert summary["parse_errors"][0]["line"] == 2


def test_verify_workers_match_serial(tmp_path, capsys):
    graphs = [complete_graph(n) for n in range(3, 8)] + [petersen(), cycle_graph(6)]
    path = tmp_path / "corpus.g6"
    # a malformed line, and K2 ("A_"): without the gate it passes the fan
    # hypothesis (no distance-2 pair) and is not Hamiltonian
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs) + "!!bad!!\nA_\n")
    for argv, counterexamples in ((("--theorem", "thm4"), []),
                                  (("--theorem", "thm1", "--no-2connected-gate"), ["A_"])):
        code1, out1, _ = run(capsys, "verify", "--corpus", path, *argv)
        code2, out2, _ = run(capsys, "verify", "--corpus", path, *argv, "--workers", "2")
        s1, s2 = json.loads(out1), json.loads(out2)
        s1.pop("seconds"), s2.pop("seconds")
        assert s1 == s2 and code1 == code2 == (1 if counterexamples else 0)
        assert s1["counterexamples"] == counterexamples
        assert s1["corpus_size"] == 8
        assert [e["line"] for e in s1["parse_errors"]] == [8]


def test_hunt_empty_corpus(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run(capsys, "hunt", "--r", "p7", "--s", "deer",
                       "--corpus", path)
    assert code == 0
    assert json.loads(out)["counterexample"] is None


def test_hunt_finds_planted_counterexample():
    # a 9-vertex graph that is 2-connected, claw-f-heavy, and
    # non-Hamiltonian; any {claw,claw,claw} hunt must flag it
    from fanheavy.cli import hunt
    from fanheavy.conditions import is_R_f_heavy
    from fanheavy.cycles import find_hamilton_cycle
    from fanheavy.patterns import pattern
    planted = "HHMNK_K"
    g = decode_graph6(planted)
    assert g.is_two_connected()
    assert is_R_f_heavy(g, pattern("claw")).verdict
    assert find_hamilton_cycle(g) is None
    result = hunt([encode_graph6(cycle_graph(5)), planted], "claw", "claw")
    assert result.counterexample == planted
    assert result.triple == ("claw", "claw", "claw")
    assert result.scanned == 2


def test_hunt_no_hit_under_theorem_triple(tmp_path, capsys):
    path = write_g6(tmp_path, "corpus.g6", petersen(), cycle_graph(5),
                    complete_graph(5))
    code, out, _ = run(capsys, "hunt", "--r", "p7", "--s", "deer", "--corpus", path)
    assert code == 0
    assert json.loads(out) == {"counterexample": None, "parse_errors": [], "scanned": 3,
                               "triple": ["claw", "p7", "deer"]}


def test_hunt_reports_parse_errors(tmp_path, capsys):
    # malformed lines are reported, as by verify, and do not decide the exit code
    path = tmp_path / "corpus.g6"
    path.write_text("!!bad!!\nC~\n")
    code, out, _ = run(capsys, "hunt", "--r", "p7", "--s", "deer", "--corpus", path)
    assert code == 0
    result = json.loads(out)
    assert result["scanned"] == 1 and result["counterexample"] is None
    assert result["parse_errors"] == [
        {"line": 1, "error": "character '!' outside graph6 range 63..126"}]
    path.write_text("C~\n!!bad!!\nHHMNK_K\n")
    code, out, _ = run(capsys, "hunt", "--r", "claw", "--s", "claw", "--corpus", path)
    assert code == 1
    result = json.loads(out)
    assert (result["counterexample"], result["scanned"]) == ("HHMNK_K", 2)
    assert [e["line"] for e in result["parse_errors"]] == [2]


def test_witness_graph6_roundtrip(capsys):
    code, out, _ = run(capsys, "witness", "--n", "16", "--emit", "graph6")
    assert code == 0
    g = decode_graph6(out.strip())
    assert g.n == 16 and g.num_edges() == 61


def test_witness_odd_n_exit2(capsys):
    code, _, err = run(capsys, "witness", "--n", "15")
    assert code == 2 and "error" in err


def test_witness_graph6_beyond_tier_exit2(capsys):
    code, out, err = run(capsys, "witness", "--n", "64", "--emit", "graph6")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_witness_report(capsys):
    code, out, _ = run(capsys, "witness", "--n", "16", "--emit", "report")
    assert code == 0
    rep = json.loads(out)
    assert rep["flags"]["hamiltonian"]["verified"] is True


def test_gen_two_connected_counts(capsys):
    code, out, _ = run(capsys, "gen", "--n", "5", "--two-connected", "--reduce")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(decode_graph6(s).is_two_connected() for s in lines)


@pytest.mark.parametrize("argv", [("--n", "8"), ("--n", "10", "--reduce")],
                         ids=["labeled", "reduced"])
def test_gen_size_guard_exit2(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_gen_into_closed_pipe_exits_quietly():
    # the read end is closed before the command starts, so its first write
    # fails with EPIPE, as when piping into `head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    try:
        proc = subprocess.run([sys.executable, "-m", "fanheavy.cli", "gen", "--n", "5"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


def test_unknown_condition_exit2(tmp_path, capsys):
    path = write_g6(tmp_path, "k4.g6", complete_graph(4))
    code = main(["check", path, "--condition", "bogus"])
    assert code == 2
