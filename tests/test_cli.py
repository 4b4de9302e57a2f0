import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from fanheavy.cli import (CONDITIONS, THEOREMS, evaluate_condition, hunt, main,
                          theorem_hypothesis, verify_corpus)
from fanheavy.conditions import is_R_f_heavy
from fanheavy.cycles import find_hamilton_cycle
from fanheavy.graphio import decode_graph6, encode_graph6
from fanheavy.patterns import _search_plan, pattern

from conftest import (_reps, complete_graph, cycle_graph, k23, petersen, pinned_hosts,
                      random_graph)


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


@pytest.mark.parametrize("text", ["C~\x1f\n", "\x1cC~\n"])
def test_check_rejects_unicode_only_whitespace_exit2(tmp_path, capsys, text):
    path = tmp_path / "k4.g6"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2 and out == ""
    assert err.startswith("error: character ") and err.count("\n") == 1


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
    path.write_text("3 2\n0 1\n1 0\n")
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2 and out == "" and err == "error: line 3: repeated edge (1,0)\n"


@pytest.mark.parametrize("n", [63, 10**15])
def test_check_edge_list_beyond_graph6_limit_exit2(tmp_path, capsys, n):
    # rejected from the header, before n rows are allocated
    path = tmp_path / "big.txt"
    path.write_text(f"{n} 0\n")
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2 and out == ""
    assert err == f"error: line 1: n={n} exceeds the supported n <= 62\n"


def test_check_edge_list_at_graph6_limit(tmp_path, capsys):
    path = tmp_path / "path62.txt"
    path.write_text("62 61\n" + "".join(f"{v} {v + 1}\n" for v in range(61)))
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 1 and err == ""
    assert json.loads(out)["violations"][0]["n"] == 62
    path.write_text("-1 0\n")
    code, out, err = run(capsys, "check", str(path), "--condition", "fan")
    assert code == 2 and err == "error: vertex count must be >= 0, got -1\n"


def test_check_free_and_table_format(tmp_path, capsys):
    path = write_g6(tmp_path, "c6.g6", cycle_graph(6))
    code, out, _ = run(capsys, "check", path, "--condition", "free",
                       "--patterns", "claw,p7")
    assert code == 0
    assert json.loads(out) == {"condition": "free", "verdict": True, "violations": []}
    # JSON is the only output format
    code, out, err = run(capsys, "check", path, "--condition", "free", "--format", "table")
    assert code == 2 and out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize("condition,patterns", [("thm5", "nosuchpattern"), ("fan", "p5")])
def test_check_refuses_patterns_the_condition_ignores(tmp_path, capsys, condition, patterns):
    # only f-heavy and free take --patterns; the others refuse one, before
    # the file is read
    path = write_g6(tmp_path, "k5.g6", complete_graph(5))
    for graph_file in (path, tmp_path / "missing.g6"):
        code, out, err = run(capsys, "check", graph_file, "--condition", condition,
                             "--patterns", patterns)
        assert (code, out) == (2, "")
        assert err.startswith("error: --patterns") and err.count("\n") == 1, err


@pytest.mark.parametrize("spec", ["claw,,p7", "p7,"])
def test_check_refuses_empty_pattern_entries(tmp_path, capsys, spec):
    path = write_g6(tmp_path, "k5.g6", complete_graph(5))
    code, out, err = run(capsys, "check", path, "--condition", "f-heavy", "--patterns", spec)
    assert (code, out) == (2, "")
    assert err == f"error: empty entry in pattern list {spec!r}\n"


@pytest.mark.parametrize("spec", ["claw\x1f,p7", "claw,\x85p7", "\u3000claw"])
def test_check_refuses_unicode_only_whitespace_in_patterns(tmp_path, capsys, spec):
    # entries are stripped of ASCII whitespace only, like the graph readers
    path = write_g6(tmp_path, "k5.g6", complete_graph(5))
    code, out, err = run(capsys, "check", path, "--condition", "f-heavy", "--patterns", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown pattern") and "Traceback" not in err


def test_check_custom_pattern_reports_first_light_copy(tmp_path, capsys):
    # K2 + P3 (`DCW`) has three vertex orbits, so the walk by smallest
    # vertex runs three kernels per start; its first light copy misses 0
    path = tmp_path / "host.g6"
    path.write_text("I[iN?OOgw\n")
    code, out, _ = run(capsys, "check", path, "--condition", "f-heavy", "--patterns", "DCW")
    assert code == 1
    assert json.loads(out) == {"condition": "{g6:DCW}-f-heavy", "verdict": False, "violations": [
        {"kind": "light-pair", "n": 10, "pattern": "g6:DCW", "subset": [1, 2, 3, 4, 8],
         "pair": [1, 4], "degrees": [2, 4]}]}


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


@pytest.mark.parametrize("argv", [("verify", "--theorem", "thm1"),
                                  ("hunt", "--r", "p7", "--s", "deer"),
                                  ("verify", "--theorem", "thm1", "--workers", "2")],
                         ids=["verify", "hunt", "verify-workers2"])
def test_corpus_not_utf8_exit2(tmp_path, capsys, argv):
    # with workers, the decode error is raised in the pool's task feeder
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C~\n\xff\xfe\n")
    code, out, err = run(capsys, *argv, "--corpus", path)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_reads_its_corpus_lazily(monkeypatch):
    taken = []

    def lines():
        for line in ("C~", "A_", "D~{"):
            taken.append(line)
            yield line
    at_call = []
    hypothesis = theorem_hypothesis

    def spy(g, theorem):
        at_call.append(len(taken))
        return hypothesis(g, theorem)
    monkeypatch.setattr("fanheavy.cli.theorem_hypothesis", spy)
    summary = verify_corpus(lines(), "thm1", require_2connected=False)
    assert at_call == [1, 2, 3] and summary.corpus_size == 3


def test_verify_pool_is_at_most_the_cpu_count(tmp_path, capsys, monkeypatch):
    # the fake pool starts no process: it serves imap with the built-in map
    sizes = []

    class FakePool(contextlib.nullcontext):
        def __init__(self, processes):
            super().__init__()
            sizes.append(processes)

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)
    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    path = write_g6(tmp_path, "corpus.g6", k23(), cycle_graph(5), complete_graph(4))
    docs = []
    for workers in ("1", "1000000"):
        code, out, _ = run(capsys, "verify", "--corpus", path, "--theorem", "thm1",
                           "--workers", workers)
        assert code == 0
        docs.append(json.loads(out))
        docs[-1].pop("seconds")
    assert len(sizes) == 1 and 1 <= sizes[0] <= (os.cpu_count() or 1)
    assert docs[0] == docs[1]


def test_verify_workers_match_serial_across_chunks(capsys, monkeypatch):
    # 1201 stdin lines span several of the pool's 256-graph chunks
    text = "C~\nA_\n" * 300 + "!!bad!!\n" + "C~\nA_\n" * 300
    docs = []
    for workers in ("1", "2"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "verify", "--corpus", "-", "--theorem", "thm1",
                           "--no-2connected-gate", "--workers", workers)
        assert code == 1
        doc = json.loads(out)
        assert doc.pop("seconds") >= 0
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["counterexamples"] == ["A_"] * 600
    assert (docs[0]["corpus_size"], docs[0]["hamiltonian"]) == (1200, 600)
    assert [e["line"] for e in docs[0]["parse_errors"]] == [601]


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


# the last three are decimal digits outside ASCII, which `int` would read
@pytest.mark.parametrize("workers", ["0", "-3", "\u0661", "\uff12", "2\u0662"])
def test_verify_rejects_nonpositive_workers(tmp_path, capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    path = write_g6(tmp_path, "corpus.g6", complete_graph(4))
    code, out, err = run(capsys, "verify", "--corpus", path, "--theorem", "thm5",
                         "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("usage:") and f"--workers: expected an integer >= 1, got '{workers}'" in err


def test_verify_rejects_unknown_theorem_before_reading():
    def lines():
        raise AssertionError("the corpus was read")
        yield
    for corpus in (["A_", "B?"], ["C~"], lines()):
        with pytest.raises(ValueError, match="unknown theorem 'thm9'"):
            verify_corpus(corpus, "thm9")


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
    planted = "HHMNK_K"
    g = decode_graph6(planted)
    assert g.is_two_connected()
    assert is_R_f_heavy(g, pattern("claw")).verdict
    assert find_hamilton_cycle(g) is None
    result = hunt([encode_graph6(cycle_graph(5)), planted], "claw", "claw")
    assert result == {"triple": ["claw", "claw", "claw"], "counterexample": planted,
                      "scanned": 2, "parse_errors": []}


def test_hunt_runs_the_hamilton_search_only_where_the_triple_holds(monkeypatch):
    # K_{2,3} is 2-connected and fails the claw condition; C5 meets the
    # triple and is Hamiltonian
    searched = []

    def counted(g):
        searched.append(encode_graph6(g))
        return find_hamilton_cycle(g)
    monkeypatch.setattr("fanheavy.cli.find_hamilton_cycle", counted)
    corpus = [encode_graph6(k23())] * 3 + [encode_graph6(cycle_graph(5))]
    result = hunt(corpus, "p7", "deer")
    assert searched == [encode_graph6(cycle_graph(5))]
    assert result["counterexample"] is None


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


def test_witness_report_beyond_tier_exit2(capsys):
    # n is checked before the construction is built, for every --emit
    code, out, err = run(capsys, "witness", "--n", "64", "--emit", "report")
    assert code == 2 and out == ""
    assert err == "error: witness requires an even n in 16..62, got 64\n"


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


def _run_cli_process(stdout, *argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "fanheavy.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)


def test_gen_into_closed_pipe_exits_quietly():
    # the read end is closed before the command starts, so its first write
    # fails with EPIPE, as when piping into `head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_process(write_end, "gen", "--n", "5")
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [("gen", "--n", "3"), ("witness", "--n", "16", "--emit", "graph6")],
                         ids=["gen", "witness"])
def test_write_error_exits_2_with_one_error_line(argv):
    # every write to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full:
        proc = _run_cli_process(full, *argv)
    err = proc.stderr.decode()
    assert proc.returncode == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_unknown_condition_exit2(tmp_path, capsys):
    path = write_g6(tmp_path, "k4.g6", complete_graph(4))
    code = main(["check", path, "--condition", "bogus"])
    assert code == 2


@pytest.mark.parametrize("condition", ["free", "f-heavy"])
def test_check_rejects_empty_pattern(tmp_path, capsys, condition):
    # '?' is the graph6 string of K0, an induced subgraph of every graph
    path = write_g6(tmp_path, "c4.g6", cycle_graph(4))
    code, out, err = run(capsys, "check", path, "--condition", condition,
                         "--patterns", "?")
    assert code == 2 and out == ""
    assert err == "error: pattern '?' has no vertices\n"


def test_hunt_rejects_empty_pattern(tmp_path, capsys):
    path = write_g6(tmp_path, "corpus.g6", cycle_graph(5))
    code, out, err = run(capsys, "hunt", "--r", "?", "--s", "deer", "--corpus", path)
    assert code == 2 and out == ""
    assert err == "error: pattern '?' has no vertices\n"


def test_custom_pattern_is_built_once_per_token(monkeypatch):
    # "Dhs" (the house, C5 plus a chord) is a token no other test uses, so
    # no earlier test has built its plans
    built = []

    def counted(p, root):
        built.append(root)
        return _search_plan(p, root)
    monkeypatch.setattr("fanheavy.patterns._search_plan", counted)
    hosts = _reps(7)[::10]
    assert sum(not evaluate_condition(g, "f-heavy", "Dhs").verdict for g in hosts) > 10
    house = pattern("Dhs")
    assert house is pattern("Dhs")
    assert sorted(built) == sorted(house.rooted)


def test_json_documents_are_pinned():
    # pins the JSON that `check`, `verify` (less its timing) and `hunt`
    # print: every condition, with the default patterns and a custom
    # graph6 one (C5), on every class with n <= 7 and seeded random hosts
    rng = random.Random(15)
    hosts = list(pinned_hosts())
    hosts += [random_graph(rng, rng.randint(4, 12), rng.random()) for _ in range(200)]
    digest = hashlib.sha256()
    for g in hosts:
        for name in CONDITIONS:
            for spec in ("claw,p7,deer", "Dhc") if name in ("f-heavy", "free") else ("",):
                doc = evaluate_condition(g, name, spec).to_dict()
                digest.update(json.dumps(doc, sort_keys=True).encode())
    corpus = [encode_graph6(g) for g in hosts[::97]] + ["!!bad!!", "A_", "HHMNK_K", "C~~"]
    for theorem in THEOREMS:
        for gate in (True, False):
            doc = verify_corpus(corpus, theorem, require_2connected=gate).to_dict()
            assert doc.pop("seconds") >= 0
            digest.update(json.dumps(doc, sort_keys=True).encode())
    for r, s in (("p7", "deer"), ("claw", "claw"), ("Dhc", "hourglass")):
        digest.update(json.dumps(hunt(corpus, r, s), sort_keys=True).encode())
    assert digest.hexdigest() == "66302f5a4ae93966dc2ba1ca07c2ccf2c3f894f2d847dd02fc2e2ccc455e94db"
