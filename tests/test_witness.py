import hashlib
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from fanheavy.cli import main
from fanheavy.conditions import satisfies_fan, theorem4_condition
from fanheavy.cycles import is_valid_cycle
from fanheavy.patterns import pattern
from fanheavy.witness import build_witness, classify_witness, special_vertices

from conftest import to_nx


def test_build_witness_16_shape():
    g = build_witness(16)
    assert g.n == 16
    assert g.num_edges() == 61
    s = special_vertices(16)
    assert g.degree(s["x"]) == 10
    assert g.degree(s["y"]) == g.degree(s["z"]) == 11
    for c in "uvwt":
        assert g.degree(s[c]) == 2
    assert g.degree(0) == 10  # clique-A vertex: 7 inside A + x,y,z
    assert g.degree(8) == 2   # the degenerate single-vertex B: u and v only


def test_build_witness_18_shape():
    g = build_witness(18)
    assert g.n == 18
    s = special_vertices(18)
    assert g.degree(s["u"]) == g.degree(s["v"]) == 3  # B = K2 plus the path edge
    # B vertices: one B-neighbor plus u and v
    assert g.degree(9) == 3


def test_build_witness_rejects_bad_n():
    # odd, below 16, or beyond the graph6 tier (n <= 62)
    for n in (15, 17, 14, 0, -2, 63, 64, 10**9):
        with pytest.raises(ValueError):
            build_witness(n)


def test_build_witness_deterministic_no_isolated():
    assert build_witness(20) == build_witness(20)
    g = build_witness(20)
    assert all(g.degree(v) > 0 for v in range(g.n))


# sha256 of the stdout of `witness --n N --emit report`
REPORT_SHA256 = {
    16: "663325e687d498efe8d4b469671b0e869b7044ecc97743f0cc32e3c6453575c4",
    18: "6b21e7529742c70579bc8748963b42be9d4f3f3babb5bd2cc36dd97f382386ab",
    20: "02b18cb9311073b8050d1324f05887b7845aa8dac33d3c5b4cd97c492418b8ad",
}


@pytest.mark.parametrize("n", sorted(REPORT_SHA256))
def test_witness_report_bytes_pinned(capsys, n):
    assert main(["witness", "--n", str(n), "--emit", "report"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[n]


@pytest.mark.parametrize("n", [16, 18, 20])
def test_classify_witness_flags(n):
    # witnesses re-checked by networkx
    g = build_witness(n)
    h = to_nx(g)
    rep = classify_witness(g)
    assert rep["flags"]["hamiltonian"]["verified"]
    cycle = tuple(rep["flags"]["hamiltonian"]["detail"]["cycle"])
    assert is_valid_cycle(g, cycle) and len(cycle) == n

    assert not rep["flags"]["fan_condition"]["verified"]
    v = rep["flags"]["fan_condition"]["detail"]["violations"][0]
    u, w = v["pair"]
    assert nx.shortest_path_length(h, u, w) == 2
    assert 2 * g.degree(u) < n and 2 * g.degree(w) < n

    assert not rep["flags"]["thm4_condition"]["verified"]
    v = rep["flags"]["thm4_condition"]["detail"]["violations"][0]
    assert v["pattern"] == "p7"
    assert nx.is_isomorphic(h.subgraph(v["subset"]), to_nx(pattern("p7").graph))

    assert rep["flags"]["claw_free"]["verified"]

    # the thm5 verdict must be definitive; when it disagrees with the
    # construction's claim, the violation must re-validate
    assert rep["flags"]["thm5_condition"]["verified"] in (True, False)
    if not rep["flags"]["thm5_condition"]["verified"]:
        v = rep["flags"]["thm5_condition"]["detail"]["violations"][0]
        sub = h.subgraph(v["subset"])
        assert nx.is_isomorphic(sub, to_nx(pattern(v["pattern"]).graph))
        u, w = v["pair"]
        assert nx.shortest_path_length(sub, u, w) == 2
        assert 2 * g.degree(u) < n and 2 * g.degree(w) < n


def test_witness_16_report_pinned():
    flags = classify_witness(build_witness(16))["flags"]
    assert flags["hamiltonian"]["detail"]["cycle"] == \
        [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 12, 8, 13, 15, 11]
    (p7,) = flags["thm4_condition"]["detail"]["violations"]
    assert (p7["pattern"], p7["subset"]) == ("p7", [0, 8, 10, 12, 13, 14, 15])
    assert flags["fan_condition"]["detail"]["violations"][0]["pair"] == [8, 14]


def test_classify_witness_reproducible():
    g = build_witness(16)
    assert classify_witness(g) == classify_witness(g)


def test_classify_agrees_with_direct_predicates():
    g = build_witness(18)
    rep = classify_witness(g)
    assert rep["flags"]["fan_condition"]["verified"] == satisfies_fan(g).verdict
    assert rep["flags"]["thm4_condition"]["verified"] == theorem4_condition(g).verdict


def test_report_rechecks_the_cycle_under_python_O():
    # `python -O` strips asserts, so the re-check must be explicit.  The
    # sequence 0..15 is no cycle of the n = 16 witness: A = 0..7 and B = {8},
    # so 7-8 is not an edge.
    code = ("import fanheavy.witness as w\n"
            "w.find_hamilton_cycle = lambda g: tuple(range(g.n))\n"
            "try:\n"
            "    w.classify_witness(w.build_witness(16))\n"
            "except RuntimeError as exc:\n"
            "    print('RuntimeError:', exc)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RuntimeError:") and "n=16" in proc.stdout, proc.stdout
