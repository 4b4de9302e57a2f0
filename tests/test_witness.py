import networkx as nx
import pytest

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


@pytest.mark.parametrize("n", [16, 18, 20])
def test_classify_witness_flags(n):
    # witnesses re-checked by networkx
    g = build_witness(n)
    h = to_nx(g)
    rep = classify_witness(g)
    assert rep.hamiltonian.verified
    cycle = tuple(rep.hamiltonian.detail["cycle"])
    assert is_valid_cycle(g, cycle) and len(cycle) == n

    assert not rep.fan_condition.verified
    v = rep.fan_condition.detail["violations"][0]
    u, w = v["pair"]
    assert nx.shortest_path_length(h, u, w) == 2
    assert 2 * g.degree(u) < n and 2 * g.degree(w) < n

    assert not rep.thm4_condition.verified
    v = rep.thm4_condition.detail["violations"][0]
    assert v["pattern"] == "p7"
    assert nx.is_isomorphic(h.subgraph(v["subset"]), to_nx(pattern("p7").graph))

    assert rep.claw_free.verified

    # the thm5 verdict must be definitive; when it disagrees with the
    # construction's claim, the violation must re-validate
    assert rep.thm5_condition.verified in (True, False)
    if not rep.thm5_condition.verified:
        v = rep.thm5_condition.detail["violations"][0]
        sub = h.subgraph(v["subset"])
        assert nx.is_isomorphic(sub, to_nx(pattern(v["pattern"]).graph))
        u, w = v["pair"]
        assert nx.shortest_path_length(sub, u, w) == 2
        assert 2 * g.degree(u) < n and 2 * g.degree(w) < n


def test_witness_16_report_pinned():
    flags = classify_witness(build_witness(16)).to_dict()["flags"]
    assert flags["hamiltonian"]["detail"]["cycle"] == \
        [0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 12, 8, 13, 15, 11]
    (p7,) = flags["thm4_condition"]["detail"]["violations"]
    assert (p7["pattern"], p7["subset"]) == ("p7", [0, 8, 10, 12, 13, 14, 15])
    assert flags["fan_condition"]["detail"]["violations"][0]["pair"] == [8, 14]


def test_classify_witness_reproducible():
    g = build_witness(16)
    assert classify_witness(g).to_dict() == classify_witness(g).to_dict()


def test_classify_agrees_with_direct_predicates():
    g = build_witness(18)
    rep = classify_witness(g)
    assert rep.fan_condition.verified == satisfies_fan(g).verdict
    assert rep.thm4_condition.verified == theorem4_condition(g).verdict
