import pytest

from fanheavy.conditions import satisfies_fan, theorem4_condition
from fanheavy.cycles import is_valid_cycle
from fanheavy.patterns import is_isomorphic_small, pattern
from fanheavy.witness import (WitnessSpecError, build_witness,
                              classify_witness, special_vertices)


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
    for n in (15, 17, 14, 0, -2):
        with pytest.raises(WitnessSpecError):
            build_witness(n)


def test_build_witness_deterministic_no_isolated():
    assert build_witness(20) == build_witness(20)
    g = build_witness(20)
    assert all(g.degree(v) > 0 for v in range(g.n))


@pytest.mark.parametrize("n", [16, 18, 20])
def test_classify_witness_flags(n):
    g = build_witness(n)
    rep = classify_witness(g)
    assert rep.hamiltonian.verified
    cycle = tuple(rep.hamiltonian.detail["cycle"])
    assert is_valid_cycle(g, cycle) and len(cycle) == n

    assert not rep.fan_condition.verified
    v = rep.fan_condition.detail["violations"][0]
    u, w = v["pair"]
    assert g.distance(u, w) == 2
    assert 2 * g.degree(u) < n and 2 * g.degree(w) < n

    assert not rep.thm4_condition.verified
    v = rep.thm4_condition.detail["violations"][0]
    assert v["pattern"] == "p7"
    sub, _ = g.induced(v["subset"])
    assert is_isomorphic_small(sub, pattern("p7").graph)

    assert rep.claw_free.verified

    # the thm5 verdict must be definitive; when it disagrees with the
    # construction's claim, the violation must re-validate
    assert rep.thm5_condition.verified in (True, False)
    if not rep.thm5_condition.verified:
        v = rep.thm5_condition.detail["violations"][0]
        subset = v["subset"]
        sub, vmap = g.induced(subset)
        assert is_isomorphic_small(sub, pattern(v["pattern"]).graph)
        u, w = v["pair"]
        iu, iw = vmap.index(u), vmap.index(w)
        assert sub.distance(iu, iw) == 2
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
