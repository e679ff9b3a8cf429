import ast
import dataclasses
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles

from infodist import corpus, graph, reductions, witnesses
from infodist.codes import check_decodable, propagate
from infodist.errors import DeadlineTooSmall, NotACutset
from infodist.graph import CheckResult, enumerate_min_cutsets, enumerate_paths, routing_domain
from infodist.reductions import (
    DeadlineInstance,
    IndexCodingInstance,
    acyclic_reindex,
    check_c0_distributive,
    check_p_extendable,
    deadline_to_time_extended,
    decide_index_rawness,
    find_extendable_paths,
    index_to_network,
    search_deadline_certificate,
    shifted_witness,
    side_information_graph,
)
from infodist.witnesses import family_violation, verify_witness

FIG3 = IndexCodingInstance(4, 1, (frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({2, 3})))
MUTUAL = IndexCodingInstance(2, 1, (frozenset({2}), frozenset({1})))


def test_index_instance_validation():
    with pytest.raises(ValueError):
        IndexCodingInstance(2, 1, (frozenset({1}), frozenset()))


def test_index_to_network_fig3_shape():
    net, _ = index_to_network(FIG3)
    assert len(net.nodes) == 10
    side = [(e.tail, e.head) for e in net.edges[9:]]
    assert side == [("s1", "d2"), ("s1", "d3"), ("s2", "d3"), ("s2", "d4"), ("s3", "d4")]


def test_index_to_network_k1_chain():
    net, wit = index_to_network(IndexCodingInstance(1, 1, (frozenset(),)))
    assert len(net.nodes) == 4
    assert [(e.tail, e.head) for e in net.edges] == [("s1", "u"), ("u", "v"), ("v", "d1")]
    assert verify_witness(net, wit).ok


def test_index_to_network_mutual_side_edges():
    net, _ = index_to_network(MUTUAL)
    pairs = {(e.tail, e.head) for e in net.edges}
    assert ("s2", "d1") in pairs and ("s1", "d2") in pairs


def test_canonical_witness_fig3_verifies():
    net, wit = index_to_network(FIG3)
    assert oracles.scan_cumulative(net, wit.cuts).ok
    assert verify_witness(net, wit).ok


def test_side_information_graph_printed_direction():
    g = side_information_graph(FIG3)
    assert g == {1: (), 2: (1,), 3: (1, 2), 4: (2, 3)}


def test_acyclic_reindex_examples():
    r = acyclic_reindex(side_information_graph(FIG3))
    assert r.acyclic
    pos = {v: i for i, v in enumerate(r.order)}
    for j, targets in side_information_graph(FIG3).items():
        for i in targets:
            assert pos[j] < pos[i]
    r = acyclic_reindex(side_information_graph(MUTUAL))
    assert not r.acyclic
    assert set(r.cycle) == {1, 2}
    empty = IndexCodingInstance(3, 1, (frozenset(), frozenset(), frozenset()))
    assert acyclic_reindex(side_information_graph(empty)).order == (1, 2, 3)


def test_rawness_examples():
    rep = decide_index_rawness(FIG3)
    assert rep.raw and rep.l_min == 4 * FIG3.m
    assert not decide_index_rawness(MUTUAL).raw
    k1 = decide_index_rawness(IndexCodingInstance(1, 3, (frozenset(),)))
    assert k1.raw and k1.l_min == 3


def test_mutual_xor_code_beats_raw_rate():
    # not raw, and the length-m broadcast of X1+X2 decodes both sessions
    net, _ = index_to_network(MUTUAL)
    xor = {
        0: [("session", 1, 0, 1)],
        1: [("session", 2, 0, 1)],
        2: [("edge", 0, 1), ("edge", 1, 1)],
        3: [("edge", 2, 1)],
        4: [("edge", 2, 1)],
        5: [("session", 2, 0, 1)],
        6: [("session", 1, 0, 1)],
    }
    code = propagate(net, (1, 1), xor, 2)
    assert check_decodable(code) == (True, True)


def test_theorem2_three_routes_agree_small_sweep():
    rng = random.Random(42)
    for _ in range(100):
        K = rng.randint(1, 5)
        side = []
        for i in range(1, K + 1):
            others = [j for j in range(1, K + 1) if j != i]
            side.append(frozenset(j for j in others if rng.random() < 0.4))
        inst = IndexCodingInstance(K, 1, tuple(side))
        net, wit = index_to_network(inst)
        a = acyclic_reindex(side_information_graph(inst)).acyclic
        b = decide_index_rawness(inst).raw
        c = oracles.find_cumulative_order(net, list(wit.cuts)) is not None
        d = oracles.dfs_acyclic(side_information_graph(inst))
        assert a == b == c == d


# ---------------------------------------------------------------------------
# deadline reduction


def fig4():
    return DeadlineInstance.from_json(corpus.load("fig4-deadline"))


def fig4_c0(tnet):
    return frozenset(
        {
            tnet.label_to_id[("base", 7, 5)],  # e8[5]
            tnet.label_to_id[("base", 5, 2)],  # e6[2]
            tnet.label_to_id[("base", 7, 6)],  # e8[6]
        }
    )


def test_deadline_too_small():
    inst = DeadlineInstance(
        edges=((("s"), ("d"), 2),), source="s", sink="d", tau=1, horizon=0
    )
    with pytest.raises(DeadlineTooSmall):
        deadline_to_time_extended(inst)


def test_trivial_single_edge_chain():
    inst = DeadlineInstance(
        edges=((("s"), ("d"), 1),), source="s", sink="d", tau=1, horizon=0
    )
    tnet = deadline_to_time_extended(inst)
    assert tnet.net.num_sessions == 1
    assert tnet.mincut0 == 1
    verdict = search_deadline_certificate(tnet)
    assert verdict is not None and verdict.status == "yes"


def test_fig4_c0_is_minimum_cutset():
    tnet = deadline_to_time_extended(fig4())
    dom = routing_domain(tnet.net, 1)
    c0 = fig4_c0(tnet)
    assert tnet.mincut0 == 3
    assert c0 <= dom
    sets, _ = enumerate_min_cutsets(tnet.net, "#s0", "#d0")
    assert c0 in sets


def test_fig4_c0_distributive_and_ordering():
    tnet = deadline_to_time_extended(fig4())
    ordering = check_c0_distributive(tnet, fig4_c0(tnet))
    assert ordering is not None
    labels = [tnet.label_str(e) for e in ordering]
    assert labels.index("e8[5]") < labels.index("e8[6]")


def test_fig4_paths_extendable_and_verdict_yes():
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    paths = find_extendable_paths(tnet, c0)
    assert paths is not None
    assert check_p_extendable(tnet, c0, paths).ok
    assert verify_witness(tnet.net, shifted_witness(tnet, check_c0_distributive(tnet, c0), paths)).ok
    verdict = search_deadline_certificate(tnet)
    assert verdict.status == "yes"
    printed = verdict.to_json_dict()
    assert printed["generic"] == {
        "cut_invariants": True,
        "cumulative": True,
        "distributive": True,
        "extendable": True,
    }
    assert printed["lemma_discrepancies"] == []
    assert verify_witness(tnet.net, verdict.witness).ok


def test_fig4_shift_invariance():
    tnet = deadline_to_time_extended(fig4())
    dom0 = routing_domain(tnet.net, 1)
    for t in (1, 5, tnet.inst.horizon):
        expected = set()
        for eid in dom0:
            label = tnet.labels[eid]
            expected.add(tnet.label_to_id[tnet.shift_label(label, t)])
        assert routing_domain(tnet.net, t + 1) == frozenset(expected)


def test_fig4_alpha_shift_identity_spot_checks():
    tnet = deadline_to_time_extended(fig4())
    from infodist.graph import alpha

    # alpha is the 1-based session position; the paper's index is 0-based.
    assert alpha(tnet.net, tnet.label_to_id[("base", 7, 5)]) == 1   # t=5, delta=5
    assert alpha(tnet.net, tnet.label_to_id[("base", 7, 6)]) == 2   # t=6, delta=5
    assert alpha(tnet.net, tnet.label_to_id[("base", 5, 2)]) == 1   # t=2, delta=2
    assert alpha(tnet.net, tnet.label_to_id[("base", 5, 3)]) == 2


def _fails_cut_invariants(*_):
    raise ValueError("stub failure")


# Per generic re-check of a shifted witness, named by the check it once had
# as a public function: the function witness_checks calls for it (the first
# two share one reach pass), a failing stand-in, and the (tag, violation)
# verify_witness names.
FAILED_GENERIC = {
    "validate_cut_sequence": ("_validate_cuts", _fails_cut_invariants, ("cuts", "stub failure")),
    "is_cumulative": ("_cumulative", lambda *_: CheckResult(False, (2, 1, ())),
                      ("cumulative", (2, 1, ()))),
    "is_distributive": ("is_distributive",
                        lambda *_, strict: CheckResult(False, (0, 1, 2, "eq20")),
                        ("distributive", (0, 1, 2, "eq20"))),
    "is_extendable": ("is_extendable", lambda *_: CheckResult(False, ((0,), (1,), 3)),
                      ("extendable", ((0,), (1,), 3))),
}


@pytest.mark.parametrize("check", sorted(FAILED_GENERIC))
def test_deadline_verdict_reports_a_failed_generic_check(monkeypatch, check):
    # A shifted witness that fails a re-check is named by it and never
    # answered: the search gives no verdict at all.
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    wit = shifted_witness(tnet, check_c0_distributive(tnet, c0), find_extendable_paths(tnet, c0))
    called, stand_in, failed = FAILED_GENERIC[check]
    monkeypatch.setattr(witnesses, called, stand_in)
    assert verify_witness(tnet.net, wit) == CheckResult(False, failed)
    assert search_deadline_certificate(tnet) is None


def test_deadline_verdict_certifies_cuts_by_its_paths(monkeypatch):
    # The shifted paths certify every shifted cut-set, so no max flow runs,
    # and the verdict is the one the flows give.
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    paths = find_extendable_paths(tnet, c0)
    wit = shifted_witness(tnet, check_c0_distributive(tnet, c0), paths)
    calls, real_min_cut = [], witnesses.min_cut
    monkeypatch.setattr(witnesses, "min_cut",
                        lambda *args: calls.append(args) or real_min_cut(*args))
    assert verify_witness(tnet.net, wit).ok
    searched = search_deadline_certificate(tnet)
    assert calls == []
    real_validate = witnesses._validate_cuts
    monkeypatch.setattr(witnesses, "_validate_cuts",
                        lambda net, cuts, paths, reach: real_validate(net, cuts, None, reach))
    assert verify_witness(tnet.net, wit).ok
    assert len(calls) == tnet.inst.horizon + 1
    assert search_deadline_certificate(tnet).to_json_dict() == searched.to_json_dict()


def test_deadline_verdict_answers_reach_questions_without_a_search(monkeypatch):
    # C[0]'s cut-set test, the shifted cut-sets' disconnection and the
    # cumulativity check each read one reach_masks pass; no graph search runs.
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    paths = find_extendable_paths(tnet, c0)
    searches, real_bfs = [], graph._bfs
    monkeypatch.setattr(graph, "_bfs", lambda *args: searches.append(args) or real_bfs(*args))
    assert verify_witness(tnet.net, shifted_witness(tnet, check_c0_distributive(tnet, c0), paths)).ok
    assert searches == []


def test_deadline_verdict_shares_the_cut_pass_with_cumulativity(monkeypatch):
    # One pass for C[0]'s cut-set test, one for the shifted cut-sets and
    # cumulativity together.
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    paths = find_extendable_paths(tnet, c0)
    passes, real = [], graph.reach_masks

    def counted(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(reductions, "reach_masks", counted)
    monkeypatch.setattr(witnesses, "reach_masks", counted)
    assert verify_witness(tnet.net, shifted_witness(tnet, check_c0_distributive(tnet, c0), paths)).ok
    assert len(passes) == 2


def test_search_tests_and_orders_each_c0_once(monkeypatch):
    # The search orders each base cut once and hands that ordering to the
    # shifted witness, whose one reach pass serves the shifted cut-sets and
    # cumulativity; C[0]'s own cut-set test is not repeated.
    tnet = deadline_to_time_extended(fig4())
    passes, orderings = [], []
    real_reach, real_ordering = graph.reach_masks, reductions._c0_ordering
    for module in (reductions, witnesses):
        monkeypatch.setattr(module, "reach_masks",
                            lambda *args: passes.append(args) or real_reach(*args))
    monkeypatch.setattr(reductions, "_c0_ordering",
                        lambda *args: orderings.append(args) or real_ordering(*args))
    assert search_deadline_certificate(tnet).status == "yes"
    assert (len(passes), len(orderings)) == (1, 3)


def test_reductions_imports_no_private_name_from_witnesses():
    tree = ast.parse(Path(reductions.__file__).read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "witnesses"
             for alias in node.names]
    assert "verify_witness" in names
    assert [name for name in names if name.startswith("_")] == []


def _c0_outcome(check, tnet, cut):
    try:
        check(tnet, cut)
    except NotACutset as exc:
        return str(exc)
    return None


def test_check_c0_cutset_test_matches_domain_first_order():
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1))
    def compare(seed):
        rng = random.Random(seed)
        try:
            tnet = deadline_to_time_extended(oracles.random_deadline(rng))
        except DeadlineTooSmall:
            return
        base = [e for e, label in enumerate(tnet.labels) if label[0] == "base"]
        cuts = [frozenset(rng.sample(base, min(len(base), tnet.mincut0)))]
        for cut in _base_cutsets(tnet)[:3]:
            less = cut - set(sorted(cut)[:1])
            cuts += [cut, cut | {rng.choice(base)}, less, less | {rng.choice(base)}]
        for cut in cuts:
            outcome = _c0_outcome(check_c0_distributive, tnet, cut)
            assert outcome == _c0_outcome(oracles.domain_first_c0_check, tnet, cut)
            seen.add(outcome)

    compare()
    assert seen == {None, "C[0] must be a minimum cut-set of the session-0 domain",
                    "C[0] does not disconnect session 0"}


def test_check_c0_rejects_non_cutset():
    tnet = deadline_to_time_extended(fig4())
    with pytest.raises(NotACutset):
        check_c0_distributive(tnet, frozenset(list(fig4_c0(tnet))[:2]))


def test_c0_distinct_bases_trivially_distributive():
    inst = DeadlineInstance(
        edges=(("s", "a", 1), ("a", "d", 1), ("s", "d", 2)),
        source="s", sink="d", tau=2, horizon=2, memory=0,
    )
    tnet = deadline_to_time_extended(inst)
    assert tnet.mincut0 == 2
    c0 = frozenset({tnet.label_to_id[("base", 1, 1)], tnet.label_to_id[("base", 2, 0)]})
    ordering = check_c0_distributive(tnet, c0)
    assert ordering is not None
    paths = find_extendable_paths(tnet, c0)
    assert paths is not None
    assert verify_witness(tnet.net, shifted_witness(tnet, ordering, paths)).ok


def test_adversarial_c0_fails_all_orderings():
    # Four base nodes; the shared edge is usable at slots 2 and 3 while its
    # tail is already reachable at delay 1, so the slack bound fails both ways.
    inst = DeadlineInstance(
        edges=(
            ("s", "x", 1),
            ("s", "x", 2),
            ("s", "x", 3),
            ("x", "y", 1),
            ("y", "d", 1),
            ("y", "d", 2),
        ),
        source="s", sink="d", tau=5, horizon=3, memory=0,
    )
    tnet = deadline_to_time_extended(inst)
    assert tnet.mincut0 == 2
    f2 = tnet.label_to_id[("base", 3, 2)]
    f3 = tnet.label_to_id[("base", 3, 3)]
    assert check_c0_distributive(tnet, frozenset({f2, f3})) is None


def test_p_extendable_violation_on_mismatched_offsets():
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    good = find_extendable_paths(tnet, c0)
    # Reroute the e8[6] path through e4 so it shares e2[0] with the e8[5]
    # path at offset difference 0 while the cut copies differ by 1.
    lab = tnet.label_to_id
    bad_path = (
        lab[("in", 2, 0)],
        lab[("base", 1, 0)],   # e2[0]
        lab[("base", 3, 2)],   # e4[2] -> v4[6]
        lab[("base", 7, 6)],   # e8[6]
        lab[("out", 2, 0)],
    )
    paths = [p for p in good if lab[("base", 7, 6)] not in p] + [bad_path]
    # keep them edge-disjoint: the e8[5] path uses e2[0] already, so drop the
    # inject-edge clash by reindexing copies
    e85_path = next(p for p in paths if lab[("base", 7, 5)] in p)
    assert lab[("base", 1, 0)] in e85_path
    with pytest.raises(ValueError):
        check_p_extendable(tnet, c0, paths)


def test_deadline_verdict_unknown_when_c0_fails(monkeypatch):
    # {e4[2], e4[3]} has a shift-consistent path family but no ordering: the
    # search passes over it before asking for its paths, and answers nothing.
    inst = DeadlineInstance(
        edges=(
            ("s", "x", 1),
            ("s", "x", 2),
            ("s", "x", 3),
            ("x", "y", 1),
            ("y", "d", 1),
            ("y", "d", 2),
        ),
        source="s", sink="d", tau=5, horizon=3, memory=0,
    )
    tnet = deadline_to_time_extended(inst)
    f2 = tnet.label_to_id[("base", 3, 2)]
    f3 = tnet.label_to_id[("base", 3, 3)]
    c0 = frozenset({f2, f3})
    assert find_extendable_paths(tnet, c0) is not None
    assert check_c0_distributive(tnet, c0) is None
    asked, real = [], reductions.find_extendable_paths
    monkeypatch.setattr(reductions, "find_extendable_paths",
                        lambda tnet, cut: asked.append(frozenset(cut)) or real(tnet, cut))
    assert search_deadline_certificate(tnet) is None
    assert asked and c0 not in asked


def test_memoryless_shortcut_breaks_cumulativity_and_is_reported():
    # With no memory a faster lane lets a later source hit an earlier sink
    # around the cut: the shift argument for cumulativity needs memory at the
    # source, so the re-check names the breach instead of trusting the shift,
    # and the search goes on to a cut whose witness passes.
    inst = DeadlineInstance(
        edges=(("s", "a", 1), ("s", "a", 2), ("a", "d", 1)),
        source="s", sink="d", tau=3, horizon=2, memory=0,
    )
    tnet = deadline_to_time_extended(inst)
    assert tnet.mincut0 == 1
    c0 = frozenset({tnet.label_to_id[("base", 1, 0)]})  # e2[0], the delay-2 lane edge
    # singleton: recurrence conditions are vacuous
    ordering = check_c0_distributive(tnet, c0)
    assert ordering is not None
    paths = find_extendable_paths(tnet, c0)
    res = verify_witness(tnet.net, shifted_witness(tnet, ordering, paths))
    assert res.violation == ("cumulative", (2, 1, (16, 1, 11, 15)))
    verdict = search_deadline_certificate(tnet)
    assert verdict.witness.cuts[0] == {tnet.label_to_id[("base", 2, 2)]}  # e3[2]


def test_lemma_implications_on_random_instances_with_memory():
    rng = random.Random(6)
    checked = 0
    for _ in range(60):
        nodes = ["s", "a", "b", "d"]
        edges = []
        for tail, head in (("s", "a"), ("s", "b"), ("a", "b"), ("a", "d"), ("b", "d")):
            if rng.random() < 0.8:
                edges.append((tail, head, rng.randint(1, 3)))
        tau = rng.randint(2, 4)
        inst = DeadlineInstance(
            edges=tuple(edges), source="s", sink="d",
            tau=tau, horizon=2 * tau, memory=1,
        )
        try:
            tnet = deadline_to_time_extended(inst)
        except DeadlineTooSmall:
            continue
        sets, _ = enumerate_min_cutsets(tnet.net, "#s0", "#d0", limit=40)
        for cut in sets:
            if any(tnet.labels[e][0] != "base" for e in cut):
                continue
            ordering = check_c0_distributive(tnet, cut)
            if ordering is None:
                continue
            paths = find_extendable_paths(tnet, cut)
            if paths is None:
                continue
            res = verify_witness(tnet.net, shifted_witness(tnet, ordering, paths))
            assert res.ok, res.violation
            checked += 1
            break
    assert checked >= 10


def _base_cutsets(tnet):
    sets, _ = enumerate_min_cutsets(tnet.net, "#s0", "#d0", limit=10**4)
    return [cut for cut in sets if all(tnet.labels[e][0] == "base" for e in cut)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_find_extendable_paths_matches_backtracking_oracle(seed):
    try:
        tnet = deadline_to_time_extended(oracles.random_deadline(random.Random(seed)))
    except DeadlineTooSmall:
        return
    for cut in _base_cutsets(tnet):
        assert find_extendable_paths(tnet, cut) == oracles.backtrack_extendable_paths(tnet, cut)


def test_find_extendable_paths_matches_backtracking_oracle_on_fig4_grids():
    for tau, horizon, memory in ((7, 7, 1), (7, 14, 2), (8, 16, 1), (9, 9, 1)):
        inst = fig4()
        tnet = deadline_to_time_extended(
            DeadlineInstance(inst.edges, inst.source, inst.sink, tau, horizon, memory)
        )
        for cut in _base_cutsets(tnet):
            assert find_extendable_paths(tnet, cut) == oracles.backtrack_extendable_paths(tnet, cut)


def test_find_extendable_paths_skips_paths_with_two_shifts_of_one_family():
    # Waiting twice in one memory slot uses two shifts of its family, which
    # never extends; the first family found waits in two different slots.
    tnet = deadline_to_time_extended(DeadlineInstance((("s", "d", 1),), "s", "d", 3, 0, 2))
    c0 = [tnet.label_to_id[("base", 0, t)] for t in range(3)]
    paths = find_extendable_paths(tnet, c0)
    assert paths == oracles.backtrack_extendable_paths(tnet, c0)
    assert [tnet.label_str(e) for e in paths[0]] == [
        "in0#0", "e1[0]", "mem(d)[1]#0", "mem(d)[2]#1", "out0#0"
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 5]), st.booleans())
def test_session0_mincut_matches_the_probe_grid(seed, injection, loop):
    rng = random.Random(seed)
    if loop:  # source = sink: reached again through memory slots or the a-loop
        inst = DeadlineInstance(
            (("s", "a", 1), ("a", "s", 2)), "s", "s", tau=rng.randint(1, 4),
            horizon=rng.randint(0, 2), memory=rng.randint(0, 5), injection=injection,
        )
    else:
        inst = dataclasses.replace(oracles.random_deadline(rng), injection=injection)
    try:
        tnet = deadline_to_time_extended(inst)
    except DeadlineTooSmall:
        return
    assert tnet.mincut0 == oracles.probe_session0_mincut(inst)
    assert tnet.J == (injection if injection is not None else max(tnet.mincut0, 1))


def test_time_extended_network_matches_the_two_grid_build():
    below = []

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(0, 3),
           st.sampled_from(["unset", "below", "above"]))
    def compare(seed, memory, horizon, injection):
        inst = dataclasses.replace(
            oracles.random_deadline(random.Random(seed)), memory=memory, horizon=horizon
        )
        try:
            ref = oracles.two_grid_time_extended(inst)
        except DeadlineTooSmall:
            with pytest.raises(DeadlineTooSmall):
                deadline_to_time_extended(inst)
            return
        if injection == "below":  # a width of at least 1 strictly below the min-cut
            assume(ref.mincut0 >= 2)
            below.append(inst)
        if injection != "unset":
            width = ref.mincut0 - 1 if injection == "below" else ref.mincut0 + 1
            inst = dataclasses.replace(inst, injection=width)
            ref = oracles.two_grid_time_extended(inst)
        tnet = deadline_to_time_extended(inst)
        assert (tnet.J, tnet.mincut0) == (ref.J, ref.mincut0)
        assert tnet.net.to_json_dict() == ref.net.to_json_dict()
        assert tnet.labels == ref.labels and tnet.label_to_id == ref.label_to_id
        assert tnet.delta_node == ref.delta_node

    compare()
    assert len(below) >= 15


def test_check_c0_distributive_matches_permutation_scan():
    no_ordering = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def compare(seed, lanes):
        make = oracles.random_lane_deadline if lanes else oracles.random_deadline
        inst = make(random.Random(seed))
        try:
            tnet = deadline_to_time_extended(inst)
        except DeadlineTooSmall:
            return
        for cut in _base_cutsets(tnet):
            res = check_c0_distributive(tnet, cut)
            assert res == oracles.scan_c0_orderings(tnet, cut)
            if res is None:
                no_ordering.add((inst, cut))

    compare()
    assert len(no_ordering) >= 50


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda K: st.lists(st.frozensets(st.integers(1, K), max_size=3), min_size=K, max_size=K)
))
def test_rawness_and_cycle_match_dfs_and_quadratic_walk(side):
    inst = IndexCodingInstance(len(side), 1, tuple(h - {i} for i, h in enumerate(side, 1)))
    graph = side_information_graph(inst)
    reindex = acyclic_reindex(graph)
    assert decide_index_rawness(inst).raw == reindex.acyclic == oracles.dfs_acyclic(graph)
    cycle = reindex.cycle
    assert cycle == oracles.scan_cycle_walk(graph)
    if cycle is not None:
        assert len(set(cycle)) == len(cycle)
        assert all(cycle[(k + 1) % len(cycle)] in graph[v] for k, v in enumerate(cycle))


def test_search_deadline_certificate_fig4():
    tnet = deadline_to_time_extended(fig4())
    verdict = search_deadline_certificate(tnet)
    assert verdict is not None and verdict.status == "yes"
    c0, paths = verdict.witness.cuts[0], verdict.witness.paths[0]
    assert check_c0_distributive(tnet, c0) is not None and check_p_extendable(tnet, c0, paths).ok


def test_truncated_session0_paths_give_no_certificate(monkeypatch):
    monkeypatch.setattr(reductions, "PATH_LIMIT", 1)
    tnet = deadline_to_time_extended(fig4())
    assert find_extendable_paths(tnet, fig4_c0(tnet)) is None
    assert search_deadline_certificate(tnet) is None


def _crossing_twice(tnet, c0):
    """A session-0 path that crosses C[0] at two of its edges."""
    paths, _ = enumerate_paths(tnet.net, "#s0", "#d0")
    return next(p for p in paths if len(c0.intersection(p)) == 2)


# A break of check_p_extendable's (C[0], paths) on fig4's certificate, and the
# error it must raise.  Two paths through one cut edge share that edge, so the
# edge-disjointness test names them; a cut edge that is not a base-edge copy
# fails where the cut edges' base pairs are compared.
P_BREAKS = {
    "path-count": (lambda tnet, c0, ps: (c0, ps[:-1]), "one path per cut edge required"),
    "not-session-0": (lambda tnet, c0, ps: (c0, (ps[0][:-1], *ps[1:])), "not a session-0 path"),
    "crosses-twice": (lambda tnet, c0, ps: (c0, (_crossing_twice(tnet, c0), *ps[1:])),
                      "path must cross C[0] exactly once"),
    "one-cut-edge": (lambda tnet, c0, ps: (c0, (ps[0], *ps[:-1])),
                     "paths must be pairwise edge-disjoint"),
    "in-copy-cut-edge": (lambda tnet, c0, ps: (frozenset(p[0] for p in ps), ps),
                         "is not a base-edge copy"),
}


@pytest.mark.parametrize("case", sorted(P_BREAKS))
def test_check_p_extendable_rejects_a_broken_family(case):
    tnet = deadline_to_time_extended(fig4())
    c0 = fig4_c0(tnet)
    paths = find_extendable_paths(tnet, c0)
    assert check_p_extendable(tnet, c0, paths).ok
    breaks, message = P_BREAKS[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        check_p_extendable(tnet, *breaks(tnet, c0, paths))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_family_violation_matches_pairwise_check(seed):
    # One path per cut edge, drawn at random (shared edges allowed): the
    # owner-map rule and the oracle's pairwise offset check must agree.
    rng = random.Random(seed)
    try:
        tnet = deadline_to_time_extended(oracles.random_deadline(rng))
    except DeadlineTooSmall:
        return
    paths, _ = enumerate_paths(tnet.net, "#s0", "#d0")
    for cut in _base_cutsets(tnet)[:5]:
        per_edge = {e: [p for p in paths if [x for x in p if x in cut] == [e]] for e in sorted(cut)}
        if not all(per_edge.values()):
            continue
        for _ in range(10):
            chosen = [rng.choice(ps) for ps in per_edge.values()]
            violation = family_violation(chosen, sorted(cut), tnet.family_time)
            assert (violation is None) == oracles._partial_consistent(tnet, cut, chosen)
