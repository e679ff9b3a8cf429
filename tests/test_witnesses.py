import dataclasses
import random
import time
from functools import partial
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    FIG1A,
    FIG1A_CUTS,
    FIG1A_PATHS,
    FIG1A_PERMS,
    FIG1B_CUTS,
    FIG1B_PATHS,
    FIG1B_PERMS,
    FIG5,
    SHARED_CHAIN,
)
import oracles
from oracles import (
    brute_decide,
    find_cumulative_order,
    menger_witness_for_single_session,
    random_network,
)

from infodist.cli import main
from infodist.errors import BijectionViolated, NotExtendable, PermutationMismatch
from infodist.graph import Network, co_reachable, enumerate_paths, routing_domain, validate_network
from infodist import graph, witnesses
from infodist.witnesses import (
    SearchBudget,
    _lazy_product,
    Witness,
    decide_information_distributive,
    find_permutation_sequence,
    is_distributive,
    is_extendable,
    representatives,
    verify_witness,
    witness_from_json,
)


def cumulative(net, cuts):
    """The cumulativity check of `witness_checks`, on its own cut-set pass."""
    return witnesses._cumulative(net, cuts, witnesses._cut_reach(net, cuts))


def validate_cuts(net, cuts, paths=None):
    """The cut-set check of `witness_checks`, on its own pass."""
    return witnesses._validate_cuts(net, cuts, paths, witnesses._cut_reach(net, cuts))


def no_perm_gadget():
    """Six edges, one shared source: the cut-set sequence ({g,h},{g},{h})
    admits no ordering because each singleton cut pins the other shared edge
    behind an impossible bound."""
    net = Network(
        ["s", "hg", "hh", "d1", "d2", "d3"],
        [("s", "hg", 0), ("s", "hh", 0), ("hg", "d1", 0), ("hh", "d1", 0),
         ("hg", "d2", 0), ("hh", "d3", 0)],
        [("s", "d1"), ("s", "d2"), ("s", "d3")],
    )
    cuts = (frozenset({0, 1}), frozenset({0}), frozenset({1}))
    return net, cuts


def test_cumulative_fig1a(nets):
    assert cumulative(nets["fig1a"], FIG1A_CUTS).ok


def test_cumulative_single_session_vacuous(nets):
    assert cumulative(nets["parallel-m"], (frozenset({0, 1, 2}),)).ok


def test_cumulative_butterfly_bottleneck_cuts(nets):
    # Per-session bottleneck cuts: the side path s2 -> a2 -> d1 avoids the
    # session-1 bottleneck, so the pair (1, 2) fails with that witness path.
    net = nets["butterfly"]
    cuts = (frozenset({4}), frozenset({4}))
    res = cumulative(net, cuts)
    assert not res.ok
    j, i, path = res.violation
    assert (j, i) == (2, 1)
    assert set(path) == {1, 8}  # s2->a2, a2->d1


def test_distributive_fig1a_printed_orderings(nets):
    assert is_distributive(nets["fig1a"], FIG1A_CUTS, FIG1A_PERMS).ok


def test_distributive_vacuous_when_no_shared_edges(nets):
    net = nets["fig1b"]
    cuts = (frozenset({0, 2, 5}), frozenset({8, 10}), frozenset({12, 15}))
    oracles.domain_validate_cuts(net, cuts)
    for perms in [tuple(tuple(sorted(c)) for c in cuts)]:
        assert is_distributive(net, cuts, perms).ok


def test_distributive_fig5_printed_witness(nets):
    net = nets["fig5"]
    cuts = (
        frozenset({FIG5["e1"], FIG5["e2"], FIG5["e3"]}),
        frozenset({FIG5["e3"], FIG5["e4"], FIG5["e5"]}),
        frozenset({FIG5["e5"], FIG5["e6"], FIG5["e7"]}),
    )
    perms = (
        (FIG5["e1"], FIG5["e2"], FIG5["e3"]),
        (FIG5["e3"], FIG5["e4"], FIG5["e5"]),
        (FIG5["e5"], FIG5["e6"], FIG5["e7"]),
    )
    assert cumulative(net, cuts).ok
    assert is_distributive(net, cuts, perms).ok


def test_distributive_rejects_mismatched_permutation(nets):
    with pytest.raises(PermutationMismatch):
        is_distributive(nets["fig1a"], FIG1A_CUTS, ((1, 5, 11), (5, 5)))


def test_distributive_violation_tuple(nets):
    # Putting e1 (alpha=1) after e2 in T_1 while T_2 starts at e2 forces e3's
    # prefix difference to contain e2 (alpha=2), violating the second bound.
    net = nets["fig1a"]
    perms = ((FIG1A["e2"], FIG1A["e1"], FIG1A["e3"]), (FIG1A["e3"], FIG1A["e2"]))
    res = is_distributive(net, FIG1A_CUTS, perms)
    assert not res.ok
    eid, _j, other, cond = res.violation
    assert cond in ("eq20", "eq21")


def test_find_permutation_sequence_fig1a_first_found(nets):
    perms = find_permutation_sequence(nets["fig1a"], FIG1A_CUTS)
    assert perms is not None
    assert is_distributive(nets["fig1a"], FIG1A_CUTS, perms).ok
    # lexicographically first: session-1 cut {1,5,11} can open with (1, 5, 11)
    assert perms[0] == (1, 5, 11)


def test_find_permutation_sequence_singletons_unique(nets):
    net = nets["single-edge"]
    assert find_permutation_sequence(net, (frozenset({0}),)) == ((0,),)


def test_find_permutation_sequence_absent_on_gadget():
    net, cuts = no_perm_gadget()
    oracles.domain_validate_cuts(net, cuts)
    assert cumulative(net, cuts).ok
    assert find_permutation_sequence(net, cuts) is None


def test_search_goes_past_a_tuple_with_no_ordering(nets, monkeypatch):
    """A tuple that reaches the ordering check and has no ordering is
    skipped: the search goes on to a later tuple and its "yes" is
    re-verified.  No small network is known to give such a tuple, so the
    first ordering check is made to answer None."""
    net = nets["fig1a"]
    honest = decide_information_distributive(net)
    checked = []

    def first_fails(ordered_net, cuts, strict=False):
        checked.append(cuts)
        return None if len(checked) == 1 else find_permutation_sequence(ordered_net, cuts, strict)

    monkeypatch.setattr(witnesses, "find_permutation_sequence", first_fails)
    verdict = decide_information_distributive(net)
    assert checked[0] == honest.witness.cuts
    # A later tuple of the same session order, not the next order.
    assert verdict.status == "yes" and verdict.witness.cuts == checked[-1] != checked[0]
    assert (verdict.witness.session_order, verdict.stats.orders_tried) == (honest.witness.session_order, 1)
    assert verify_witness(net, verdict.witness).ok
    assert verdict.stats.permutation_checks == len(checked) == honest.stats.permutation_checks + 1


def test_extendable_fig1a(nets):
    assert is_extendable(nets["fig1a"], FIG1A_CUTS, FIG1A_PATHS).ok


def test_extendable_disjoint_paths_trivially(nets):
    net = nets["fig1b"]
    assert is_extendable(net, FIG1B_CUTS, FIG1B_PATHS).ok


def test_extendable_fig5_counterexample(nets):
    net = nets["fig5"]
    cuts = (
        frozenset({FIG5["a1"], FIG5["e3"]}),
        frozenset({FIG5["e3"], FIG5["b4"]}),
        frozenset({FIG5["e5"], FIG5["b6"]}),
    )
    oracles.domain_validate_cuts(net, cuts)
    assert cumulative(net, cuts).ok
    assert find_permutation_sequence(net, cuts) is not None
    p22 = (FIG5["a4"], FIG5["e5"], FIG5["b4"])
    p31 = (FIG5["a5"], FIG5["e5"], FIG5["b5"])
    paths = (
        ((FIG5["a1"], FIG5["e1"], FIG5["b1"]), (FIG5["a2"], FIG5["e3"], FIG5["b2"])),
        ((FIG5["a3"], FIG5["e3"], FIG5["b3"]), p22),
        (p31, (FIG5["a6"], FIG5["e6"], FIG5["b6"])),
    )
    res = is_extendable(net, cuts, paths)
    assert not res.ok
    a, b, shared = res.violation
    assert {a, b} == {p22, p31}
    assert shared == FIG5["e5"]


def test_extendable_bijection_violation(nets):
    net = nets["fig1a"]
    bad = (FIG1A_PATHS[0], ((4, 5, 6, 8), (4, 5, 6, 8)))
    with pytest.raises(BijectionViolated):
        is_extendable(net, FIG1A_CUTS, bad)


def test_representatives_fig1a(nets):
    rep = representatives(nets["fig1a"], FIG1A_CUTS, FIG1A_PATHS)
    assert rep[FIG1A["e4"]] == FIG1A["e2"]
    assert rep[FIG1A["e2"]] == FIG1A["e2"]
    assert rep[2] == FIG1A["e1"]  # (y1,d1) sits on the unique path through e1
    # every path through an edge contains that edge's representative
    for pset in FIG1A_PATHS:
        for path in pset:
            for eid in path:
                assert rep[eid] in path


def test_representatives_raise_when_not_extendable(nets):
    net = nets["fig5"]
    cuts = (
        frozenset({FIG5["a1"], FIG5["e3"]}),
        frozenset({FIG5["e3"], FIG5["b4"]}),
        frozenset({FIG5["e5"], FIG5["b6"]}),
    )
    paths = (
        ((FIG5["a1"], FIG5["e1"], FIG5["b1"]), (FIG5["a2"], FIG5["e3"], FIG5["b2"])),
        ((FIG5["a3"], FIG5["e3"], FIG5["b3"]), (FIG5["a4"], FIG5["e5"], FIG5["b4"])),
        ((FIG5["a5"], FIG5["e5"], FIG5["b5"]), (FIG5["a6"], FIG5["e6"], FIG5["b6"])),
    )
    with pytest.raises(NotExtendable):
        representatives(net, cuts, paths)


def test_decide_fig1a_yes_and_roundtrip(nets):
    verdict = decide_information_distributive(nets["fig1a"])
    assert verdict.status == "yes"
    assert verify_witness(nets["fig1a"], verdict.witness).ok


def test_decide_fig1b_yes(nets):
    verdict = decide_information_distributive(nets["fig1b"])
    assert verdict.status == "yes"
    assert verify_witness(nets["fig1b"], verdict.witness).ok
    # the printed (reconstructed) witness itself re-verifies too
    printed = Witness((1, 2, 3), FIG1B_CUTS, FIG1B_PERMS, FIG1B_PATHS)
    assert verify_witness(nets["fig1b"], printed).ok


def test_decide_fig5_no_exhausted(nets):
    verdict = decide_information_distributive(nets["fig5"])
    assert verdict.status == "no"
    assert verdict.stats.exhausted


def test_decide_butterfly_no(nets):
    verdict = decide_information_distributive(nets["butterfly"])
    assert verdict.status == "no"
    assert verdict.stats.exhausted


def test_decide_budget_exhaustion_reports_unknown():
    net = validate_network(SHARED_CHAIN)
    assert decide_information_distributive(net).stats.candidates == 4
    verdict = decide_information_distributive(net, SearchBudget(max_candidates=2))
    assert verdict.status == "unknown"
    assert not verdict.stats.exhausted


def test_decide_single_session_always_yes():
    rng = random.Random(23)
    for _ in range(25):
        net = random_network(rng, max_internal=5, max_sessions=1)
        verdict = decide_information_distributive(net)
        assert verdict.status == "yes"
        wit = menger_witness_for_single_session(net)
        assert verify_witness(net, wit).ok


def test_decide_handles_degenerate_session():
    net = Network(
        ["s1", "d1", "s2", "d2", "x"],
        [("s1", "x", 0), ("x", "d1", 0), ("s2", "x", 0)],
        [("s1", "d1"), ("s2", "d2")],
    )
    verdict = decide_information_distributive(net)
    assert verdict.status == "yes"
    pos = verdict.witness.session_order.index(2)
    assert verdict.witness.cuts[pos] == frozenset()


def test_decide_yes_invariant_under_session_relabeling(nets):
    for name in ("fig1a", "fig1b"):
        net = nets[name]
        K = net.num_sessions
        order = tuple(range(K, 0, -1))
        relabeled = net.reindex_sessions(order)
        assert decide_information_distributive(relabeled).status == "yes"


def test_decide_matches_bruteforce_on_small_networks():
    rng = random.Random(3)
    checked = 0
    while checked < 12:
        net = random_network(rng, max_internal=3, max_sessions=2, edge_prob=0.7)
        if len(net.edges) > 8:
            continue
        checked += 1
        verdict = decide_information_distributive(net)
        assert verdict.status in ("yes", "no")
        assert (verdict.status == "yes") == brute_decide(net)


def test_decide_twelve_disjoint_sessions_builds_no_order_list():
    # 12! session orders would take gigabytes as a list; the first one
    # already carries a witness.
    nodes = [v for k in range(12) for v in (f"s{k}", f"d{k}")]
    net = Network(nodes, [(f"s{k}", f"d{k}", 0) for k in range(12)],
                  [(f"s{k}", f"d{k}") for k in range(12)])
    start = time.monotonic()
    verdict = decide_information_distributive(net)
    assert time.monotonic() - start < 1.0
    assert verdict.status == "yes"
    assert verdict.witness.session_order == tuple(range(1, 13))


def _with_disjoint_sessions(net, extra):
    """net plus `extra` sessions, each on its own single edge."""
    return Network(
        [*net.nodes, *(v for k in range(extra) for v in (f"x{k}", f"y{k}"))],
        [*net.edges, *((f"x{k}", f"y{k}", 0) for k in range(extra))],
        [*net.sessions, *((f"x{k}", f"y{k}") for k in range(extra))],
    )


def test_decide_24_disjoint_sessions_yes_at_once():
    # The subset bound checks O(K^2) session sets per placement, not 2^K.
    net = _with_disjoint_sessions(Network([], [], []), 24)
    start = time.monotonic()
    verdict = decide_information_distributive(net)
    assert time.monotonic() - start < 1.0
    assert verdict.status == "yes"


def test_decide_stops_at_the_deadline_when_pools_come_up_empty(nets):
    # Butterfly ("no") plus 20 disjoint sessions: only the deadline ends the
    # walk over 22! session orders, and most orders have an empty pool.
    net = _with_disjoint_sessions(nets["butterfly"], 20)
    start = time.monotonic()
    verdict = decide_information_distributive(net, SearchBudget(max_seconds=0.01))
    assert time.monotonic() - start < 0.5
    assert verdict.status == "unknown"


def test_decide_on_1200_edge_chain():
    nodes = [f"c{i}" for i in range(1201)]
    chain = Network(nodes, list(zip(nodes, nodes[1:], [0] * 1200)), [("c0", "c1200")])
    verdict = decide_information_distributive(chain)
    assert verdict.status == "yes"
    assert verify_witness(chain, verdict.witness).ok


def test_decide_on_20_parallel_edges():
    net = Network(["s", "d"], [("s", "d", i) for i in range(20)], [("s", "d")])
    verdict = decide_information_distributive(net)
    assert verdict.status == "yes"
    assert verify_witness(net, verdict.witness).ok


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_find_paths_matches_backtracking_oracle(seed):
    net = random_network(random.Random(seed), max_internal=5, max_sessions=4, edge_prob=0.6)
    searcher = witnesses._Searcher(net, SearchBudget())
    searcher._enumerate()
    K = net.num_sessions
    for order in permutations(range(1, K + 1)):
        for cuts in product(*(searcher.cutsets[sess - 1] for sess in order)):
            expected = oracles.backtrack_paths(searcher, order, cuts)
            assert searcher._find_paths(order, cuts) == expected


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_forward_check_finds_first_conflict_free_tuple(nslots, width, seed):
    rng = random.Random(seed)
    domains = [rng.getrandbits(width) for _ in range(nslots)]
    clash = {
        (k, c, j, d)
        for k in range(nslots) for j in range(k + 1, nslots)
        for c in range(width) for d in range(width) if rng.random() < 0.3
    }

    def conflicts(k, c):
        return [
            sum(1 << d for d in range(width) if (k, c, j, d) in clash)
            for j in range(k + 1, nslots)
        ]

    pools = [[c for c in range(width) if dom >> c & 1] for dom in domains]
    expected = next(
        (
            list(combo) for combo in product(*pools)
            if not any(
                (k, combo[k], j, combo[j]) in clash
                for k in range(nslots) for j in range(k + 1, nslots)
            )
        ),
        None,
    )
    assert witnesses.forward_check(domains, conflicts) == expected


def _decide_outcome(net):
    verdict = decide_information_distributive(net)
    stats = verdict.stats.to_json_dict()
    del stats["path_assignments"]
    wit = verdict.witness.to_json_dict() if verdict.witness else None
    return verdict.status, wit, verdict.representative_map, stats


def no_family_pair():
    """K = 2 "no" network: the slot set {(1, {0, 3}), (2, {7})} passes the
    cumulativity and ordering checks under both session orders and holds no
    path family."""
    return Network(
        ["v0", "v1", "v2", "s1", "d1", "s2", "d2"],
        [("v0", "v1", 0), ("v1", "v2", 0), ("s1", "v0", 0), ("s1", "v1", 0),
         ("v1", "d1", 0), ("v2", "d1", 0), ("s2", "v2", 0), ("s2", "v0", 0),
         ("v1", "d2", 0)],
        [("s1", "d1"), ("s2", "d2")],
    )


def test_no_family_memo_searches_each_slot_set_once(monkeypatch):
    net = no_family_pair()
    asked, searched = [], []
    find_paths, find_family = witnesses._Searcher._find_paths, witnesses.find_family

    def spy_paths(self, order, cuts):
        asked.append(frozenset(zip(order, cuts)))
        return find_paths(self, order, cuts)

    def spy_family(slots, on_try):
        searched.append(asked[-1])
        return find_family(slots, on_try)

    monkeypatch.setattr(witnesses._Searcher, "_find_paths", spy_paths)
    monkeypatch.setattr(witnesses, "find_family", spy_family)
    memo = decide_information_distributive(net)
    assert memo.status == "no"
    assert len(asked) > len(set(asked))  # some slot set comes up twice
    assert len(searched) == len(set(searched)) and set(searched) == set(asked)
    monkeypatch.setattr(witnesses._Searcher, "_find_paths", oracles.backtrack_paths)
    plain = decide_information_distributive(net)
    assert (memo.status, memo.witness) == (plain.status, plain.witness)
    memo_stats, plain_stats = memo.stats.to_json_dict(), plain.stats.to_json_dict()
    del memo_stats["path_assignments"], plain_stats["path_assignments"]
    assert memo_stats == plain_stats


BREAKS = ("valid", "size", "no-disconnect", "outside-domain", "bad-id", "no-path")


def _cut_sequence(net, rng, kind):
    """One minimum cut-set per session, then one session's cut-set broken as
    `kind` names: a wrong size, an edge swapped for another domain edge, for
    an edge outside the domain or for an edge id that does not exist, or a
    cut-set for a session with no path.  None if no session admits `kind`."""
    searcher = witnesses._Searcher(net, SearchBudget())
    searcher._enumerate()
    cuts = [rng.choice(sets) for sets in searcher.cutsets]
    doms = [routing_domain(net, i) for i in range(1, net.num_sessions + 1)]
    edges = range(len(net.edges))
    if kind == "valid":
        return tuple(cuts)
    if kind == "no-path":
        bare = [i for i, dom in enumerate(doms) if not dom]
        if not bare:
            return None
        cuts[rng.choice(bare)] = frozenset({rng.choice(edges)})
        return tuple(cuts)
    routed = [i for i, dom in enumerate(doms) if dom]
    if not routed:
        return None
    i = rng.choice(routed)
    cut, dom = cuts[i], doms[i]
    swaps = {
        "size": [cut - {e} for e in sorted(cut)] + [cut | {f} for f in sorted(dom - cut)],
        "no-disconnect": [cut - {e} | {f} for e in sorted(cut) for f in sorted(dom - cut)],
        "outside-domain": [cut - {e} | {f} for e in sorted(cut) for f in edges if f not in dom],
        "bad-id": [cut - {e} | {f} for e in sorted(cut) for f in (-1, len(edges), len(edges) + 3)],
    }[kind]
    if not swaps:
        return None
    cuts[i] = rng.choice(swaps)
    return tuple(cuts)


def _raised(check, net, cuts):
    try:
        check(net, cuts)
    except ValueError as exc:
        return str(exc)
    return None


PATH_KINDS = ("family", "drop", "duplicate", "share", "other-session", "bad-id", "wrong-length")


def _path_sets(net, rng, kind):
    """Per session a max flow's edge-disjoint paths, then every session's
    set changed as `kind` names: one path dropped, one repeated, a path
    sharing an edge with the set added, another session's path added, a
    path over an edge id that does not exist added, or one set too few or
    too many.  None if no session admits `kind`."""
    family = [oracles.menger_paths(net, s, d) for s, d in net.sessions]
    bad = (len(net.edges) + rng.randrange(3),)
    if kind == "family":
        changed = family
    elif kind == "wrong-length":
        changed = rng.choice([family[:-1], family + [[bad]]])
    elif kind == "drop":
        changed = [ps[:-1] for ps in family]
    elif kind == "duplicate":
        changed = [ps + [rng.choice(ps)] if ps else ps for ps in family]
    elif kind == "share":
        changed = []
        for (s, d), ps in zip(net.sessions, family):
            used = {eid for path in ps for eid in path}
            shared = [p for p in enumerate_paths(net, s, d)[0]
                      if p not in ps and used.intersection(p)]
            changed.append(ps + [rng.choice(shared)] if shared else ps)
    elif kind == "other-session":
        others = family[1:] + family[:1] if len(family) > 1 else [[]]
        changed = [ps + other[:1] for ps, other in zip(family, others)]
    else:
        changed = [ps + [bad] for ps in family]
    if kind != "family" and changed == family:
        return None
    return tuple(map(tuple, changed))


MESSAGES = ("has size", "leaves its routing domain", "has no path", "does not disconnect")
# The domain oracle's first complaint about each break (None: it passes).
EXPECTED_BREAK = {
    "valid": {None},
    "size": {"has size"},
    "no-disconnect": {None, "does not disconnect"},
    "outside-domain": {"leaves its routing domain"},
    "bad-id": {"leaves its routing domain"},
    "no-path": {"has no path"},
}


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BREAKS), st.sampled_from((None, *PATH_KINDS)))
def test_validate_cut_sequence_matches_domain_oracle(seed, kind, path_kind):
    # Path sets may only spare the max flow: whatever they hold, the cut-sets
    # pass or fail with the oracle's message.
    rng = random.Random(seed)
    net = random_network(rng, max_internal=5, max_sessions=3, edge_prob=0.5)
    cuts = _cut_sequence(net, rng, kind)
    assume(cuts is not None)
    paths = path_kind and _path_sets(net, rng, path_kind)
    assume(paths is not None or path_kind is None)
    expected = _raised(oracles.domain_validate_cuts, net, cuts)
    assert (expected and next(m for m in MESSAGES if m in expected)) in EXPECTED_BREAK[kind]
    assert _raised(partial(validate_cuts, paths=paths), net, cuts) == expected


def _found_witnesses(nets):
    """(network, witness) for fig1a and fig1b's found witnesses, and for each
    butterfly session on its own with its Menger witness: the butterfly with
    both sessions has no witness."""
    for name in ("fig1a", "fig1b"):
        yield nets[name], decide_information_distributive(nets[name]).witness
    bf = nets["butterfly"]
    for pair in bf.sessions:
        net = Network(bf.nodes, bf.edges, [pair])
        yield net, menger_witness_for_single_session(net)


def test_verify_witness_runs_no_max_flow_on_valid_witnesses(nets, monkeypatch):
    found = list(_found_witnesses(nets))
    calls, real = [], witnesses.min_cut
    monkeypatch.setattr(witnesses, "min_cut", lambda *args: calls.append(args) or real(*args))
    for net, wit in found:
        assert verify_witness(net, wit).ok
    assert calls == []
    # Without the paths every session pays for one flow.
    for net, wit in found:
        validate_cuts(net.reindex_sessions(wit.session_order), wit.cuts)
    assert len(calls) == sum(net.num_sessions for net, _ in found)


def _counted(monkeypatch, module, name) -> list:
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_verify_witness_answers_reach_questions_without_a_search(nets, monkeypatch):
    # Disconnection and cumulativity read one shared reach_masks pass.
    found = [(nets[name], decide_information_distributive(nets[name]).witness)
             for name in ("fig1a", "fig1b")]
    searches = _counted(monkeypatch, graph, "_bfs")
    passes = _counted(monkeypatch, witnesses, "reach_masks")
    for net, wit in found:
        assert verify_witness(net, wit).ok
    assert searches == []
    assert len(passes) == len(found)


def test_verify_witness_validates_each_path_once(nets, monkeypatch):
    wit = decide_information_distributive(nets["fig1a"]).witness
    calls = _counted(monkeypatch, witnesses, "validate_path")
    assert verify_witness(nets["fig1a"], wit).ok
    assert len(calls) == sum(map(len, wit.paths)) == 5


def _pools_by_search(searcher, sess, later):
    net = searcher.net
    return [cut for cut in searcher.cutsets[sess - 1]
            if not any(net.source(j) in co_reachable(net, net.sink(sess), removed=cut)
                       for j in later)]


def _assert_pools_equal_one_search_per_cut(net):
    searcher = witnesses._Searcher(net, SearchBudget())
    searcher._enumerate()
    K = net.num_sessions
    for sess in range(1, K + 1):
        others = [j for j in range(1, K + 1) if j != sess]
        for r in range(len(others) + 1):
            for later in combinations(others, r):
                assert searcher._pool(sess, later) == _pools_by_search(searcher, sess, later)


def test_pools_from_one_pass_equal_one_search_per_cut_on_corpus(nets):
    for net in nets.values():
        _assert_pools_equal_one_search_per_cut(net)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pools_from_one_pass_equal_one_search_per_cut(seed):
    net = random_network(random.Random(seed), max_internal=6, max_sessions=4, edge_prob=0.6)
    _assert_pools_equal_one_search_per_cut(net)


@pytest.mark.parametrize("name", ["fig1a", "fig1b", "butterfly", "parallel-m"])
def test_check_output_without_the_path_certificate_is_unchanged(capsys, monkeypatch, name):
    certified = main(["check", name]), capsys.readouterr()
    real = witnesses._validate_cuts
    monkeypatch.setattr(witnesses, "_validate_cuts",
                        lambda net, cuts, paths, reach: real(net, cuts, None, reach))
    assert (main(["check", name]), capsys.readouterr()) == certified


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BREAKS))
def test_is_cumulative_matches_pairwise_scan(seed, kind):
    rng = random.Random(seed)
    net = random_network(rng, max_internal=5, max_sessions=4, edge_prob=0.6)
    cuts = _cut_sequence(net, rng, kind)
    assume(cuts is not None)
    for order in permutations(range(1, net.num_sessions + 1)):
        ordered, seq = net.reindex_sessions(order), tuple(cuts[i - 1] for i in order)
        assert cumulative(ordered, seq) == oracles.scan_cumulative(ordered, seq)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BREAKS))
def test_cumulativity_on_the_cut_pass_matches_its_own_pass(seed, kind):
    # Cumulativity reads only the first K-1 bits of the cut-set pass: a pass
    # with one bit per earlier sink gives the same answer.
    rng = random.Random(seed)
    net = random_network(rng, max_internal=5, max_sessions=4, edge_prob=0.6)
    cuts = _cut_sequence(net, rng, kind)
    assume(cuts is not None)
    own = graph.reach_masks(net, [(net.sink(i), cuts[i - 1]) for i in range(1, net.num_sessions)])
    assert cumulative(net, cuts) == witnesses._cumulative(net, cuts, own)


def test_decide_with_backtracking_oracle_on_corpus(nets, monkeypatch):
    searched = {name: _decide_outcome(net) for name, net in nets.items()}
    monkeypatch.setattr(witnesses._Searcher, "_find_paths", oracles.backtrack_paths)
    for name, net in nets.items():
        assert _decide_outcome(net) == searched[name], name


class _ProductSearcher(witnesses._Searcher):
    _tuples = oracles.product_tuples


def _bound_matches_product_walk(net, budget):
    """The search with and without the subset flow bound: the same verdict,
    witness and representatives, and no counter higher with the bound."""
    bounded = decide_information_distributive(net, budget)
    walked = _ProductSearcher(net, budget).run()
    assert (bounded.status, bounded.witness, bounded.representative_map) == (
        walked.status, walked.witness, walked.representative_map
    )
    for key, value in walked.stats.to_json_dict().items():
        if isinstance(value, bool):
            assert getattr(bounded.stats, key) == value, key
        else:
            assert getattr(bounded.stats, key) <= value, key
    return bounded.stats, walked.stats


def test_subset_bound_matches_product_walk_on_corpus(nets):
    for name, net in nets.items():
        for strict in (False, True):
            bounded, walked = _bound_matches_product_walk(net, SearchBudget(strict_def5=strict))
            if name == "fig5":
                # Every fig5 tuple needs more disjoint paths than its sessions' flow.
                assert (walked.candidates, bounded.candidates) == (155, 0)


def test_decide_without_sessions_matches_product_walk():
    # Network accepts no sessions; product() of no pools is one empty tuple.
    net = Network(["a", "b"], [("a", "b", 0)], [])
    bounded, _ = _bound_matches_product_walk(net, SearchBudget())
    assert bounded.candidates == 1
    assert decide_information_distributive(net).witness == Witness((), (), (), ())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_subset_bound_matches_product_walk(seed, strict, shared_terminal):
    rng = random.Random(seed)
    net = random_network(rng, max_internal=6, max_sessions=2 if shared_terminal else 4)
    if shared_terminal:
        # A new isolated node z is the sink of (s_1, z) and the source of
        # (z, d_1), so the flow of those two sessions is unbounded.
        z = "z"
        sessions = [*net.sessions, (net.source(1), z), (z, net.sink(1))]
        net = Network([*net.nodes, z], net.edges, sessions)
    _bound_matches_product_walk(net, SearchBudget(strict_def5=strict))


class _Clock:
    """A stand-in for time.monotonic that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spy(monkeypatch, name, clock, calls, step=10):
    real = getattr(witnesses, name)

    def spy(*args, **kwargs):
        calls.append(name)
        clock.now += step  # by default past any deadline once this returns
        return real(*args, **kwargs)

    monkeypatch.setattr(witnesses, name, spy)


def test_budget_stops_between_cutset_and_path_enumeration(nets, monkeypatch):
    clock, calls = _Clock(), []
    monkeypatch.setattr(witnesses.time, "monotonic", clock)
    _spy(monkeypatch, "enumerate_min_cutsets", clock, calls)
    _spy(monkeypatch, "enumerate_paths", clock, calls)
    verdict = decide_information_distributive(nets["fig1a"], SearchBudget(max_seconds=1))
    assert verdict.status == "unknown"
    assert calls == ["enumerate_min_cutsets"]


@pytest.mark.parametrize("name", ["enumerate_min_cutsets", "enumerate_paths"])
def test_budget_stops_inside_an_enumeration(monkeypatch, name):
    # A chain of 6 diamonds from v0 to v6: 24 min cut-sets and 64 paths.
    edges = [(f"v{i}", f"{m}{i}", 0) for i in range(6) for m in "ab"]
    edges += [(f"{m}{i}", f"v{i + 1}", 0) for i in range(6) for m in "ab"]
    nodes = sorted({x for e in edges for x in e[:2]})
    net = Network(nodes, edges, [("v0", "v6")])
    clock, found = _Clock(), []
    monkeypatch.setattr(witnesses.time, "monotonic", clock)
    real = getattr(witnesses, name)

    def spy(*args):
        *head, on_item = args

        def counted():
            found.append(name)
            if len(found) == 3:
                clock.now += 10  # past the deadline from the third item on
            on_item()

        return real(*head, counted)

    monkeypatch.setattr(witnesses, name, spy)
    verdict = decide_information_distributive(net, SearchBudget(max_seconds=1))
    assert verdict.status == "unknown"
    assert found == [name] * 3


def test_budget_stops_while_a_path_table_is_built(nets, monkeypatch):
    clock, calls = _Clock(), []
    monkeypatch.setattr(witnesses.time, "monotonic", clock)
    _spy(monkeypatch, "_crossing", clock, calls)
    verdict = decide_information_distributive(nets["fig1a"], SearchBudget(max_seconds=1))
    assert verdict.status == "unknown"
    # The first candidate passed its ordering check; its first path-table
    # lookup ran out of time before any path was placed.
    assert verdict.stats.candidates == 1
    assert verdict.stats.path_assignments == 0
    assert calls == ["_crossing"]


def test_budget_stops_between_two_subset_flows(monkeypatch):
    clock, calls = _Clock(), []
    monkeypatch.setattr(witnesses.time, "monotonic", clock)
    _spy(monkeypatch, "_max_flow", clock, calls, step=0.6)
    net = _with_disjoint_sessions(Network([], [], []), 22)
    verdict = decide_information_distributive(net, SearchBudget(max_seconds=1))
    assert verdict.status == "unknown"
    # Position 2 checks positions {0, 2}, {1, 2} and {0, 1, 2}; the clock
    # passes the deadline with the flow of {0, 2} and stops the next set.
    assert calls == ["_max_flow"] * 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.frozensets(st.integers(0, 9), max_size=4), max_size=3))
def test_permutation_sequences_equal_itertools_product(cuts):
    expected = list(product(*(permutations(sorted(cut)) for cut in cuts)))
    levels = [partial(permutations, sorted(cut)) for cut in cuts]
    assert list(_lazy_product(levels)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=4), st.integers(2, 4))
def test_lazy_product_with_prefix_closed_keep_equals_filtered_product(levels, m):
    # keep rejects an item that brings its prefix's sum to a multiple of m; a
    # tuple is kept iff every one of its prefixes is, which is prefix-closed.
    def keep(prefix, item):
        return (sum(prefix) + item) % m != 0

    expected = [
        t for t in product(*levels)
        if all(keep(list(t[:k]), t[k]) for k in range(len(t)))
    ]
    assert list(_lazy_product([partial(iter, level) for level in levels], keep)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_find_cumulative_order_is_first_cumulative_permutation(seed, pick):
    net = random_network(random.Random(seed), max_internal=5, max_sessions=4, edge_prob=0.6)
    searcher = witnesses._Searcher(net, SearchBudget())
    searcher._enumerate()
    cuts = [sets[pick % len(sets)] for sets in searcher.cutsets]
    expected = next(
        (
            order for order in permutations(range(1, net.num_sessions + 1))
            if oracles.scan_cumulative(net.reindex_sessions(order), [cuts[i - 1] for i in order])
        ),
        None,
    )
    assert find_cumulative_order(net, cuts) == expected


def test_find_cumulative_order_gadget():
    net, cuts = no_perm_gadget()
    assert find_cumulative_order(net, list(cuts)) is not None


def test_witness_json_roundtrip(nets):
    verdict = decide_information_distributive(nets["fig1a"])
    data = verdict.witness.to_json_dict()
    back = witness_from_json(data)
    assert back == verdict.witness


def test_strict_def5_flag_tightens_first_condition():
    # e sits in C_1 and C_2; w (alpha=2) precedes e in T_2 only.  The printed
    # bound compares against the last containing index (2) and passes; the
    # symmetric reading compares against n_{j+1}-1 = 1 and fails.
    net = Network(
        ["s1", "s2", "s3", "me", "he", "mx", "hx", "mw", "hw", "d1", "d2", "d3"],
        [
            ("s1", "me", 0), ("me", "he", 0), ("he", "d1", 0),
            ("s1", "mx", 0), ("mx", "hx", 0), ("hx", "d1", 0),
            ("s2", "me", 0), ("he", "d2", 0),
            ("s2", "mw", 0), ("mw", "hw", 0), ("hw", "d2", 0),
            ("s3", "d3", 0),
        ],
        [("s1", "d1"), ("s2", "d2"), ("s3", "d3")],
    )
    E, X, W = 1, 4, 9
    cuts = (frozenset({E, X}), frozenset({E, W}), frozenset({11}))
    oracles.domain_validate_cuts(net, cuts)
    perms = ((E, X), (W, E), (11,))
    assert is_distributive(net, cuts, perms, strict=False).ok
    res = is_distributive(net, cuts, perms, strict=True)
    assert not res.ok
    assert res.violation[3] == "eq20"


# Tamperings of fig1a's found witness, each with the failure tag of
# verify_witness it must produce.  The second "paths" case crosses its cut
# edge once but stops short of d1.
TAMPERED = [
    ("session_order", lambda w: dataclasses.replace(w, session_order=(1, 1))),
    ("cuts", lambda w: dataclasses.replace(w, cuts=(frozenset({0, 5}), w.cuts[1]))),
    ("cumulative", lambda w: dataclasses.replace(w, cuts=(frozenset({0, 3, 9}), frozenset({4, 10})))),
    ("perms", lambda w: dataclasses.replace(w, perms=(w.perms[0], (5, 5)))),
    ("distributive", lambda w: dataclasses.replace(w, perms=((5, 0, 11), (11, 5)))),
    ("paths", lambda w: dataclasses.replace(w, paths=(w.paths[0], ((4, 5, 6, 8),) * 2))),
    ("paths", lambda w: dataclasses.replace(w, paths=(((0, 1), *w.paths[0][1:]), w.paths[1]))),
    ("paths", lambda w: dataclasses.replace(w, paths=w.paths[:1])),
]


@pytest.mark.parametrize("tag, tamper", TAMPERED)
def test_verify_witness_names_each_failure(nets, tag, tamper):
    net = nets["fig1a"]
    wit = decide_information_distributive(net).witness
    assert wit == Witness((1, 2), (frozenset({0, 5, 11}), frozenset({5, 11})),
                          ((0, 5, 11), (5, 11)), wit.paths)
    res = verify_witness(net, tamper(wit))
    assert not res and res.violation[0] == tag


def test_verify_witness_names_an_extendability_failure(nets):
    # fig5's counterexample: valid, cumulative and distributive, but two
    # paths share e5 while crossing different cut edges.
    net = nets["fig5"]
    cuts = (
        frozenset({FIG5["a1"], FIG5["e3"]}),
        frozenset({FIG5["e3"], FIG5["b4"]}),
        frozenset({FIG5["e5"], FIG5["b6"]}),
    )
    paths = (
        ((FIG5["a1"], FIG5["e1"], FIG5["b1"]), (FIG5["a2"], FIG5["e3"], FIG5["b2"])),
        ((FIG5["a3"], FIG5["e3"], FIG5["b3"]), (FIG5["a4"], FIG5["e5"], FIG5["b4"])),
        ((FIG5["a5"], FIG5["e5"], FIG5["b5"]), (FIG5["a6"], FIG5["e6"], FIG5["b6"])),
    )
    perms = find_permutation_sequence(net, cuts)
    res = verify_witness(net, Witness((1, 2, 3), cuts, perms, paths))
    assert res.violation == ("extendable", ((3, 10, 16), (4, 10, 17), 10))


def _at(seq: tuple, pos: int, item) -> tuple:
    return (*seq[:pos], item, *seq[pos + 1:])


def _tamper(rng: random.Random, net: Network, wit: Witness, kind: str) -> Witness:
    """wit with one part changed at a random position: its cut-set, ordering,
    path sets, positions or session order."""
    K, pos = net.num_sessions, rng.randrange(net.num_sessions)
    cut, perm, pset = wit.cuts[pos], wit.perms[pos], wit.paths[pos]
    s, d = net.sessions[wit.session_order[pos] - 1]
    if kind == "cut-edge-added":
        added = cut | {rng.randrange(len(net.edges))}
        return dataclasses.replace(wit, cuts=_at(wit.cuts, pos, added))
    if kind == "cut-edge-dropped" and cut:
        return dataclasses.replace(wit, cuts=_at(wit.cuts, pos, cut - {rng.choice(sorted(cut))}))
    if kind == "other-min-cut":  # another min cut-set of the session, in a random order
        other = rng.choice(graph.enumerate_min_cutsets(net, s, d)[0])
        order = tuple(rng.sample(sorted(other), len(other)))
        return dataclasses.replace(wit, cuts=_at(wit.cuts, pos, other),
                                   perms=_at(wit.perms, pos, order))
    if kind == "perm-reversed":
        return dataclasses.replace(wit, perms=_at(wit.perms, pos, perm[::-1]))
    if kind == "perm-edge-changed" and perm:
        changed = (rng.randrange(len(net.edges)), *perm[1:])
        return dataclasses.replace(wit, perms=_at(wit.perms, pos, changed))
    if kind == "path-set-dropped":
        return dataclasses.replace(wit, paths=wit.paths[:pos] + wit.paths[pos + 1:])
    if kind == "path-dropped" and pset:
        return dataclasses.replace(wit, paths=_at(wit.paths, pos, pset[1:]))
    if kind == "path-extra":
        extra = rng.choice(enumerate_paths(net, s, d)[0] or [()])
        return dataclasses.replace(wit, paths=_at(wit.paths, pos, (*pset, extra)))
    if kind == "path-replaced" and pset:
        other = rng.choice(enumerate_paths(net, s, d)[0])
        return dataclasses.replace(wit, paths=_at(wit.paths, pos, (other, *pset[1:])))
    if kind == "path-cut-short" and pset and pset[0]:
        return dataclasses.replace(wit, paths=_at(wit.paths, pos, (pset[0][:-1], *pset[1:])))
    if kind == "positions-swapped" and K > 1:
        q = rng.randrange(K)
        swap = lambda seq: _at(_at(seq, pos, seq[q]), q, seq[pos])  # noqa: E731
        return Witness(wit.session_order, swap(wit.cuts), swap(wit.perms), swap(wit.paths))
    if kind == "order-changed":
        order = list(wit.session_order)
        rng.shuffle(order)
        if rng.random() < 0.25:
            order[0] = order[-1]
        return dataclasses.replace(wit, session_order=tuple(order))
    return wit


TAMPER_KINDS = ("none", "cut-edge-added", "cut-edge-dropped", "other-min-cut", "perm-reversed",
                "perm-edge-changed", "path-set-dropped", "path-dropped", "path-extra", "path-replaced",
                "path-cut-short", "positions-swapped", "order-changed")


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(TAMPER_KINDS))
def test_verify_witness_matches_the_checks_one_at_a_time(seed, kind):
    rng = random.Random(seed)
    net = random_network(rng, max_internal=6, max_sessions=4, edge_prob=0.6)
    wit = decide_information_distributive(net).witness
    assume(wit is not None)
    wit = _tamper(rng, net, wit, kind)
    for strict in (False, True):
        assert verify_witness(net, wit, strict=strict) == oracles.stepwise_verify_witness(
            net, wit, strict=strict)


@pytest.mark.parametrize("limit", ["PATH_LIMIT", "CUTSET_LIMIT"])
def test_truncated_enumeration_turns_no_into_unknown(nets, monkeypatch, limit):
    monkeypatch.setattr(witnesses, limit, 1)
    verdict = decide_information_distributive(nets["fig5"])
    assert verdict.status == "unknown"
    assert verdict.stats.to_json_dict()["truncated"] is True
    assert not verdict.stats.exhausted


def test_witness_from_json_defaults_to_the_identity_order(nets):
    data = decide_information_distributive(nets["fig1b"]).witness.to_json_dict()
    del data["session_order"]
    assert witness_from_json(data).session_order == (1, 2, 3)
