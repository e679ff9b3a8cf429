import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1A, FIG5
from oracles import (
    CutNotSaturable,
    bfs_find_path,
    brute_min_cut,
    deque_kahn_order,
    edge_disjoint_paths,
    max_alphas,
    random_network,
)

from infodist.errors import (
    CycleDetected,
    DuplicateEdge,
    NetworkFormatError,
    SinkHasOutEdge,
    SourceHasInEdge,
)
from infodist.graph import (
    Network,
    _max_flow,
    alpha,
    co_reachable,
    enumerate_min_cutsets,
    enumerate_paths,
    find_path,
    min_cut,
    reach_masks,
    reachable_from,
    routing_domain,
    validate_network,
    validate_path,
)


def test_validate_accepts_corpus_fig1a(nets):
    net = nets["fig1a"]
    assert net.num_sessions == 2
    assert net.topo_order.index("s1") < net.topo_order.index("d1")


def test_validate_single_edge():
    net = validate_network(
        {"nodes": ["s", "d"], "edges": [["s", "d"]], "sessions": [["s", "d"]]}
    )
    assert len(net.edges) == 1


def test_validate_rejects_a_list():
    with pytest.raises(NetworkFormatError, match="network description must be a JSON object"):
        validate_network([])


def test_validate_rejects_two_cycle():
    with pytest.raises(CycleDetected) as exc:
        validate_network(
            {
                "nodes": ["u", "v", "s", "d"],
                "edges": [["u", "v"], ["v", "u"], ["s", "u"], ["v", "d"]],
                "sessions": [["s", "d"]],
            }
        )
    assert exc.value.edge is not None


def _on_a_cycle(edges, edge) -> bool:
    """Whether the edge's head reaches its tail over the edge list."""
    seen, stack = {edge.head}, [edge.head]
    while stack:
        v = stack.pop()
        for tail, head in edges:
            if tail == v and head not in seen:
                seen.add(head)
                stack.append(head)
    return edge.tail in seen


@pytest.mark.parametrize("nodes, edges", [
    # Downstream of the u<->v cycle, v->w is the least edge a Kahn sort leaves.
    (["s", "u", "v", "w", "d"], [["v", "w"], ["u", "v"], ["v", "u"], ["s", "u"], ["w", "d"]]),
    # The a<->b cycle sits behind a chain of lower-numbered downstream edges.
    (["s", "a", "b", "c", "x", "d"],
     [["c", "x"], ["x", "d"], ["b", "c"], ["a", "b"], ["b", "a"], ["s", "a"]]),
])
def test_cycle_diagnostic_names_an_edge_on_the_cycle(nodes, edges):
    raw = {"nodes": nodes, "edges": edges, "sessions": [["s", "d"]]}
    with pytest.raises(CycleDetected) as exc:
        validate_network(raw)
    assert _on_a_cycle(edges, exc.value.edge)
    assert str(exc.value).startswith("graph contains a cycle through edge EdgeTriple(")


def test_cycle_diagnostic_on_random_digraphs():
    rng, cyclic = random.Random(5), 0
    for _ in range(300):
        inner = [f"v{i}" for i in range(rng.randint(2, 6))]
        edges = [[a, b] for a in inner for b in inner if a != b and rng.random() < 0.3]
        edges += [["s", rng.choice(inner)], [rng.choice(inner), "d"]]
        rng.shuffle(edges)
        raw = {"nodes": ["s", "d", *inner], "edges": edges, "sessions": [["s", "d"]]}
        try:
            validate_network(raw)
        except CycleDetected as exc:
            assert _on_a_cycle(edges, exc.edge)
            cyclic += 1
    assert cyclic > 100


def test_validate_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        validate_network(
            {"nodes": ["s", "d"], "edges": [["s", "d", 0], ["s", "d", 0]],
             "sessions": [["s", "d"]]}
        )


def test_validate_rejects_terminal_degree_violations():
    with pytest.raises(SourceHasInEdge) as exc:
        Network(["a", "s", "d"], [("a", "s", 0), ("s", "d", 0)], [("s", "d")])
    assert exc.value.session == 1
    with pytest.raises(SinkHasOutEdge):
        Network(["s", "d", "b"], [("s", "d", 0), ("d", "b", 0)], [("s", "d")])


# Two faulty edges each; the first one (by edge id) must be named, and an
# edge with a bad tail and a bad head is named for its tail.
DUPLICATE = "duplicate edge triple EdgeTriple(tail='s', head='d', index=0)"
TWO_FAULTS = [
    ([("s", "x", 0), ("s", "d", 0), ("s", "d", 0)], "edge 0 head 'x' not a node"),
    ([("s", "d", 0), ("s", "d", 0), ("y", "d", 0)], DUPLICATE),
    ([("s", "d", 1), ("y", "z", 0), ("s", "d", 1)], "edge 1 tail 'y' not a node"),
    ([("s", "d", 0), ("s", "d", 0), ("s", "d", 0), ("s", "q", 0)], DUPLICATE),
    ([("s", "d", 0), ("s", "q", 0), ("s", "d", 0)], "edge 1 head 'q' not a node"),
]


@pytest.mark.parametrize("edges, message", TWO_FAULTS)
def test_two_faults_name_the_first_offending_edge(edges, message):
    with pytest.raises(NetworkFormatError) as exc:
        Network(["s", "d"], edges, [("s", "d")])
    assert str(exc.value) == message and exc.value.field == "edges"
    assert isinstance(exc.value, DuplicateEdge) == (message == DUPLICATE)


def test_reindex_sessions_rejects_a_non_permutation(nets):
    with pytest.raises(ValueError, match=r"not a session permutation: \(1, 1\)"):
        nets["fig1a"].reindex_sessions((1, 1))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reindex_sessions_matches_a_fresh_network(seed, data):
    net = random_network(random.Random(seed), max_internal=6, max_sessions=4, edge_prob=0.6)
    order = data.draw(st.permutations(range(1, net.num_sessions + 1)))
    got = net.reindex_sessions(order)
    fresh = Network(net.nodes, net.edges, [net.sessions[i - 1] for i in order])
    assert got.sessions == fresh.sessions
    assert got.nodes == fresh.nodes and got.edges == fresh.edges
    assert got.out_edges == fresh.out_edges and got.in_edges == fresh.in_edges
    assert got.topo_order == fresh.topo_order
    assert {v: got._alpha[v] for v in net.nodes} == fresh._alpha
    assert [alpha(got, e) for e in range(len(net.edges))] == [
        alpha(fresh, e) for e in range(len(net.edges))
    ]
    # The original keeps its own sessions and alpha.
    assert [alpha(net, e) for e in range(len(net.edges))] == [
        alpha(Network(net.nodes, net.edges, net.sessions), e) for e in range(len(net.edges))
    ]


def test_routing_domain_fig1a_session2(nets):
    dom = routing_domain(nets["fig1a"], 2)
    assert FIG1A["e1"] not in dom
    assert FIG1A["e2"] in dom and FIG1A["e3"] in dom
    # edges reaching only d1 are excluded: (w4,d1)=7, (v3,d1)=12
    assert 7 not in dom and 12 not in dom


def test_routing_domain_single_edge(nets):
    assert routing_domain(nets["single-edge"], 1) == frozenset({0})


def test_routing_domain_disconnected_is_empty_flag():
    net = Network(["s", "d", "x"], [("s", "x", 0)], [("s", "d")])
    assert routing_domain(net, 1) == frozenset()


def test_min_cut_examples(nets):
    assert min_cut(nets["fig1a"], "s1", "d1") == 3
    assert min_cut(nets["single-edge"], "s", "d") == 1
    assert min_cut(nets["parallel-m"], "s", "d") == 3


def test_min_cut_unreachable_is_zero():
    net = Network(["s", "d", "x"], [("s", "x", 0)], [("s", "d")])
    assert min_cut(net, "s", "d") == 0


def test_enumerate_min_cutsets_trivial_cases(nets):
    two = Network(["s", "d"], [("s", "d", 0), ("s", "d", 1)], [("s", "d")])
    sets, trunc = enumerate_min_cutsets(two, "s", "d")
    assert sets == [frozenset({0, 1})] and not trunc

    chain = Network(["s", "x", "d"], [("s", "x", 0), ("x", "d", 0)], [("s", "d")])
    sets, _ = enumerate_min_cutsets(chain, "s", "d")
    assert sets == [frozenset({0}), frozenset({1})]


def test_equal_endpoints(nets):
    net = nets["fig1a"]
    for search in (min_cut, enumerate_min_cutsets):
        with pytest.raises(ValueError, match="min_cut endpoints must differ"):
            search(net, "s1", "s1")
    assert enumerate_paths(net, "s1", "s1") == ([()], False)


def test_enumerate_min_cutsets_truncation_flag():
    chain = Network(["s", "x", "d"], [("s", "x", 0), ("x", "d", 0)], [("s", "d")])
    # exactly two cut-sets exist, so a cap of two is not a truncation
    assert enumerate_min_cutsets(chain, "s", "d", limit=2) == (
        [frozenset({0}), frozenset({1})],
        False,
    )
    assert enumerate_min_cutsets(chain, "s", "d", limit=1) == ([frozenset({0})], True)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    limit=st.sampled_from([None, 1, 2, 3]),
)
def test_enumerate_min_cutsets_matches_bruteforce_oracle(seed, limit):
    net = random_network(random.Random(seed), max_internal=6, max_sessions=3)
    for i in range(1, net.num_sessions + 1):
        s, d = net.sessions[i - 1]
        value, expected = brute_min_cut(net, s, d)
        expected = sorted(expected, key=sorted)
        truncated = False
        if value and limit is not None:
            expected, truncated = expected[:limit], len(expected) > limit
        got = enumerate_min_cutsets(net, s, d, limit=limit)
        assert got == (expected, truncated)


def test_enumerate_min_cutsets_fig1a_matches_bruteforce(nets):
    net = nets["fig1a"]
    sets, trunc = enumerate_min_cutsets(net, "s1", "d1")
    assert not trunc
    assert frozenset({FIG1A["e1"], FIG1A["e2"], FIG1A["e3"]}) in sets
    value, expected = brute_min_cut(net, "s1", "d1")
    assert value == 3
    assert sorted(map(sorted, sets)) == sorted(map(sorted, expected))


def test_min_cutsets_are_minimal_and_disconnect(nets):
    from infodist.graph import has_path

    net = nets["fig1a"]
    sets, _ = enumerate_min_cutsets(net, "s2", "d2")
    for cut in sets:
        assert not has_path(net, "s2", "d2", removed=cut)
        for eid in cut:
            assert has_path(net, "s2", "d2", removed=cut - {eid})


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_find_path_matches_bfs_oracle(seed, data):
    net = random_network(random.Random(seed), max_internal=6, max_sessions=3, edge_prob=0.6)
    removed = frozenset(data.draw(st.sets(st.integers(0, max(len(net.edges) - 1, 0)))))
    for u in net.nodes:
        for v in net.nodes:
            assert find_path(net, u, v, removed=removed) == bfs_find_path(net, u, v, removed)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_multi_terminal_max_flow_matches_super_terminal_min_cut(seed, data):
    net = random_network(random.Random(seed), max_internal=6, max_sessions=3, edge_prob=0.6)
    nodes = st.lists(st.sampled_from(net.nodes), min_size=1, max_size=4, unique=True)
    sources, sinks = data.draw(nodes), data.draw(nodes)
    value, flow, reach = _max_flow(net, sources, sinks)
    if set(sources) & set(sinks):
        assert value == math.inf
        return
    assert not reach & set(sinks)
    # A copy with a super-source and super-sink: each source x gets as many
    # parallel #S->x edges as x has out-edges, which no flow can exceed, and
    # each sink as many in-edge copies to #T.
    extra = [("#S", x, k) for x in sources for k in range(len(net.out_edges[x]))]
    extra += [(y, "#T", k) for y in sinks for k in range(len(net.in_edges[y]))]
    copy = Network([*net.nodes, "#S", "#T"], [*net.edges, *extra], [("#S", "#T")])
    assert value == min_cut(copy, "#S", "#T")
    # The flow is conserved at every node but a terminal.
    for v in set(net.nodes) - set(sources) - set(sinks):
        assert len(flow & set(net.in_edges[v])) == len(flow & set(net.out_edges[v]))


def test_dead_branch_changes_no_cutset_or_path():
    # s and a reach a 40-edge chain x0 -> ... -> x40 that never reaches d.
    core_nodes = ["s", "a", "b", "d"]
    core = [("s", "a", 0), ("s", "b", 0), ("a", "b", 0), ("a", "d", 0), ("b", "d", 0)]
    chain = [f"x{k}" for k in range(41)]
    branch = [("s", "x0", 0), ("a", "x0", 0)] + list(zip(chain, chain[1:], [0] * 40))
    # The branch edges come first, so each core edge id shifts by len(branch).
    full = Network(core_nodes + chain, branch + core, [("s", "d")])
    bare = Network(core_nodes, core, [("s", "d")])
    shift = len(branch)
    bare_sets, _ = enumerate_min_cutsets(bare, "s", "d")
    bare_paths, _ = enumerate_paths(bare, "s", "d")
    assert len(bare_sets) == 3 and len(bare_paths) == 3
    assert enumerate_min_cutsets(full, "s", "d") == (
        [frozenset(e + shift for e in c) for c in bare_sets], False
    )
    assert enumerate_paths(full, "s", "d") == (
        [tuple(e + shift for e in p) for p in bare_paths], False
    )


def test_edge_disjoint_paths_parallel(nets):
    net = nets["parallel-m"]
    paths = edge_disjoint_paths(net, "s", "d", {0, 1, 2})
    assert paths == [(0,), (1,), (2,)]


def test_edge_disjoint_paths_fig1a_cut_alignment(nets):
    net = nets["fig1a"]
    cut = sorted({FIG1A["e1"], FIG1A["e2"], FIG1A["e3"]})
    paths = edge_disjoint_paths(net, "s1", "d1", cut)
    assert len(paths) == 3
    seen = set()
    for eid, path in zip(cut, paths):
        assert eid in path
        assert not (seen & set(path))
        seen |= set(path)


def test_edge_disjoint_paths_single_chain():
    chain = Network(["s", "x", "d"], [("s", "x", 0), ("x", "d", 0)], [("s", "d")])
    assert edge_disjoint_paths(chain, "s", "d", {0}) == [(0, 1)]


def test_edge_disjoint_paths_rejects_non_cut(nets):
    net = nets["fig1a"]
    with pytest.raises(CutNotSaturable):
        edge_disjoint_paths(net, "s1", "d1", {FIG1A["e1"]})


def test_menger_consistency_over_all_min_cutsets(nets):
    for name in ("fig1a", "fig1b", "fig5", "butterfly"):
        net = nets[name]
        for i in range(1, net.num_sessions + 1):
            s, d = net.sessions[i - 1]
            value = min_cut(net, s, d)
            sets, _ = enumerate_min_cutsets(net, s, d)
            for cut in sets:
                assert len(edge_disjoint_paths(net, s, d, cut)) == value


def test_enumerate_paths_examples(nets):
    assert enumerate_paths(nets["single-edge"], "s", "d") == ([(0,)], False)
    diamond = Network(
        ["s", "a", "b", "d"],
        [("s", "a", 0), ("s", "b", 0), ("a", "d", 0), ("b", "d", 0)],
        [("s", "d")],
    )
    paths, _ = enumerate_paths(diamond, "s", "d")
    assert paths == [(0, 2), (1, 3)]


def test_validate_path_rejects_a_repeated_edge(nets):
    net = nets["fig1a"]
    (path, *_), _ = enumerate_paths(net, "s1", "d1")
    assert validate_path(net, path, "s1", "d1")
    assert not validate_path(net, path + path[:1], "s1", "d1")


def test_enumerate_paths_fig5_session2(nets):
    paths, trunc = enumerate_paths(nets["fig5"], "s2", "d2")
    assert not trunc
    expected = {
        (FIG5["a3"], FIG5["e3"], FIG5["b3"]),
        (FIG5["a3"], FIG5["e4"], FIG5["b4"]),
        (FIG5["a4"], FIG5["e5"], FIG5["b4"]),
    }
    assert set(paths) == expected


def test_enumerate_paths_truncation_flag(nets):
    paths, trunc = enumerate_paths(nets["fig1a"], "s1", "d1", limit=2)
    assert len(paths) == 2 and trunc
    paths, trunc = enumerate_paths(nets["fig1a"], "s1", "d1", limit=3)
    assert len(paths) == 3 and not trunc


def test_deep_chain_enumerates_without_recursion():
    nodes = [f"c{i}" for i in range(1201)]
    chain = Network(nodes, list(zip(nodes, nodes[1:], [0] * 1200)), [("c0", "c1200")])
    assert enumerate_paths(chain, "c0", "c1200") == ([tuple(range(1200))], False)
    sets, trunc = enumerate_min_cutsets(chain, "c0", "c1200")
    assert sets == [frozenset({eid}) for eid in range(1200)] and not trunc
    assert edge_disjoint_paths(chain, "c0", "c1200", {600}) == [tuple(range(1200))]


def test_paths_cross_every_min_cutset(nets):
    net = nets["fig1b"]
    for i in range(1, 4):
        s, d = net.sessions[i - 1]
        paths, _ = enumerate_paths(net, s, d)
        sets, _ = enumerate_min_cutsets(net, s, d)
        for cut in sets:
            for path in paths:
                assert cut & set(path)


def test_alpha_examples(nets):
    net = nets["fig1a"]
    assert alpha(net, FIG1A["e1"]) == 1
    assert alpha(net, FIG1A["e2"]) == 2
    assert alpha(net, FIG1A["e4"]) == 2
    # an edge out of the last source takes that session index
    assert alpha(net, 4) == 2  # (s2, u2)
    assert alpha(net, 0) == 1  # (s1, x1)


def test_alpha_zero_for_source_unreachable_edge():
    net = Network(
        ["s", "d", "x", "y"],
        [("s", "d", 0), ("x", "y", 0)],
        [("s", "d")],
    )
    assert alpha(net, 1) == 0


def test_alpha_monotone_along_edges():
    rng = random.Random(5)
    for _ in range(40):
        net = random_network(rng)
        for eid, e in enumerate(net.edges):
            for nxt in net.out_edges[e.head]:
                assert alpha(net, nxt) >= alpha(net, eid)


def test_alpha_is_largest_session_whose_source_reaches_the_tail():
    rng = random.Random(8)
    for _ in range(60):
        net = random_network(rng, max_sessions=4, edge_prob=0.6)
        reach = [reachable_from(net, s) for s, _ in net.sessions]
        for eid, e in enumerate(net.edges):
            expected = max((i for i, r in enumerate(reach, start=1) if e.tail in r), default=0)
            assert alpha(net, eid) == expected


def test_min_cut_matches_bruteforce_on_random_networks():
    rng = random.Random(11)
    for _ in range(30):
        net = random_network(rng, max_internal=4, max_sessions=2)
        if len(net.edges) > 12:
            continue
        for i in range(1, net.num_sessions + 1):
            s, d = net.sessions[i - 1]
            value, _ = brute_min_cut(net, s, d)
            assert min_cut(net, s, d) == value


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_reach_masks_equal_one_search_per_target(seed, data):
    # Sinks are any nodes; removed sets may be empty, repeat a target's sink
    # or hold edge ids outside the network.
    net = random_network(random.Random(seed), max_internal=6, max_sessions=3, edge_prob=0.5)
    ids = st.integers(-2, len(net.edges) + 2)
    targets = data.draw(st.lists(
        st.tuples(st.sampled_from(net.nodes), st.frozensets(ids, max_size=len(net.edges) + 2)),
        max_size=8))
    masks = reach_masks(net, targets)
    assert set(masks) == set(net.nodes)
    for k, (sink, removed) in enumerate(targets):
        reach = co_reachable(net, sink, removed=removed)
        assert {v for v in net.nodes if masks[v] >> k & 1} == reach
    assert all(m < 1 << len(targets) for m in masks.values())


def test_topo_order_and_alpha_equal_the_deque_kahn_oracle(nets):
    rng = random.Random(20)
    cases = list(nets.values())
    cases += [random_network(rng, max_internal=7, max_sessions=4, edge_prob=0.6)
              for _ in range(200)]
    for net in cases:
        assert net.topo_order == deque_kahn_order(net)
        assert net._alpha == max_alphas(net)
        order = tuple(range(net.num_sessions, 0, -1))
        assert net.reindex_sessions(order)._alpha == max_alphas(net.reindex_sessions(order))
