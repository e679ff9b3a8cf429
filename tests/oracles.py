"""Independent brute-force oracles used to freeze expected values.

Nothing here shares algorithmic machinery with the package: min-cuts come
from exhaustive subset scans, LP optima from vertex enumeration over exact
linear solves or a dense Fraction tableau, and the no-witness verdict from
undimmed full enumeration.  The two extendable-path-family searches are the
chronological recursive backtrackers the library's forward checking replaced.
C[0] orderings are checked against a scan of all permutations, acyclicity
against a three-colour DFS and cycle witnesses against a quadratic
predecessor scan; the library answers all three with one topological sort.
`scan_cumulative` tests every session pair with its own path search, and
`domain_validate_cuts` checks each cut-set against its routing domain; the
library answers both from one search per cut-set.
`product_tuples` walks every cut tuple, the reference for the search's
subset flow bound.
`find_cumulative_order` (forward checking over session orders) and the
Menger witness (`edge_disjoint_paths`, a flow decomposition) are test-only
helpers built on library primitives.  `bfs_find_path` is the breadth-first
search `graph.find_path` ran before it shared the max flow's residual
search.  `gf_rank` eliminates every row with no early stop and no memo, the
reference for `gfmatrix.rank` and `codes.entropy`.
`two_grid_time_extended` reads the deadline grid's session-0 min-cut on a
full-horizon grid, built with its own layout code.
`deque_kahn_order` and `max_alphas` are the topological sort and alpha pass
`Network` ran before it kept each node's head list; `domain_first_c0_check`
is `reductions.check_c0_distributive` reading the routing domain before it
tests disconnection.
`stepwise_verify_witness` is `witnesses.verify_witness` as separate checks
called one at a time (the cut-sets by `domain_validate_cuts`, cumulativity by
`scan_cumulative`), in the order it names failures.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Optional

from infodist.errors import (BijectionViolated, DeadlineTooSmall, InfodistError, NotACutset,
                             PermutationMismatch)
from infodist.graph import (
    Network,
    Path,
    _max_flow,
    co_reachable,
    enumerate_paths,
    has_path,
    min_cut,
    reachable_from,
    routing_domain,
    validate_path,
)
from infodist.reductions import (
    DeadlineInstance,
    TimeExtendedNetwork,
    _build_grid,
    _shortest_delays,
)
from infodist.witnesses import (
    CheckResult,
    Witness,
    cumulativity_breach,
    forward_check,
    is_distributive,
    is_extendable,
)


def brute_min_cut(net: Network, u: str, v: str):
    """Smallest k with a disconnecting k-subset, plus all such subsets.

    The subsets are drawn from the u->v routing domain (edges on some u->v
    path): a minimal disconnecting set holds no other edge.
    """
    fwd, bwd = reachable_from(net, u), co_reachable(net, v)
    pool = [eid for eid, e in enumerate(net.edges) if e.tail in fwd and e.head in bwd]
    if not has_path(net, u, v):
        return 0, [frozenset()]
    for k in range(0, len(pool) + 1):
        hits = [
            frozenset(combo)
            for combo in combinations(pool, k)
            if not has_path(net, u, v, removed=frozenset(combo))
        ]
        if hits:
            return k, hits
    raise AssertionError("unreachable")


def solve_square(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact Gaussian elimination; None when singular."""
    n = len(rows)
    M = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [x / inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][-1] for r in range(n)]


def vertex_enum_max(c, A, b):
    """Max of c.x over {A x <= b, x >= 0} by enumerating basic solutions.

    Assumes the feasible region is bounded (true for unit-capacity path
    polytopes).  Returns None when the region is empty.
    """
    n = len(c)
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    for j in range(n):
        unit = [Fraction(0)] * n
        unit[j] = Fraction(-1)
        rows.append(unit)
        rhs.append(Fraction(0))
    best = None
    for combo in combinations(range(len(rows)), n):
        point = solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if any(
            sum(a * x for a, x in zip(row, point)) > bb
            for row, bb in zip(rows[: len(A)], rhs[: len(A)])
        ):
            continue
        value = sum(ci * x for ci, x in zip(c, point))
        if best is None or value > best:
            best = value
    return best


def columns(A, n: int) -> list[list]:
    """The n columns of the dense matrix A in `simplex.solve`'s form: per
    column, its nonzero (row, value) pairs in row order."""
    return [[(i, row[j]) for i, row in enumerate(A) if row[j]] for j in range(n)]


def fraction_simplex(c, A, b):
    """Two-phase Bland simplex for max c.x, A x <= b, x >= 0 on a dense
    Fraction tableau: every row is divided by its pivot and every entry kept
    in lowest terms.  Returns (status, x, value, dual, pivots); x, value and
    dual are None unless the status is "optimal"."""
    m, n = len(A), len(c)
    c = [Fraction(v) for v in c]
    b = [Fraction(v) for v in b]
    sign = [-1 if bi < 0 else 1 for bi in b]
    art_rows = [i for i in range(m) if b[i] < 0]
    ncols = n + m + len(art_rows)
    art_col = {i: n + m + k for k, i in enumerate(art_rows)}
    T, basis = [], []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(n):
            row[j] = sign[i] * Fraction(A[i][j])
        row[n + i] = Fraction(sign[i])
        row[-1] = sign[i] * b[i]
        if i in art_col:
            row[art_col[i]] = Fraction(1)
        basis.append(art_col.get(i, n + i))
        T.append(row)
    pivots = 0

    def pivot(prow, pcol):
        nonlocal pivots
        pivots += 1
        piv = T[prow][pcol]
        T[prow] = [v / piv for v in T[prow]]
        for r, row in enumerate(T):
            if r != prow and row[pcol] != 0:
                f = row[pcol]
                T[r] = [v - f * p for v, p in zip(row, T[prow])]
        basis[prow] = pcol

    def price_out(cost):
        obj = [-cost[j] for j in range(ncols)] + [Fraction(0)]
        for r, bcol in enumerate(basis):
            for j in range(ncols + 1):
                obj[j] += cost[bcol] * T[r][j]
        return obj

    def optimize(obj, allowed):
        while True:
            enter = next((j for j in allowed if obj[j] < 0), None)
            if enter is None:
                return "optimal"
            leave, best = None, None
            for r in range(m):
                if T[r][enter] > 0:
                    ratio = T[r][-1] / T[r][enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]
                    ):
                        leave, best = r, ratio
            if leave is None:
                return "unbounded"
            pivot(leave, enter)
            f = obj[enter]
            obj[:] = [v - f * p for v, p in zip(obj, T[leave])]

    if art_rows:
        cost1 = [Fraction(0)] * ncols
        for col in art_col.values():
            cost1[col] = Fraction(-1)
        obj = price_out(cost1)
        assert optimize(obj, range(ncols)) == "optimal"
        if obj[-1] != 0:
            return "infeasible", None, None, None, pivots
        arts = set(art_col.values())
        for r in range(m):
            if basis[r] in arts:
                pcol = next((j for j in range(n + m) if T[r][j] != 0), None)
                if pcol is not None:
                    pivot(r, pcol)
    obj = price_out(c + [Fraction(0)] * (ncols - n))
    if optimize(obj, range(n + m)) == "unbounded":
        return "unbounded", None, None, None, pivots
    x = [Fraction(0)] * n
    for r, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = T[r][-1]
    dual = [sign[i] * obj[n + i] for i in range(m)]
    return "optimal", x, obj[-1], dual, pivots


def scan_cumulative(net: Network, cuts) -> CheckResult:
    """The cumulativity check of `witnesses.witness_checks` as one s_j -> d_i
    path search per session pair i < j, pairs in (i, j) order."""
    K = net.num_sessions
    for i in range(1, K):
        for j in range(i + 1, K + 1):
            path = cumulativity_breach(net, i, cuts[i - 1], j)
            if path is not None:
                return CheckResult(False, (j, i, path))
    return CheckResult(True)


def domain_validate_cuts(net: Network, cuts) -> None:
    """The cut-set check of `witnesses.witness_checks`, with each cut-set
    checked against its session's routing domain: containment, then the
    min-cut size within the domain, then disconnection.  Raises ValueError
    with the same messages."""
    if len(cuts) != net.num_sessions:
        raise ValueError("one cut-set per session required")
    for i, cut in enumerate(cuts, start=1):
        s, d = net.sessions[i - 1]
        dom = routing_domain(net, i)
        if not dom:
            if cut:
                raise ValueError(f"session {i} has no path; its cut-set must be empty")
            continue
        if not cut <= dom:
            raise ValueError(f"cut-set of session {i} leaves its routing domain")
        value = min_cut(net, s, d)
        if len(cut) != value:
            raise ValueError(
                f"cut-set of session {i} has size {len(cut)}, min-cut is {value}"
            )
        if has_path(net, s, d, removed=cut):
            raise ValueError(f"cut-set of session {i} does not disconnect {s!r}->{d!r}")


def deque_kahn_order(net: Network) -> tuple[str, ...]:
    """Kahn's sort with a deque, each out-edge's head looked up by edge id;
    None when some node is left over (a cycle)."""
    indeg = {v: len(net.in_edges[v]) for v in net.nodes}
    queue = deque(v for v in net.nodes if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for eid in net.out_edges[v]:
            w = net.edges[eid].head
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return tuple(order) if len(order) == len(net.nodes) else None


def max_alphas(net: Network) -> dict[str, int]:
    """Per node, the largest session index whose source reaches it (0 if
    none), by a max over every edge in topological order."""
    alpha = dict.fromkeys(net.nodes, 0)
    for i, (s, _) in enumerate(net.sessions, start=1):
        alpha[s] = i
    for v in deque_kahn_order(net):
        for eid in net.out_edges[v]:
            w = net.edges[eid].head
            alpha[w] = max(alpha[w], alpha[v])
    return alpha


def domain_first_c0_check(tnet: TimeExtendedNetwork, c0) -> None:
    """The cut-set test of `reductions.check_c0_distributive` in its printed
    order: size and routing-domain containment, then disconnection.  Raises
    NotACutset with the same messages."""
    c0 = frozenset(c0)
    if len(c0) != tnet.mincut0 or not c0 <= routing_domain(tnet.net, 1):
        raise NotACutset("C[0] must be a minimum cut-set of the session-0 domain")
    if has_path(tnet.net, "#s0", "#d0", removed=c0):
        raise NotACutset("C[0] does not disconnect session 0")


def brute_decide(net: Network) -> bool:
    """Full enumeration over session orders, min cut-set tuples, permutation
    tuples and bijective path tuples, with no pruning at all."""
    K = net.num_sessions
    per_session = []
    for i in range(1, K + 1):
        s, d = net.sessions[i - 1]
        _, cutsets = brute_min_cut(net, s, d)
        paths, truncated = enumerate_paths(net, s, d)
        assert not truncated
        per_session.append((cutsets, paths))
    for order in permutations(range(1, K + 1)):
        ordered = net.reindex_sessions(order)
        pools = [per_session[i - 1][0] for i in order]
        for cuts in product(*pools):
            if not scan_cumulative(ordered, cuts):
                continue
            perm_pools = [list(permutations(sorted(c))) for c in cuts]
            if not any(
                is_distributive(ordered, cuts, perms)
                for perms in product(*perm_pools)
            ):
                continue
            slot_pools = []
            feasible = True
            for pos, sess in enumerate(order):
                all_paths = per_session[sess - 1][1]
                session_slots = []
                for eid in sorted(cuts[pos]):
                    cands = [
                        p
                        for p in all_paths
                        if [x for x in p if x in cuts[pos]] == [eid]
                    ]
                    if not cands:
                        feasible = False
                    session_slots.append(cands)
                slot_pools.append(session_slots)
            if not feasible:
                continue
            flat = [slot for session_slots in slot_pools for slot in session_slots]
            sizes = [len(cuts[pos]) for pos in range(K)]
            for combo in product(*flat):
                chosen = []
                idx = 0
                for size in sizes:
                    chosen.append(tuple(combo[idx: idx + size]))
                    idx += size
                if is_extendable(ordered, cuts, tuple(chosen)):
                    return True
    return False


def stepwise_verify_witness(net: Network, wit: Witness, strict: bool = False) -> CheckResult:
    """`witnesses.verify_witness` from separate checks, one at a time: the
    cut-sets by their routing domains, cumulativity by a path search per
    session pair, the orderings, the path count and bijection,
    extendability, then every path of every session."""
    if sorted(wit.session_order) != list(range(1, net.num_sessions + 1)):
        return CheckResult(False, ("session_order", wit.session_order))
    ordered = net.reindex_sessions(wit.session_order)
    try:
        domain_validate_cuts(ordered, wit.cuts)
    except ValueError as exc:
        return CheckResult(False, ("cuts", str(exc)))
    cum = scan_cumulative(ordered, wit.cuts)
    if not cum:
        return CheckResult(False, ("cumulative", cum.violation))
    try:
        dis = is_distributive(ordered, wit.cuts, wit.perms, strict=strict)
    except PermutationMismatch as exc:
        return CheckResult(False, ("perms", str(exc)))
    if not dis:
        return CheckResult(False, ("distributive", dis.violation))
    if len(wit.paths) != len(wit.cuts):
        return CheckResult(False, ("paths", "one path set per session required"))
    try:
        ext = is_extendable(ordered, wit.cuts, wit.paths)
    except BijectionViolated as exc:
        return CheckResult(False, ("paths", str(exc)))
    if not ext:
        return CheckResult(False, ("extendable", ext.violation))
    for (s, d), pset in zip(ordered.sessions, wit.paths):
        for path in pset:
            if not validate_path(ordered, path, s, d):
                return CheckResult(False, ("paths", path))
    return CheckResult(True)


def random_network(rng: random.Random, max_internal=5, max_sessions=3, edge_prob=0.5):
    """Random DAG with dedicated terminal nodes per session."""
    n = rng.randint(2, max_internal)
    internal = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((internal[i], internal[j], 0))
    K = rng.randint(1, max_sessions)
    nodes = list(internal)
    sessions = []
    for k in range(1, K + 1):
        s, d = f"s{k}", f"d{k}"
        nodes += [s, d]
        for v in rng.sample(internal, rng.randint(1, min(2, n))):
            edges.append((s, v, 0))
        for v in rng.sample(internal, rng.randint(1, min(2, n))):
            edges.append((v, d, 0))
        sessions.append((s, d))
    return Network(nodes, edges, sessions)


def product_tuples(searcher, order, pools):
    """`witnesses._Searcher._tuples` before the subset flow bound: every
    tuple of product(*pools), the deadline checked once per tuple; usable
    as a drop-in `_tuples` method."""
    for cuts in product(*pools):
        searcher._tick()
        yield cuts


def backtrack_paths(searcher, order, cuts):
    """`witnesses._Searcher._find_paths` before forward checking: recursive
    backtracking over per-cut-edge path choices with a shared-edge
    representative map.  The per-edge choices are filtered from the
    searcher's session paths, as its constructor used to; usable as a
    drop-in `_find_paths` method."""
    slots = []  # (position, cut edge, choices)
    for pos, sess in enumerate(order):
        for eid in sorted(cuts[pos]):
            choices = [
                p for p in searcher.paths[sess - 1]
                if [x for x in p if x in cuts[pos]] == [eid]
            ]
            if not choices:
                return None
            slots.append((pos, eid, choices))
    chosen = []
    rep = {}

    def place(idx: int) -> bool:
        if idx == len(slots):
            return True
        searcher._tick()
        _pos, cut_edge, choices = slots[idx]
        for path in choices:
            searcher.stats.path_assignments += 1
            added = []
            ok = True
            for eid in path:
                prev = rep.get(eid)
                if prev is None:
                    rep[eid] = cut_edge
                    added.append(eid)
                elif prev != cut_edge:
                    ok = False
                    break
            if ok:
                chosen.append(path)
                if place(idx + 1):
                    return True
                chosen.pop()
            for eid in added:
                del rep[eid]
        return False

    if not place(0):
        return None
    result = [[] for _ in order]
    for (pos, _eid, _), path in zip(slots, chosen):
        result[pos].append(path)
    return tuple(tuple(ps) for ps in result)


def backtrack_extendable_paths(tnet, c0, path_limit: int = 10**4):
    """`reductions.find_extendable_paths` before forward checking: recursive
    backtracking that re-checks every chosen pair at each step."""
    c0 = sorted(frozenset(c0))
    all_paths, truncated = enumerate_paths(tnet.net, "#s0", "#d0", limit=path_limit)
    if truncated:
        return None
    per_edge = {e: [] for e in c0}
    c0set = frozenset(c0)
    for path in all_paths:
        hits = [e for e in path if e in c0set]
        if len(hits) == 1:
            per_edge[hits[0]].append(path)
    chosen = []

    def place(idx: int) -> bool:
        if idx == len(c0):
            return True
        for path in per_edge[c0[idx]]:
            if any(set(path) & set(q) for q in chosen):
                continue
            chosen.append(path)
            if _partial_consistent(tnet, c0set, chosen) and place(idx + 1):
                return True
            chosen.pop()
        return False

    if place(0):
        return tuple(chosen)
    return None


def _family(label):
    """Shift-family key: time-shifted copies of one edge share a family."""
    kind = label[0]
    if kind == "base":
        return ("base", label[1])
    if kind == "mem":
        return ("mem", label[1], label[2])
    return (kind, label[1])  # inject copies shift with the session index


def _family_time(label) -> int:
    kind = label[0]
    if kind == "base":
        return label[2]
    if kind == "mem":
        return label[3]
    return label[2]


def _partial_consistent(tnet, c0set, chosen) -> bool:
    crossing = []
    for path in chosen:
        hits = [e for e in path if e in c0set]
        crossing.append(tnet.base_pair(hits[0]))
    for i in range(len(chosen)):
        fam_i = {
            _family(tnet.labels[e]): _family_time(tnet.labels[e]) for e in chosen[i]
        }
        if len(fam_i) != len(chosen[i]):
            return False
        for j in range(i + 1, len(chosen)):
            for e in chosen[j]:
                fam = _family(tnet.labels[e])
                if fam in fam_i:
                    a, b = fam_i[fam], _family_time(tnet.labels[e])
                    (bi, ti), (bj, tj) = crossing[i], crossing[j]
                    if bi != bj or ti - tj != a - b:
                        return False
    return True


def random_deadline(rng: random.Random):
    """Small deadline instance: a random delay DAG on s < a < b < c < d with
    an s -> d route, short deadline and horizon, memory 0 or 1."""
    order = ["s", "a", "b", "c", "d"]
    edges = [
        (u, v, rng.randint(1, 2))
        for i, u in enumerate(order)
        for v in order[i + 1:]
        if (u, v) != ("s", "d") and rng.random() < 0.6
    ]
    hop = rng.choice(order[1:4])
    edges += [("s", hop, 1), (hop, "d", 1)]
    return DeadlineInstance(
        edges=tuple(dict.fromkeys(edges)), source="s", sink="d",
        tau=rng.randint(2, 4), horizon=rng.randint(1, 3), memory=rng.randint(0, 1),
    )


def random_lane_deadline(rng: random.Random):
    """Memory-0 instance s -> x -> y -> d: three to six s -> x lanes and two
    or three y -> d lanes of distinct delays around one x -> y lane.  Copies
    of the x -> y lane used later than x is first reached make many C[0]
    sets with no ordering."""
    edges = [("s", "x", d) for d in sorted(rng.sample(range(1, 7), rng.randint(3, 6)))]
    edges.append(("x", "y", rng.randint(1, 2)))
    edges += [("y", "d", d) for d in sorted(rng.sample(range(1, 4), rng.randint(2, 3)))]
    return DeadlineInstance(
        edges=tuple(edges), source="s", sink="d",
        tau=rng.randint(6, 9), horizon=rng.randint(1, 3), memory=0,
    )


def probe_session0_mincut(inst) -> int:
    """The session-0 min-cut of a deadline instance, read on the full grid
    built with the injection width, or with |E|·(tau+1) in and out copies
    when none is given (more than any min-cut can use)."""
    J = inst.injection if inst.injection is not None else len(inst.edges) * (inst.tau + 1)
    net, _ = _build_grid(inst, max(J, 1))
    return min_cut(net, "#s0", "#d0")


def _full_grid(inst: DeadlineInstance, J: int):
    """The time-extended grid as `reductions._build_grid` lays it out,
    formatting every `v@t` name where it is used."""
    K, tau, M = inst.horizon, inst.tau, inst.memory
    nodes = [f"#s{t}" for t in range(K + 1)] + [f"#d{t}" for t in range(K + 1)]
    nodes += [f"{v}@{t}" for v in inst.base_nodes for t in range(K + tau + 1)]
    edges, labels = [], []
    nbase = len(inst.edges)
    for b, (tail, head, delay) in enumerate(inst.edges):
        for t in range(0, K + tau - delay + 1):
            edges.append((f"{tail}@{t}", f"{head}@{t + delay}", b))
            labels.append(("base", b, t))
    for v in inst.base_nodes:
        for t in range(0, K + tau):
            for slot in range(M):
                edges.append((f"{v}@{t}", f"{v}@{t + 1}", nbase + slot))
                labels.append(("mem", v, slot, t))
    for t in range(K + 1):
        for copy in range(J):
            edges.append((f"#s{t}", f"{inst.source}@{t}", copy))
            labels.append(("in", copy, t))
        for copy in range(J):
            edges.append((f"{inst.sink}@{t + tau}", f"#d{t}", copy))
            labels.append(("out", copy, t))
    sessions = [(f"#s{t}", f"#d{t}") for t in range(K + 1)]
    return Network(nodes, edges, sessions), tuple(labels)


def two_grid_time_extended(inst: DeadlineInstance) -> TimeExtendedNetwork:
    """`reductions.deadline_to_time_extended` as it read the session-0
    min-cut: on a full-horizon grid without in- and out-copies, then built
    the final grid; the reference for the horizon-0 read."""
    delta = _shortest_delays(inst)
    best = delta[inst.sink]
    if best is None or best > inst.tau:
        raise DeadlineTooSmall(inst.tau, best)
    if inst.injection is None:
        width = max(len(inst.edges) * (inst.tau + 1), 1)
    else:
        width = int(inst.injection)
    inner, _ = _full_grid(inst, 0)
    value = min(min_cut(inner, f"{inst.source}@0", f"{inst.sink}@{inst.tau}"), width)
    J = width if inst.injection is not None else max(value, 1)
    net, labels = _full_grid(inst, J)
    return TimeExtendedNetwork(
        net=net, inst=inst, J=J, labels=labels,
        label_to_id={lab: i for i, lab in enumerate(labels)},
        delta_node=delta, mincut0=value,
    )


def scan_c0_orderings(tnet, c0) -> Optional[tuple[int, ...]]:
    """`reductions.check_c0_distributive` before the topological sort: the
    first of all |C0|! orderings (permutations of the cut in ascending edge
    id) that passes both recurrent-sequence slack conditions, or None."""
    pairs = [(eid,) + tnet.base_pair(eid) for eid in sorted(c0)]  # (edge id, base, t)
    member = {(b, t) for _, b, t in pairs}
    recurrent: dict[int, list[int]] = {}
    for _, b, t in pairs:
        recurrent.setdefault(b, []).append(t)
    for ts in recurrent.values():
        ts.sort()

    def passes(order) -> bool:
        pos = {entry[0]: k for k, entry in enumerate(order)}
        for b, ts in recurrent.items():
            k = len(ts)
            for j in range(1, k):  # condition 1: needs a predecessor copy
                cur = next(e for e, bb, tt in pairs if bb == b and tt == ts[j])
                for eq, bq, tq in order[: pos[cur]]:
                    if (bq, tq - ts[j] + ts[j - 1]) not in member:
                        if tq - tnet.delta(bq) > ts[j] - ts[j - 1] - 1:
                            return False
            for j in range(0, k - 1):  # condition 2: needs a successor copy
                cur = next(e for e, bb, tt in pairs if bb == b and tt == ts[j])
                for eq, bq, tq in order[: pos[cur]]:
                    if (bq, tq + ts[j + 1] - ts[j]) not in member:
                        if tq - tnet.delta(bq) > ts[j] - ts[0]:
                            return False
        return True

    for order in permutations(pairs):
        if passes(order):
            return tuple(e for e, _, _ in order)
    return None


def dfs_acyclic(graph: dict[int, tuple[int, ...]]) -> bool:
    """Three-colour DFS on an explicit stack: False iff some edge reaches a
    node still on the stack."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in graph}
    for root in sorted(graph):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, iter(graph[root]))]
        while stack:
            v, succ = stack[-1]
            w = next(succ, None)
            if w is None:
                color[v] = BLACK
                stack.pop()
            elif color[w] == GRAY:
                return False
            elif color[w] == WHITE:
                color[w] = GRAY
                stack.append((w, iter(graph[w])))
    return True


def scan_cycle_walk(graph: dict[int, tuple[int, ...]]):
    """`reductions.acyclic_reindex`'s cycle witness before its one-pass
    predecessor map: peel the in-degree-0 nodes, then walk back from the
    least leftover node along least predecessors, each found by scanning
    every leftover node.  None when the graph is acyclic."""
    indeg = {v: 0 for v in graph}
    for targets in graph.values():
        for w in targets:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    while ready:
        for w in graph[ready.pop()]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    leftover = {v for v, d in indeg.items() if d > 0}
    if not leftover:
        return None
    pred = {v: sorted(u for u in leftover if v in graph[u]) for v in leftover}
    v = min(leftover)
    trail = [v]
    while True:
        v = pred[v][0]
        if v in trail:
            return tuple(reversed(trail[trail.index(v):]))
        trail.append(v)


class CutNotSaturable(InfodistError):
    """The supplied edge set is not a minimum cut-set between the endpoints."""


def is_cutset(net: Network, u: str, v: str, cut: Iterable[int]) -> bool:
    return not has_path(net, u, v, removed=frozenset(cut))


def bfs_find_path(net: Network, u: str, v: str, removed=frozenset()):
    """`graph.find_path` as its own breadth-first search over out-edges,
    before it became the max flow's residual search on an empty flow."""
    if u == v:
        return ()
    pred: dict[str, int] = {}
    seen = {u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for eid in net.out_edges[x]:
            if eid in removed:
                continue
            w = net.edges[eid].head
            if w in seen:
                continue
            seen.add(w)
            pred[w] = eid
            if w == v:
                path = []
                while w != u:
                    path.append(pred[w])
                    w = net.edges[pred[w]].tail
                return tuple(reversed(path))
            queue.append(w)
    return None


def edge_disjoint_paths(net: Network, u: str, v: str, cut: Iterable[int]) -> list[Path]:
    """Menger paths through a minimum cut-set.

    Returns pairwise edge-disjoint u->v paths aligned with sorted(cut): the
    j-th path crosses the j-th cut edge (and no other cut edge).
    """
    cut = frozenset(cut)
    value, flow, _ = _max_flow(net, (u,), {v})
    if len(cut) != value or not is_cutset(net, u, v, cut):
        raise CutNotSaturable(f"{sorted(cut)} is not a minimum {u!r}->{v!r} cut-set")
    # Decompose the flow: walk from u along flow edges, consuming them.
    succ: dict[str, list[int]] = {}
    for eid in flow:
        succ.setdefault(net.edges[eid].tail, []).append(eid)
    for lst in succ.values():
        lst.sort(reverse=True)
    paths = []
    for _ in range(value):
        path = []
        x = u
        while x != v:
            eid = succ[x].pop()
            path.append(eid)
            x = net.edges[eid].head
        paths.append(tuple(path))
    by_cut_edge = {}
    for path in paths:
        crossings = [eid for eid in path if eid in cut]
        assert len(crossings) == 1, "max flow crosses a minimum cut more than once"
        by_cut_edge[crossings[0]] = path
    return [by_cut_edge[eid] for eid in sorted(cut)]


def find_cumulative_order(net: Network, cuts_by_session):
    """A session order making the given per-session cut-sets cumulative.

    cuts_by_session is indexed by original session (0-based list, session i
    at position i-1); the returned order is 1-based original session ids.
    """
    K = net.num_sessions

    def conflicts(k: int, c: int) -> list[int]:
        # Session c+1 rules out itself and each s_j reaching d_{c+1} around C_{c+1}.
        i = c + 1
        mask = sum(
            1 << (j - 1) for j in range(1, K + 1)
            if j == i or has_path(net, net.source(j), net.sink(i), removed=cuts_by_session[c])
        )
        return [mask] * (K - k - 1)

    chosen = forward_check([(1 << K) - 1] * K, conflicts)
    return None if chosen is None else tuple(c + 1 for c in chosen)


def menger_paths(net: Network, u: str, v: str) -> list[Path]:
    """A max flow from u to v as edge-disjoint u->v paths (none if v is
    unreachable), through the minimum cut-set at u's residual reach."""
    _value, _flow, reach = _max_flow(net, (u,), {v})
    cut = [eid for eid, e in enumerate(net.edges) if e.tail in reach and e.head not in reach]
    return edge_disjoint_paths(net, u, v, cut)


def menger_witness_for_single_session(net: Network) -> Witness:
    """The Menger certificate for a single-unicast network (always exists)."""
    assert net.num_sessions == 1
    s, d = net.sessions[0]
    # The flow edges leaving the residual reach of s form a minimum cut-set.
    _value, _flow, reach = _max_flow(net, (s,), {d})
    cut = sorted(
        eid for eid, e in enumerate(net.edges) if e.tail in reach and e.head not in reach
    )
    paths = edge_disjoint_paths(net, s, d, cut)
    return Witness((1,), (frozenset(cut),), (tuple(cut),), (tuple(paths),))


def gf_rank(M, p: int) -> int:
    """Rank mod p, reducing every row against the pivot rows kept so far."""
    pivots: list[tuple[int, list[int]]] = []  # (column, row with 1 there)
    for row in M:
        row = [v % p for v in row]
        for c, prow in pivots:
            f = row[c]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, prow)]
        c = next((j for j, v in enumerate(row) if v), None)
        if c is not None:
            inv = pow(row[c], p - 2, p)
            pivots.append((c, [v * inv % p for v in row]))
    return len(pivots)
