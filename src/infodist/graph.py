"""Acyclic directed multigraph model for multi-unicast networks.

Edges are (tail, head, index) triples with implicit unit capacity and are
referred to everywhere by their 0-based position in the input edge list.
Sessions are (source, sink) pairs numbered 1..K in input order.  Everything
here is exact integer/set arithmetic; the one float is ``math.inf``, the
value of a flow whose sources and sinks share a node.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from collections.abc import Mapping
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import (
    CycleDetected,
    DuplicateEdge,
    NetworkFormatError,
    PathEnumerationTruncated,
    SinkHasOutEdge,
    SourceHasInEdge,
    json_int,
    json_key,
    json_list,
)

# A path is the ordered tuple of edge ids it traverses.
Path = tuple[int, ...]

DEFAULT_PATH_LIMIT = 10**6


class EdgeTriple(NamedTuple):
    tail: str
    head: str
    index: int


class CheckResult(NamedTuple):
    """A check's outcome: ok, or the first violation it found.  True iff ok."""

    ok: bool
    violation: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


class Network:
    """Validated immutable network with cached adjacency and topological order.

    Construct through :func:`validate_network`; the constructor assumes the
    invariants already hold except for the ones it checks itself (acyclicity,
    duplicate triples, terminal degrees, a sink distinct from its source).
    """

    def __init__(self, nodes, edges, sessions):
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.edges: tuple[EdgeTriple, ...] = tuple([tuple.__new__(EdgeTriple, e) for e in edges])
        self.sessions: tuple[tuple[str, str], ...] = tuple(
            (str(s), str(d)) for s, d in sessions
        )

        out: dict[str, list[int]] = {v: [] for v in self.nodes}
        if len(out) != len(self.nodes):
            raise NetworkFormatError("duplicate node id", field="nodes")
        inc: dict[str, list[int]] = {v: [] for v in self.nodes}
        self._heads = heads = {v: [] for v in self.nodes}  # heads of out_edges[v], in order
        repeats = len(set(self.edges)) < len(self.edges)  # then name the first repeat
        seen = set()
        for eid, e in enumerate(self.edges):
            tail, head, _ = e
            if tail not in out:
                raise NetworkFormatError(f"edge {eid} tail {tail!r} not a node", field="edges")
            if head not in out:
                raise NetworkFormatError(f"edge {eid} head {head!r} not a node", field="edges")
            if repeats:
                if e in seen:
                    raise DuplicateEdge(e)
                seen.add(e)
            out[tail].append(eid)
            heads[tail].append(head)
            inc[head].append(eid)
        self.out_edges: dict[str, tuple[int, ...]] = {v: tuple(ids) for v, ids in out.items()}
        self.in_edges: dict[str, tuple[int, ...]] = {v: tuple(ids) for v, ids in inc.items()}

        for i, (s, d) in enumerate(self.sessions, start=1):
            if s not in out:
                raise NetworkFormatError(f"session {i} source {s!r} not a node", field="sessions")
            if d not in out:
                raise NetworkFormatError(f"session {i} sink {d!r} not a node", field="sessions")
            if s == d:
                raise NetworkFormatError(f"session {i} source and sink are both {s!r}",
                                         field="sessions")
            if inc[s]:
                raise SourceHasInEdge(i, s)
            if out[d]:
                raise SinkHasOutEdge(i, d)

        indeg = {v: len(ids) for v, ids in inc.items()}
        order = [v for v, n in indeg.items() if not n]
        for v in order:  # Kahn's sort; the list is its own first-in-first-out queue
            for w in heads[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    order.append(w)
        if len(order) != len(self.nodes):
            raise CycleDetected(self._cycle_edge({v for v, n in indeg.items() if n}))
        self.topo_order: tuple[str, ...] = tuple(order)
        # Eager, so instances stay strictly immutable (thread-transferable).
        self._alpha: dict[str, int] = self._alphas()

    def _alphas(self) -> dict[str, int]:
        """Per node, the largest session index whose source reaches it (0 if
        none), in one pass in topological order."""
        alpha = dict.fromkeys(self.nodes, 0)
        for i, (s, _) in enumerate(self.sessions, start=1):
            alpha[s] = i
        heads = self._heads
        for v in self.topo_order:
            a = alpha[v]
            if a:
                for w in heads[v]:
                    if alpha[w] < a:
                        alpha[w] = a
        return alpha

    def _cycle_edge(self, left: set[str]) -> EdgeTriple:
        """An edge on a cycle, given the nodes a Kahn sort left over: those
        on a cycle and those downstream of one.  The least edge between two
        left-over nodes is named when its head reaches its tail.  Otherwise
        walking back from its tail along each node's least left-over in-edge
        closes a cycle, as every left-over node has a left-over predecessor,
        and the last edge walked is named."""
        back = {v: next(e for e in self.in_edges[v] if self.edges[e].tail in left) for v in left}
        first = self.edges[min(back.values())]
        if has_path(self, first.head, first.tail):
            return first
        cycle = walk_back({v: self.edges[e].tail for v, e in back.items()}, first.tail)
        return self.edges[back[cycle[0]]]

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    def source(self, i: int) -> str:
        return self.sessions[i - 1][0]

    def sink(self, i: int) -> str:
        return self.sessions[i - 1][1]

    def reindex_sessions(self, order: Sequence[int]) -> "Network":
        """The network whose session p is the old session order[p-1] (1-based).

        A reorder changes only the sessions and the alpha values that number
        them, so the result shares this network's validated nodes, edges,
        adjacency and topological order; the identity order is this network.
        """
        if sorted(order) != list(range(1, self.num_sessions + 1)):
            raise ValueError(f"not a session permutation: {order}")
        if list(order) == list(range(1, self.num_sessions + 1)):
            return self
        net = copy.copy(self)
        net.sessions = tuple(self.sessions[i - 1] for i in order)
        net._alpha = net._alphas()
        return net

    def edge_str(self, eid: int) -> str:
        e = self.edges[eid]
        return f"#{eid}({e.tail}->{e.head}/{e.index})"

    def to_json_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [
                {"tail": e.tail, "head": e.head, "index": e.index} for e in self.edges
            ],
            "sessions": [{"source": s, "sink": d} for s, d in self.sessions],
        }


def validate_network(raw) -> Network:
    """Build a :class:`Network` from its JSON object.

    Raises :class:`NetworkFormatError` subclasses naming the offending field.
    """
    if not isinstance(raw, Mapping):
        raise NetworkFormatError("network description must be a JSON object")
    for key in ("nodes", "edges", "sessions"):  # all three present before any is read
        json_key(raw, key)
    nodes = [str(v) for v in json_list(raw["nodes"], "nodes")]
    edges = []
    for pos, item in enumerate(json_list(raw["edges"], "edges")):
        if isinstance(item, Mapping):
            try:
                tail, head = str(item["tail"]), str(item["head"])
            except KeyError as exc:
                raise NetworkFormatError(f"edge {pos} missing {exc}", field="edges")
            index = item.get("index", 0)
        else:
            seq = json_list(item, f"edge {pos}")
            if len(seq) == 2:
                tail, head, index = str(seq[0]), str(seq[1]), 0
            elif len(seq) == 3:
                tail, head, index = str(seq[0]), str(seq[1]), seq[2]
            else:
                raise NetworkFormatError(f"edge {pos} malformed", field="edges")
        edges.append((tail, head, json_int(index, f"edge {pos} index")))
    sessions = []
    for pos, item in enumerate(json_list(raw["sessions"], "sessions")):
        if isinstance(item, Mapping):
            try:
                sessions.append((str(item["source"]), str(item["sink"])))
            except KeyError as exc:
                raise NetworkFormatError(f"session {pos} missing {exc}", field="sessions")
        else:
            seq = json_list(item, f"session {pos}")
            if len(seq) != 2:
                raise NetworkFormatError(f"session {pos} malformed", field="sessions")
            sessions.append((str(seq[0]), str(seq[1])))
    if not sessions:
        raise NetworkFormatError("at least one session required", field="sessions")
    return Network(nodes, edges, sessions)


def walk_back(pred: Mapping, start) -> tuple:
    """The cycle closed by walking back from start along pred, which maps each
    node to one of its predecessors, as a node sequence in edge direction.
    Every node the walk meets needs an entry in pred."""
    trail: dict = {}
    v = start
    while v not in trail:
        trail[v] = len(trail)
        v = pred[v]
    return tuple(reversed(list(trail)[trail[v]:]))


def _bfs(net: Network, start: str, removed, forward: bool):
    """Nodes reachable from start (forward) or co-reaching start (backward)."""
    adj = net.out_edges if forward else net.in_edges
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for eid in adj[v]:
            if eid in removed:
                continue
            e = net.edges[eid]
            w = e.head if forward else e.tail
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def reachable_from(net: Network, node: str, removed=frozenset()) -> set[str]:
    return _bfs(net, node, removed, forward=True)


def co_reachable(net: Network, node: str, removed=frozenset()) -> set[str]:
    return _bfs(net, node, removed, forward=False)


def has_path(net, u, v, removed=frozenset()) -> bool:
    return v in reachable_from(net, u, removed)


def reach_masks(net: Network, targets: Sequence[tuple[str, Iterable[int]]]) -> dict[str, int]:
    """Per node, a bitmask whose bit k says whether the node reaches the sink
    of targets[k] without an edge of its removed set, from one pass in
    reverse topological order that starts at the latest sink: mask[v] is the
    OR over out-edges e = (v, w) of mask[w] less the bits of targets removing e.
    """
    mask = dict.fromkeys(net.nodes, 0)
    blocked: dict[int, int] = {}
    for k, (sink, removed) in enumerate(targets):
        mask[sink] |= 1 << k
        for eid in removed:
            blocked[eid] = blocked.get(eid, 0) | 1 << k
    order, heads, out = net.topo_order, net._heads, net.out_edges
    stop = len(order)
    while stop and not mask[order[stop - 1]]:
        stop -= 1
    for v in reversed(order[:stop]):
        acc = mask[v]
        for eid, w in zip(out[v], heads[v]):
            if mask[w]:
                acc |= mask[w] & ~blocked.get(eid, 0)
        mask[v] = acc
    return mask


def _augmenting(net: Network, sources, sinks, flow, removed):
    """Breadth-first search of the residual graph from every node of sources.

    Each visited node tries its out-edges outside flow and removed, then
    its in-edges in flow, backwards.  The search stops at the first node of
    sinks it reaches, as a search from a super-source over the sources to a
    super-sink under the sinks would.  Returns (steps, seen): steps is that
    source->sink path, as (edge id, forward) pairs, or None; seen is every
    node visited.
    """
    pred: dict[str, tuple[int, bool]] = {}
    seen = set(sources)
    queue = deque(sources)
    while queue:
        x = queue.popleft()
        for eid in net.out_edges[x]:
            if eid in flow or eid in removed:
                continue
            w = net.edges[eid].head
            if w not in seen:
                seen.add(w)
                pred[w] = (eid, True)
                if w in sinks:
                    steps = []
                    while w in pred:
                        step = pred[w]
                        steps.append(step)
                        e = net.edges[step[0]]
                        w = e.tail if step[1] else e.head
                    return steps[::-1], seen
                queue.append(w)
        for eid in net.in_edges[x]:
            if eid not in flow:
                continue
            w = net.edges[eid].tail
            if w not in seen:
                seen.add(w)
                pred[w] = (eid, False)
                queue.append(w)
    return None, seen


def find_path(net: Network, u: str, v: str, removed=frozenset()) -> Optional[Path]:
    """One u->v path (BFS order) as an edge-id tuple, or None."""
    if u == v:
        return ()
    steps, _ = _augmenting(net, (u,), {v}, (), removed)
    return None if steps is None else tuple(eid for eid, _ in steps)


def routing_domain(net: Network, i: int) -> frozenset[int]:
    """Edges lying on some source->sink path of session i (1-based).

    Every session path and every minimum cut-set lies in it, so the search
    routines never need it; it names the containment a cut-set breaks.
    """
    s, d = net.sessions[i - 1]
    fwd = reachable_from(net, s)
    bwd = co_reachable(net, d)
    return frozenset(
        eid for eid, e in enumerate(net.edges) if e.tail in fwd and e.head in bwd
    )


def _max_flow(net: Network, sources, sinks):
    """Unit-capacity max flow from the sources to the sinks via BFS augmentation.

    Sources and sinks are node collections, joined to an implicit
    super-source and super-sink of unbounded capacity.  Returns (value,
    flow edge set, nodes the residual graph reaches from the sources);
    value is ``math.inf`` when a node is both a source and a sink.
    """
    if not set(sinks).isdisjoint(sources):
        return math.inf, set(), set(sources)
    flow: set[int] = set()
    value = 0
    while True:
        steps, seen = _augmenting(net, sources, sinks, flow, ())
        if steps is None:
            return value, flow, seen
        for eid, forward in steps:
            if forward:
                flow.add(eid)
            else:
                flow.remove(eid)
        value += 1


def min_cut(net: Network, u: str, v: str) -> int:
    """Max number of edge-disjoint u->v paths (the minimum cut size)."""
    if u == v:
        raise ValueError("min_cut endpoints must differ")
    return _max_flow(net, (u,), {v})[0]


def enumerate_min_cutsets(
    net: Network, u: str, v: str, limit: Optional[int] = None,
    on_cutset: Callable[[], None] = lambda: None,
) -> tuple[list[frozenset[int]], bool]:
    """All minimum-cardinality u->v edge cut-sets in lexicographic order.

    After one max flow, the minimum cut-sets are the edge boundaries of the
    node sets S that hold u, miss v and are closed under the residual arcs
    (Picard & Queyranne 1980); only flow-carrying edges can cross such an S.
    The flow edges are branched on in ascending id order, "in the cut"
    before "not in the cut" (Provan & Shier 1996).  A partial choice is kept
    iff the least S grown from u and the tails of the chosen cut edges, and
    closed also under tail->head of every rejected edge, reaches neither v
    nor a head of a chosen cut edge.  Every kept branch ends in a cut-set,
    and once it has min-cut many edges that cut-set is the choice itself.
    S is grown and shrunk in place along the branch, so each cut-set costs
    O(F) closure searches of O(|E|) each, with F the number of flow edges.
    The branching keeps its own stack, so deep networks do not recurse.
    Every minimum cut-set lies on u->v paths, so S is grown only over edges
    whose head reaches v: a dead-end branch costs one backward search.

    Returns (cutsets, truncated); truncated means more than ``limit`` exist.
    on_cutset runs once per cut-set found.
    """
    if u == v:
        raise ValueError("min_cut endpoints must differ")
    value, flow, _ = _max_flow(net, (u,), {v})
    if value == 0:
        return [frozenset()], False
    # arcs[x]: nodes that every closed S holding x must hold too.  A node
    # that cannot reach v never forces one that can into S.
    alive = co_reachable(net, v)
    arcs: dict[str, list[str]] = {x: [] for x in net.nodes}
    for eid, e in enumerate(net.edges):
        if e.head not in alive:
            continue
        if eid in flow:
            arcs[e.head].append(e.tail)
        else:
            arcs[e.tail].append(e.head)
    saturated = sorted(flow)
    chosen: list[int] = []
    # Per decided flow edge, in order: is it in the cut, and which nodes the
    # decision added to S (so a backtrack can take them out again).
    decided: list[tuple[bool, set[str]]] = []
    # Nodes S may not hold: v, the heads of the chosen cut edges, and each
    # node seen to force one of those in.  Until the next backtrack choices
    # only add constraints, so a doomed node stays doomed.
    doomed = {v}

    def grow(closed: set[str], start: str) -> Optional[set[str]]:
        """Nodes the closure of closed + {start} adds; None if one is doomed."""
        new: set[str] = set()
        queue = [start]
        while queue:
            x = queue.pop()
            if x in doomed:
                doomed.add(start)
                return None
            if x not in closed and x not in new:
                new.add(x)
                queue.extend(arcs[x])
        return new

    closed = grow(set(), u)  # not None: the residual graph has no u->v path
    found: list[frozenset[int]] = []
    while True:
        if len(chosen) == value:
            # Every cut-set below holds `chosen` and has `value` edges.
            found.append(frozenset(chosen))
            on_cutset()
            if limit is not None and len(found) > limit:
                return found[:limit], True
            # Backtrack to the deepest cut edge that can be rejected instead.
            while decided:
                eid = saturated[len(decided) - 1]
                tail, head = net.edges[eid].tail, net.edges[eid].head
                in_cut, added = decided.pop()
                closed -= added
                if not in_cut:
                    arcs[tail].pop()
                    continue
                chosen.pop()
                doomed.clear()
                doomed.add(v)
                doomed.update(net.edges[c].head for c in chosen)
                arcs[tail].append(head)
                new = grow(closed, head) if tail in closed else set()
                if new is not None:
                    closed |= new
                    decided.append((False, new))
                    break
                arcs[tail].pop()
            else:
                return found, False
            continue
        eid = saturated[len(decided)]
        tail, head = net.edges[eid].tail, net.edges[eid].head
        new = None if head in closed else grow(closed, tail)
        if new is not None and head not in new:
            closed |= new
            chosen.append(eid)
            doomed.add(head)
            decided.append((True, new))
        else:
            # Rejecting keeps the same S: the arc tail->head only binds when
            # tail is in S, and then head is in S already.
            arcs[tail].append(head)
            decided.append((False, set()))


def enumerate_paths(
    net: Network, u: str, v: str, limit: int = DEFAULT_PATH_LIMIT,
    on_path: Callable[[], None] = lambda: None,
) -> tuple[list[Path], bool]:
    """All simple directed u->v paths in lexicographic edge-id order.

    The depth-first search never enters a node that cannot reach v, so a
    dead-end branch costs one backward search.  Returns (paths, truncated);
    truncated means the cap was hit and the list is incomplete.  on_path
    runs once per path found.
    """
    if u == v:
        return [()], False
    # Enumerate one past the cap so an exactly-full result is not
    # misreported as truncated.
    alive = co_reachable(net, v)
    if u not in alive:
        return [], False
    paths: list[Path] = []
    prefix: list[int] = []
    # frames[j]: the out-edges of the j-th node on the prefix still to try
    frames = [iter(net.out_edges[u])]
    while frames:
        for eid in frames[-1]:
            head = net.edges[eid].head
            if head not in alive:
                continue
            if head == v:
                paths.append((*prefix, eid))
                on_path()
                if len(paths) > limit:
                    return paths[:limit], True
                continue
            prefix.append(eid)
            frames.append(iter(net.out_edges[head]))
            break
        else:
            frames.pop()
            if prefix:
                prefix.pop()
    return paths, False


def require_paths(net, u, v, limit=DEFAULT_PATH_LIMIT) -> list[Path]:
    paths, truncated = enumerate_paths(net, u, v, limit=limit)
    if truncated:
        raise PathEnumerationTruncated(u, v, limit)
    return paths


def alpha(net: Network, eid: int) -> int:
    """Largest session index whose source reaches tail(e); 0 if none.

    An edge whose tail no source reaches carries a constant symbol, so 0
    makes every alpha-bounded condition on it vacuous.
    """
    return net._alpha[net.edges[eid].tail]


def validate_path(net: Network, path: Sequence[int], u: str, v: str) -> bool:
    """True iff path is a u->v walk over existing edge ids.  The network is
    acyclic, so such a walk never repeats an edge."""
    at = u
    for eid in path:
        if not 0 <= eid < len(net.edges):
            return False
        e = net.edges[eid]
        if e.tail != at:
            return False
        at = e.head
    return at == v
