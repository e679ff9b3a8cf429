"""Reductions that produce multi-unicast networks with canonical certificates.

Two constructions: broadcast-with-side-information (index coding) instances
become a star network through one bottleneck edge, where rawness of the
instance is equivalent to acyclicity of the side-information graph; and a
single unicast with per-edge delays and a hard deadline becomes a
time-extended multi-unicast network whose per-slot sessions share shifted
copies of one cut-set and path family.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from .errors import DeadlineTooSmall, NotACutset, json_int, json_key, json_list, json_object
from .graph import (
    CheckResult,
    Network,
    Path,
    alpha,
    enumerate_min_cutsets,
    enumerate_paths,
    min_cut,
    reach_masks,
    routing_domain,
    validate_path,
    walk_back,
)
from .witnesses import Witness, family_slots, family_violation, find_family, verify_witness

# ---------------------------------------------------------------------------
# Index coding


@dataclass(frozen=True)
class IndexCodingInstance:
    """K terminals, m symbols per message, side sets H_i (1-based ids)."""

    K: int
    m: int
    side_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.K < 1 or self.m < 1:
            raise ValueError("K and m must be positive")
        if len(self.side_sets) != self.K:
            raise ValueError("one side set per terminal required")
        for i, h in enumerate(self.side_sets, start=1):
            if i in h:
                raise ValueError(f"terminal {i} already holds its own message")
            if any(not 1 <= j <= self.K for j in h):
                raise ValueError(f"side set of terminal {i} references unknown message")

    @classmethod
    def from_json(cls, data) -> "IndexCodingInstance":
        return cls(
            json_int(json_key(data, "K"), "K"),
            json_int(data.get("m", 1), "m"),
            tuple(
                frozenset(json_int(x, "side") for x in json_list(hs, "side"))
                for hs in json_list(json_key(data, "side"), "side")
            ),
        )


def index_to_network(inst: IndexCodingInstance) -> tuple[Network, Witness]:
    """The equivalent multi-unicast network plus its canonical witness skeleton.

    Sources feed a single bottleneck edge (u,v); terminal i additionally has a
    direct edge from s_j for every message j it already holds.  Every C_i is
    the bottleneck alone, so the permutation conditions hold trivially, and
    all canonical paths overlap at the bottleneck, so the path family is
    extendable; only cumulativity is instance-dependent.
    """
    K = inst.K
    nodes = [f"s{i}" for i in range(1, K + 1)] + [f"d{i}" for i in range(1, K + 1)]
    nodes += ["u", "v"]
    edges: list[tuple[str, str, int]] = []
    for i in range(1, K + 1):
        edges.append((f"s{i}", "u", 0))
    bottleneck = len(edges)
    edges.append(("u", "v", 0))
    first_sink = len(edges)
    for i in range(1, K + 1):
        edges.append(("v", f"d{i}", 0))
    for i in range(1, K + 1):
        for j in sorted(inst.side_sets[i - 1]):
            edges.append((f"s{j}", f"d{i}", 0))
    sessions = [(f"s{i}", f"d{i}") for i in range(1, K + 1)]
    net = Network(nodes, edges, sessions)
    cuts = tuple(frozenset([bottleneck]) for _ in range(K))
    perms = tuple((bottleneck,) for _ in range(K))
    paths = tuple(
        ((i - 1, bottleneck, first_sink + i - 1),) for i in range(1, K + 1)
    )
    return net, Witness(tuple(range(1, K + 1)), cuts, perms, paths)


def side_information_graph(inst: IndexCodingInstance) -> dict[int, tuple[int, ...]]:
    """Digraph on terminals with an edge (j, i) when terminal j holds X_i."""
    adj: dict[int, list[int]] = {i: [] for i in range(1, inst.K + 1)}
    for j in range(1, inst.K + 1):
        for i in sorted(inst.side_sets[j - 1]):
            adj[j].append(i)
    return {j: tuple(ts) for j, ts in adj.items()}


@dataclass(frozen=True)
class ReindexResult:
    order: Optional[tuple[int, ...]]  # node listing; every edge goes forward
    cycle: Optional[tuple[int, ...]]

    @property
    def acyclic(self) -> bool:
        return self.order is not None


def acyclic_reindex(graph: dict[int, tuple[int, ...]]) -> ReindexResult:
    """Kahn's algorithm with a min-heap: the least node listing (in ascending
    node order) in which every edge goes forward, or a witness cycle.

    This is the library's one ordering search; index rawness and the C[0]
    orderings of the deadline reduction are both decided by it.
    """
    indeg = {v: 0 for v in graph}
    for targets in graph.values():
        for w in targets:
            indeg[w] += 1
    heap = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in graph[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) == len(graph):
        return ReindexResult(tuple(order), None)
    # Every leftover node keeps a leftover predecessor (and every successor
    # of one is leftover), so walking back along least predecessors from the
    # least leftover node must close a cycle.
    leftover = {v for v, d in indeg.items() if d > 0}
    pred: dict[int, int] = {}
    for u in leftover:
        for w in graph[u]:
            if w not in pred or u < pred[w]:
                pred[w] = u
    return ReindexResult(None, walk_back(pred, min(leftover)))


@dataclass(frozen=True)
class RawnessReport:
    raw: bool
    l_min: Optional[int]  # exact value when raw; None (strictly below m*K) otherwise
    m: int
    K: int
    reindex: ReindexResult  # the forward ordering or the cycle that decides it

    def to_json_dict(self) -> dict:
        data = {"raw": self.raw, "m": self.m, "K": self.K}
        if self.raw:
            data["l_min"] = self.l_min
        else:
            data["l_min"] = None
            data["l_min_strictly_below"] = self.m * self.K
        return data


def decide_index_rawness(inst: IndexCodingInstance) -> RawnessReport:
    """Raw (no coding gain) iff the side-information graph is acyclic, as
    decided by :func:`acyclic_reindex`; the report keeps its result."""
    reindex = acyclic_reindex(side_information_graph(inst))
    raw = reindex.acyclic
    return RawnessReport(raw, inst.m * inst.K if raw else None, inst.m, inst.K, reindex)


# ---------------------------------------------------------------------------
# Deadline-constrained unicast

# Caps on the session-0 path and cut-set enumerations of the deadline search.
PATH_LIMIT = 10**4
CUTSET_LIMIT = 10**4


@dataclass(frozen=True)
class DeadlineInstance:
    """Base graph with integer edge delays, one unicast, deadline tau."""

    edges: tuple[tuple[str, str, int], ...]  # (tail, head, delay)
    source: str
    sink: str
    tau: int
    horizon: int
    memory: int = 0
    injection: Optional[int] = None

    def __post_init__(self):
        if self.tau < 1 or self.horizon < 0 or self.memory < 0:
            raise ValueError("tau must be >= 1, horizon and memory >= 0")
        if self.injection is not None and self.injection < 1:
            raise ValueError("injection width must be >= 1")
        for tail, head, delay in self.edges:
            if delay < 1:
                raise ValueError(f"edge ({tail},{head}) needs a positive delay")
            for name in (tail, head):
                if "@" in name or "#" in name:
                    raise ValueError(f"node name {name!r} may not contain '@' or '#'")

    @cached_property
    def base_nodes(self) -> tuple[str, ...]:
        ends = [v for tail, head, _ in self.edges for v in (tail, head)]
        return tuple(dict.fromkeys([*ends, self.source, self.sink]))

    @classmethod
    def from_json(cls, data) -> "DeadlineInstance":
        edges = []
        for e in json_list(json_key(data, "edges"), "edges"):
            e = json_object(e, "edges")
            edges.append((str(json_key(e, "tail")), str(json_key(e, "head")),
                          json_int(json_key(e, "delay"), "delay")))
        tau = json_int(json_key(data, "tau"), "tau")
        injection = data.get("injection")
        return cls(
            edges=tuple(edges),
            source=str(json_key(data, "source")),
            sink=str(json_key(data, "sink")),
            tau=tau,
            horizon=json_int(data.get("horizon", 2 * tau), "horizon"),
            memory=json_int(data.get("memory", 0), "memory"),
            injection=None if injection is None else json_int(injection, "injection"),
        )


# Edge labels in the time-extended graph, time last: a label without its
# time names the edge's shift family.
#   ("base", base edge id, t)       (u[t], v[t + delay])
#   ("mem", node, slot, t)          (u[t], u[t+1])
#   ("in", copy, session t)         (s_t, s[t])
#   ("out", copy, session t)        (d[t+tau], d_t)
Label = tuple


@dataclass
class TimeExtendedNetwork:
    net: Network
    inst: DeadlineInstance
    J: int
    labels: tuple[Label, ...]
    label_to_id: dict[Label, int]
    delta_node: dict[str, Optional[int]]
    mincut0: int

    def delta(self, base_eid: int) -> Optional[int]:
        return self.delta_node[self.inst.edges[base_eid][0]]

    def label_str(self, eid: int) -> str:
        label = self.labels[eid]
        kind = label[0]
        if kind == "base":
            return f"e{label[1] + 1}[{label[2]}]"
        if kind == "mem":
            return f"mem({label[1]})[{label[3]}]#{label[2]}"
        return f"{kind}{label[2]}#{label[1]}"

    def base_pair(self, eid: int) -> tuple[int, int]:
        label = self.labels[eid]
        if label[0] != "base":
            raise ValueError(f"{self.label_str(eid)} is not a base-edge copy")
        return label[1], label[2]

    def family_time(self, eid: int) -> tuple[Label, int]:
        """The (shift family, time) of an edge: its label split at the time."""
        label = self.labels[eid]
        return label[:-1], label[-1]

    def shift_label(self, label: Label, dt: int) -> Label:
        return (*label[:-1], label[-1] + dt)

    def shift_path(self, path: Path, dt: int) -> Path:
        return tuple(
            self.label_to_id[self.shift_label(self.labels[eid], dt)] for eid in path
        )

    @cached_property
    def _session0_paths(self) -> tuple[list[Path], bool]:
        """All #s0 -> #d0 paths in :func:`enumerate_paths` order, and whether
        they exceed ``PATH_LIMIT``; enumerated once, on first use."""
        return enumerate_paths(self.net, "#s0", "#d0", limit=PATH_LIMIT)


def _shortest_delays(inst: DeadlineInstance) -> dict[str, Optional[int]]:
    dist: dict[str, Optional[int]] = {v: None for v in inst.base_nodes}
    dist[inst.source] = 0
    heap = [(0, inst.source)]
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in inst.base_nodes}
    for tail, head, delay in inst.edges:
        adj[tail].append((head, delay))
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for w, delay in adj[v]:
            nd = d + delay
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def _build_grid(inst: DeadlineInstance, J: int) -> tuple[Network, tuple[Label, ...]]:
    K, tau, M = inst.horizon, inst.tau, inst.memory
    # at[v][t]: the name of node v at time t, formatted once.
    at = {v: [f"{v}@{t}" for t in range(K + tau + 1)] for v in inst.base_nodes}
    nodes = [f"#s{t}" for t in range(K + 1)] + [f"#d{t}" for t in range(K + 1)]
    for names in at.values():
        nodes += names
    edges: list[tuple[str, str, int]] = []
    labels: list[Label] = []
    nbase = len(inst.edges)
    for b, (tail, head, delay) in enumerate(inst.edges):
        tails, heads = at[tail], at[head]
        for t in range(0, K + tau - delay + 1):
            edges.append((tails[t], heads[t + delay], b))
            labels.append(("base", b, t))
    for v, names in at.items():
        for t in range(0, K + tau):
            for slot in range(M):
                edges.append((names[t], names[t + 1], nbase + slot))
                labels.append(("mem", v, slot, t))
    sources, sinks = at[inst.source], at[inst.sink]
    for t in range(K + 1):
        for copy in range(J):
            edges.append((f"#s{t}", sources[t], copy))
            labels.append(("in", copy, t))
        for copy in range(J):
            edges.append((sinks[t + tau], f"#d{t}", copy))
            labels.append(("out", copy, t))
    sessions = [(f"#s{t}", f"#d{t}") for t in range(K + 1)]
    return Network(nodes, edges, sessions), tuple(labels)


def deadline_to_time_extended(inst: DeadlineInstance) -> TimeExtendedNetwork:
    """Build the time-extended multi-unicast network.

    The injection width defaults to the session-0 min-cut (any larger value
    is equivalent); the time-shift identity for the largest connected source
    index is asserted for every base-edge copy inside the valid window.
    Every #s0 -> #d0 path is an in-copy, a source@0 -> sink@tau path of the
    base-and-memory grid, then an out-copy, so the session-0 min-cut is the
    smaller of that grid's min-cut and the injection width.  Every edge of
    the grid goes forward in time, so a source@0 -> sink@tau path stays in
    times 0..tau, and the edges between those times are the same at every
    horizon: the min-cut is read exactly on the horizon-0 grid without
    copies, and the full grid is built once, with its copies.
    """
    delta = _shortest_delays(inst)
    best = delta[inst.sink]
    if best is None or best > inst.tau:
        raise DeadlineTooSmall(inst.tau, best)
    if inst.injection is None:
        width = max(len(inst.edges) * (inst.tau + 1), 1)
    else:
        width = int(inst.injection)
    inner, _ = _build_grid(replace(inst, horizon=0), 0)
    value = min(min_cut(inner, f"{inst.source}@0", f"{inst.sink}@{inst.tau}"), width)
    J = width if inst.injection is not None else max(value, 1)
    net, labels = _build_grid(inst, J)
    tnet = TimeExtendedNetwork(
        net=net,
        inst=inst,
        J=J,
        labels=labels,
        label_to_id={lab: i for i, lab in enumerate(labels)},
        delta_node=delta,
        mincut0=value,
    )
    K = inst.horizon
    for eid, label in enumerate(labels):
        if label[0] != "base":
            continue
        _, b, t = label
        d = tnet.delta(b)
        expected = None if d is None else t - d
        got = alpha(net, eid)  # 1-based session position, 0 = unreachable
        if expected is None or expected < 0:
            assert got == 0, f"{tnet.label_str(eid)}: alpha {got}, tail unreachable"
        elif expected <= K:
            assert got == expected + 1, (
                f"{tnet.label_str(eid)}: alpha {got - 1}, expected {expected}"
            )
    return tnet


def check_c0_distributive(tnet: TimeExtendedNetwork, c0) -> Optional[tuple[int, ...]]:
    """The least ordering of C[0] meeting the two recurrent-sequence conditions
    (:func:`_c0_ordering`), or None when none does; C[0] must be a minimum
    cut-set of the session-0 domain, else :class:`NotACutset`.  A C[0] of
    min-cut size that disconnects lies on min-cut many edge-disjoint paths
    (Menger), so inside the domain, which is read only to name a failure."""
    c0 = frozenset(c0)
    disconnects = not reach_masks(tnet.net, [("#d0", c0)])["#s0"]
    if len(c0) == tnet.mincut0 and disconnects:
        return _c0_ordering(tnet, c0)
    if len(c0) != tnet.mincut0 or not c0 <= routing_domain(tnet.net, 1):
        raise NotACutset("C[0] must be a minimum cut-set of the session-0 domain")
    raise NotACutset("C[0] does not disconnect session 0")


def _c0_ordering(tnet: TimeExtendedNetwork, c0: frozenset[int]) -> Optional[tuple[int, ...]]:
    """The ordering check of :func:`check_c0_distributive`, for a C[0] known
    to be a minimum cut-set of the session-0 domain.

    Within a recurrent sequence (time-shifted copies of one base edge,
    ascending in time), an earlier-ordered cut edge whose corresponding shift
    is absent from C[0] must satisfy the printed slack bounds on t - delta.
    Each bound concerns one pair: cut edge eq may not precede copy cur.  So
    the passing orderings are the topological orders of the arcs cur -> eq,
    and :func:`acyclic_reindex` returns the least in ascending edge id, the
    first passing permutation of the sorted cut.
    """
    pairs = {eid: tnet.base_pair(eid) for eid in c0}  # edge id -> (base, t)
    member = set(pairs.values())
    recurrent: dict[int, list[tuple[int, int]]] = {}  # base -> [(t, edge id)]
    for eid, (b, t) in pairs.items():
        recurrent.setdefault(b, []).append((t, eid))
    # cur -> the cut edges that may not precede it.  cur's own neighbouring
    # copies are in C[0], so no edge is barred from preceding itself.
    barred: dict[int, set[int]] = {eid: set() for eid in pairs}
    for seq in recurrent.values():
        seq.sort()
        ts = [t for t, _ in seq]
        for j, (t, cur) in enumerate(seq):
            for eq, (bq, tq) in pairs.items():
                slack = tq - tnet.delta(bq)
                if j > 0:  # condition 1: needs a predecessor copy
                    if (bq, tq - t + ts[j - 1]) not in member and slack > t - ts[j - 1] - 1:
                        barred[cur].add(eq)
                if j + 1 < len(ts):  # condition 2: needs a successor copy
                    if (bq, tq + ts[j + 1] - t) not in member and slack > t - ts[0]:
                        barred[cur].add(eq)
    return acyclic_reindex({e: tuple(qs) for e, qs in barred.items()}).order


def check_p_extendable(tnet: TimeExtendedNetwork, c0, paths: Sequence[Path]) -> CheckResult:
    """Paths sharing a shift family must cross time-consistent copies of one
    base cut edge: cut bases equal and cut-time difference = shared-offset
    difference (:func:`~infodist.witnesses.family_violation`)."""
    c0 = frozenset(c0)
    if len(paths) != len(c0):
        raise ValueError("one path per cut edge required")
    crossing = []
    used: set[int] = set()
    for path in paths:
        if not validate_path(tnet.net, path, "#s0", "#d0"):
            raise ValueError(f"not a session-0 path: {path}")
        if used & set(path):
            raise ValueError("paths must be pairwise edge-disjoint")
        used.update(path)
        hits = [e for e in path if e in c0]
        if len(hits) != 1:
            raise ValueError(f"path must cross C[0] exactly once: {path}")
        crossing.append(hits[0])
    for x in crossing:  # all of C[0], once each: the paths are edge-disjoint
        tnet.base_pair(x)  # raises for a copy that is not a base edge
    violation = family_violation(paths, crossing, tnet.family_time)
    return CheckResult(violation is None, violation)


def find_extendable_paths(tnet: TimeExtendedNetwork, c0) -> Optional[tuple[Path, ...]]:
    """The first shift-consistent family, one path per cut edge (ascending
    edge id), by :func:`~infodist.witnesses.find_family`."""
    all_paths, truncated = tnet._session0_paths
    if truncated:
        return None
    chosen = find_family(family_slots(all_paths, frozenset(c0), tnet.family_time))
    return None if chosen is None else tuple(chosen)


@dataclass(frozen=True)
class DeadlineVerdict:
    """A shifted witness that passed :func:`check_p_extendable` and
    :func:`~infodist.witnesses.verify_witness`: the answer "yes"."""

    witness: Witness
    status = "yes"

    def to_json_dict(self) -> dict:
        # A verdict exists only once C[0] has an ordering, its paths passed
        # check_p_extendable and every generic re-check passed, so each flag
        # is true and no discrepancy is left; the keys keep the output's shape.
        return {
            "status": self.status,
            "c0_distributive": True,
            "p_extendable": True,
            "generic": dict.fromkeys(
                ("cut_invariants", "cumulative", "distributive", "extendable"), True),
            "lemma_discrepancies": [],
            "witness": self.witness.to_json_dict(),
        }


def shifted_witness(tnet: TimeExtendedNetwork, ordering: Sequence[int],
                    paths: Sequence[Path]) -> Witness:
    """The witness whose session t holds C[0]'s ordering and paths shifted
    by t.  Every edge of C[0] and of the paths lies on a #s0 -> #d0 path,
    so each shift by 0..K stays inside the grid."""
    K = tnet.inst.horizon
    perms = tuple(tnet.shift_path(ordering, t) for t in range(K + 1))
    pathseq = tuple(
        tuple(tnet.shift_path(p, t) for p in paths) for t in range(K + 1)
    )
    return Witness(tuple(range(1, K + 2)), tuple(map(frozenset, perms)), perms, pathseq)


def search_deadline_certificate(tnet: TimeExtendedNetwork) -> Optional[DeadlineVerdict]:
    """Try base-edge minimum cut-sets of the session-0 domain in order,
    ordering each once.  The shift lemmas predict that each shifted witness
    passes every generic re-check, but the search answers with one only after
    :func:`~infodist.witnesses.verify_witness` accepts it; a cut whose
    witness fails is passed over, as one with no ordering is."""
    sets, _trunc = enumerate_min_cutsets(tnet.net, "#s0", "#d0", limit=CUTSET_LIMIT)
    for cut in sets:
        if any(tnet.labels[e][0] != "base" for e in cut):
            continue
        ordering = _c0_ordering(tnet, cut)
        if ordering is None:
            continue
        paths = find_extendable_paths(tnet, cut)
        if paths is None or not check_p_extendable(tnet, cut, paths):
            continue
        wit = shifted_witness(tnet, ordering, paths)
        if verify_witness(tnet.net, wit):
            return DeadlineVerdict(wit)
    return None
