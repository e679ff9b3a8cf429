"""The three topological certificates and the information-distributive verdict.

A witness is a per-session triple: minimum cut-sets (one per session), a
permutation of each cut-set, and a path set crossing each cut-set bijectively.
The checkers validate the three defining properties (cumulative, distributive,
extendable); the decision procedure searches for a witness exhaustively and
only reports "no" when the whole candidate space was covered.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import combinations, permutations
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (BijectionViolated, NotExtendable, PermutationMismatch, json_int, json_key,
                     json_list)
from .graph import (
    CheckResult,
    Network,
    Path,
    _max_flow,
    alpha,
    enumerate_min_cutsets,
    enumerate_paths,
    find_path,
    min_cut,
    reach_masks,
    routing_domain,
    validate_path,
)

CutSetSequence = tuple[frozenset[int], ...]
PermutationSequence = tuple[tuple[int, ...], ...]
PathSetSequence = tuple[tuple[Path, ...], ...]


class Witness(NamedTuple):
    """A full certificate, interpreted against sessions in ``session_order``.

    Position p of cuts/perms/paths belongs to original session
    ``session_order[p]`` (1-based).  For the identity order this is simply
    the network's own session numbering.
    """

    session_order: tuple[int, ...]
    cuts: CutSetSequence
    perms: PermutationSequence
    paths: PathSetSequence

    def to_json_dict(self) -> dict:
        return {
            "session_order": list(self.session_order),
            "cuts": [sorted(c) for c in self.cuts],
            "perms": [list(p) for p in self.perms],
            "paths": [[list(p) for p in ps] for ps in self.paths],
        }


def _int_list(value, field: str) -> tuple[int, ...]:
    return tuple(json_int(x, field) for x in json_list(value, field))


def witness_from_json(data) -> Witness:
    cuts = tuple(frozenset(_int_list(c, "cuts")) for c in json_list(json_key(data, "cuts"), "cuts"))
    if "session_order" in data:
        order = _int_list(data["session_order"], "session_order")
    else:
        order = tuple(range(1, len(cuts) + 1))
    return Witness(
        session_order=order,
        cuts=cuts,
        perms=tuple(_int_list(p, "perms") for p in json_list(json_key(data, "perms"), "perms")),
        paths=tuple(
            tuple(_int_list(p, "paths") for p in json_list(ps, "paths"))
            for ps in json_list(json_key(data, "paths"), "paths")
        ),
    )


def _disjoint_paths(net: Network, paths: Sequence[Path], s: str, d: str) -> bool:
    """Whether paths are valid s -> d paths that share no edge."""
    used: set[int] = set()
    for path in paths:
        if not validate_path(net, path, s, d) or not used.isdisjoint(path):
            return False
        used.update(path)
    return True


def _cut_reach(net: Network, cuts: CutSetSequence) -> dict[str, int]:
    """The reach_masks pass whose bit i-1 says whether a node reaches d_i
    around C_i; read by :func:`_validate_cuts` and :func:`_cumulative`."""
    return reach_masks(net, [(d, cut) for (_, d), cut in zip(net.sessions, cuts)])


def _validate_cuts(net: Network, cuts: CutSetSequence, paths: Optional[PathSetSequence],
                   reach: dict[str, int]) -> frozenset[int]:
    """Enforce the cut-set sequence invariants on the pass reach of
    :func:`_cut_reach`; raises ValueError on failure.

    Each cut-set must be a minimum s_i -> d_i cut-set of its session's
    routing domain.  A cut-set of min-cut size v that disconnects s_i from d_i
    is one: a max flow has v edge-disjoint s_i -> d_i paths, each crosses
    the cut-set, and it has only v edges, so every cut edge lies on one of
    them and hence in the domain.  Only a cut-set failing that test pays for
    the domain, to name the first invariant it breaks: no path, leaving the
    domain, size, then disconnection.

    Given one path set per cut-set, a cut-set C that disconnects s_i from
    d_i bounds the min-cut by |C|, and |C| valid edge-disjoint s_i -> d_i
    paths in paths[i-1] bound it from below (Menger).  So such a C passes
    with no max flow.  Returns the sessions so passed, whose paths are all
    valid.
    """
    if len(cuts) != net.num_sessions:
        raise ValueError("one cut-set per session required")
    if paths is not None and len(paths) != len(cuts):
        paths = None
    certified = set()
    for i, cut in enumerate(cuts, start=1):
        s, d = net.sessions[i - 1]
        disconnects = not reach[s] >> (i - 1) & 1
        if (disconnects and paths is not None and len(paths[i - 1]) >= len(cut)
                and _disjoint_paths(net, paths[i - 1], s, d)):
            certified.add(i)
            continue
        value = min_cut(net, s, d)
        if len(cut) == value and disconnects:
            continue
        if value == 0:
            raise ValueError(f"session {i} has no path; its cut-set must be empty")
        if not cut <= routing_domain(net, i):
            raise ValueError(f"cut-set of session {i} leaves its routing domain")
        if len(cut) != value:
            raise ValueError(
                f"cut-set of session {i} has size {len(cut)}, min-cut is {value}"
            )
        raise ValueError(f"cut-set of session {i} does not disconnect {s!r}->{d!r}")
    return frozenset(certified)


def cumulativity_breach(net: Network, i: int, cut: frozenset[int], j: int) -> Optional[Path]:
    """An s_j -> d_i path that avoids C_i = cut, or None when C_i blocks them all."""
    return find_path(net, net.source(j), net.sink(i), removed=cut)


def _cumulative(net: Network, cuts: CutSetSequence, reach: dict[str, int]) -> CheckResult:
    """Every path from a later source s_j to an earlier sink d_i meets C_i.

    reach is a pass whose bit i-1 is d_i around C_i for every i < K, as the
    first K-1 bits of :func:`_cut_reach`'s are, so it finds every later
    source that reaches d_i around C_i.  The violation, if any, is
    (j, i, path) for the least such i, then the least j, with path the
    breadth-first s_j -> d_i path of :func:`cumulativity_breach`.
    """
    K = net.num_sessions
    for i in range(1, K):
        for j in range(i + 1, K + 1):
            if reach[net.source(j)] >> (i - 1) & 1:
                return CheckResult(False, (j, i, cumulativity_breach(net, i, cuts[i - 1], j)))
    return CheckResult(True)


def _prefix(perm: tuple[int, ...], eid: int) -> frozenset[int]:
    return frozenset(perm[: perm.index(eid)])


def is_distributive(
    net: Network,
    cuts: CutSetSequence,
    perms: PermutationSequence,
    strict: bool = False,
) -> CheckResult:
    """Check the alpha-bounded ordering conditions of the permutation sequence.

    For each edge e in several cut-sets C_{n_1} < ... < C_{n_k} and each
    consecutive pair (n_j, n_{j+1}):

      * edges before e in T_{n_{j+1}} but not in T_{n_j} need alpha <= n_k
        (strict=True tightens the bound to n_{j+1} - 1, the symmetric reading);
      * edges before e in T_{n_j} but not in T_{n_{j+1}} need alpha <= n_{j+1} - 1.

    Violation is (e, pair index j, offending edge, condition id).
    """
    if len(perms) != len(cuts):
        raise PermutationMismatch("one permutation per cut-set required")
    for i, (cut, perm) in enumerate(zip(cuts, perms), start=1):
        if frozenset(perm) != cut or len(perm) != len(cut):
            raise PermutationMismatch(f"permutation {i} does not order its cut-set")

    shared: dict[int, list[int]] = {}
    for i, cut in enumerate(cuts, start=1):
        for eid in cut:
            shared.setdefault(eid, []).append(i)
    for eid, occ in sorted(shared.items()):
        k = len(occ)
        if k == 1:
            continue
        n_k = occ[-1]
        for j in range(k - 1):
            a, b = occ[j], occ[j + 1]
            before_a = _prefix(perms[a - 1], eid)
            before_b = _prefix(perms[b - 1], eid)
            bound20 = (b - 1) if strict else n_k
            for other in sorted(before_b - before_a):
                if alpha(net, other) > bound20:
                    return CheckResult(False, (eid, j + 1, other, "eq20"))
            for other in sorted(before_a - before_b):
                if alpha(net, other) > b - 1:
                    return CheckResult(False, (eid, j + 1, other, "eq21"))
    return CheckResult(True)


def find_permutation_sequence(
    net: Network, cuts: CutSetSequence, strict: bool = False
) -> Optional[PermutationSequence]:
    """First permutation sequence (lexicographic) passing the ordering check."""
    levels = [partial(permutations, sorted(cut)) for cut in cuts]
    for perms in _lazy_product(levels):
        if is_distributive(net, cuts, perms, strict=strict):
            return perms
    return None


def _lazy_product(
    levels: Sequence[Callable[[], Iterable]],
    keep: Callable[[list, object], bool] = lambda prefix, item: True,
) -> Iterator[tuple]:
    """The tuples of product(*(level() for level in levels)) that `keep`
    accepts at every position, in product's order but lazily: a level's
    iterator restarts per prefix instead of being stored, so the first tuple
    comes without the whole product's work.  keep(prefix, item) decides
    whether `item` may follow the placed `prefix`; a rejected item drops
    every tuple that would start with prefix + item.  No level yields None."""
    if not levels:
        yield ()
        return
    prefix: list = []
    iters = [iter(levels[0]())]
    while iters:
        item = next(iters[-1], None)
        if item is None:
            iters.pop()
            if prefix:
                prefix.pop()
        elif not keep(prefix, item):
            continue
        elif len(iters) == len(levels):
            yield (*prefix, item)
        else:
            prefix.append(item)
            iters.append(iter(levels[len(iters)]()))


def _crossing(path: Path, cut: frozenset[int]) -> list[int]:
    return [eid for eid in path if eid in cut]


# The shift-consistency rule.  label(e) gives an edge's (family, time): on a
# plain network every edge is its own family at time 0, on a time grid the
# time-shifted copies of one edge form a family.  A path crossing cut edge x
# claims each family f it uses with (family of x, time of x - time of its use
# of f); paths are consistent iff they make the same claim on every family
# they share, so a path using one family at two times disagrees with itself.
Label = Callable[[int], tuple[Hashable, int]]


def plain_label(eid: int) -> tuple[int, int]:
    return eid, 0


def family_violation(
    paths: Sequence[Path], crossing: Sequence[int], label: Label
) -> Optional[tuple[Path, Path, int]]:
    """The first (earlier path, path, edge) whose claims on the edge's family
    differ, where paths[k] crosses cut edge crossing[k]; None if consistent."""
    owner: dict[Hashable, tuple[Path, tuple]] = {}
    for path, x in zip(paths, crossing):
        fx, tx = label(x)
        for eid in path:
            f, t = label(eid)
            claim = (fx, tx - t)
            prev = owner.setdefault(f, (path, claim))
            if prev[1] != claim:
                return prev[0], path, eid
    return None


def is_extendable(
    net: Network, cuts: CutSetSequence, paths: PathSetSequence
) -> CheckResult:
    """All paths sharing an edge must cross one common cut edge.

    The printed condition quantifies over session pairs i<j; the proof's
    representative argument needs it for same-session pairs too, so every
    pair is checked.  The bijection invariant (each path crosses its own
    cut-set exactly once, bijectively) is enforced first.
    """
    if len(paths) != len(cuts):
        raise ValueError("one path set per session required")
    for i, (cut, pset) in enumerate(zip(cuts, paths), start=1):
        if len(pset) != len(cut):
            raise BijectionViolated(i, None, set(), f"session {i} has {len(pset)} paths"
                                    f" for a cut-set of {len(cut)} edges")
        seen_cut_edges = set()
        for path in pset:
            crossed = _crossing(path, cut)
            if len(crossed) != 1 or crossed[0] in seen_cut_edges:
                raise BijectionViolated(i, path, set(crossed))
            seen_cut_edges.add(crossed[0])
    crossing = [_crossing(path, cut)[0] for cut, pset in zip(cuts, paths) for path in pset]
    violation = family_violation([p for pset in paths for p in pset], crossing, plain_label)
    return CheckResult(violation is None, violation)


def representatives(
    net: Network, cuts: CutSetSequence, paths: PathSetSequence
) -> dict[int, int]:
    """Map edge -> the unique cut edge crossed by every path through it."""
    result = is_extendable(net, cuts, paths)
    if not result:
        raise NotExtendable(f"shared edge without common cut edge: {result.violation}")
    rep: dict[int, int] = {}
    for cut, pset in zip(cuts, paths):
        for path in pset:
            cut_edge = _crossing(path, cut)[0]
            for eid in path:
                rep[eid] = cut_edge
    return rep


def witness_checks(net: Network, wit: Witness, strict: bool = False) -> Iterator[tuple]:
    """One (tag, violation or None) pair per re-check of a witness whose
    session order is a permutation, each run as its pair is asked for:
    ``cuts`` and ``cumulative`` (on one shared reach_masks pass),
    ``distributive`` (or ``perms``), ``extendable`` (or ``paths``, which ends
    the walk), then ``("paths", path)`` per invalid path of a session whose
    cut-set its paths did not certify."""
    ordered = net.reindex_sessions(wit.session_order)
    reach = _cut_reach(ordered, wit.cuts)
    try:
        certified, violation = _validate_cuts(ordered, wit.cuts, wit.paths, reach), None
    except ValueError as exc:
        certified, violation = frozenset(), str(exc)
    yield "cuts", violation
    yield "cumulative", _cumulative(ordered, wit.cuts, reach).violation
    try:
        dis = is_distributive(ordered, wit.cuts, wit.perms, strict=strict)
    except PermutationMismatch as exc:
        yield "perms", str(exc)
    else:
        yield "distributive", dis.violation
    try:
        ext = is_extendable(ordered, wit.cuts, wit.paths)
    except (BijectionViolated, ValueError) as exc:
        yield "paths", str(exc)
        return
    yield "extendable", ext.violation
    for pos, ((s, d), pset) in enumerate(zip(ordered.sessions, wit.paths), start=1):
        if pos not in certified:
            for path in pset:
                if not validate_path(ordered, path, s, d):
                    yield "paths", path


def verify_witness(net: Network, wit: Witness, strict: bool = False) -> CheckResult:
    """Round-trip check: re-verify all three properties (and the invariants),
    naming the first failed part by its :func:`witness_checks` tag."""
    if sorted(wit.session_order) != list(range(1, net.num_sessions + 1)):
        return CheckResult(False, ("session_order", wit.session_order))
    failed = next(((tag, v) for tag, v in witness_checks(net, wit, strict) if v is not None), None)
    return CheckResult(failed is None, failed)


# Caps on each session's cut-set and path enumerations; hitting one makes a
# "no" verdict "unknown".
PATH_LIMIT = 10**5
CUTSET_LIMIT = 10**5


class SearchBudget:
    def __init__(self, max_candidates: int = 10**6, max_seconds: Optional[float] = None,
                 reindex_sessions: bool = True, strict_def5: bool = False):
        self.max_candidates = max_candidates
        self.max_seconds = max_seconds
        self.reindex_sessions = reindex_sessions
        self.strict_def5 = strict_def5


class SearchStats:
    def __init__(self, orders_tried: int = 0, candidates: int = 0, permutation_checks: int = 0,
                 path_assignments: int = 0, truncated: bool = False, exhausted: bool = False):
        self.orders_tried = orders_tried
        self.candidates = candidates
        self.permutation_checks = permutation_checks
        self.path_assignments = path_assignments
        self.truncated = truncated
        self.exhausted = exhausted

    def to_json_dict(self) -> dict:
        return dict(vars(self))


class Verdict:
    def __init__(self, status: str, witness: Optional[Witness], stats: SearchStats,
                 representative_map: Optional[dict[int, int]] = None):
        self.status = status  # "yes" | "no" | "unknown"
        self.witness = witness
        self.stats = stats
        self.representative_map = {} if representative_map is None else representative_map


class _BudgetExceeded(Exception):
    pass


def forward_check(
    domains: list[int], conflicts: Callable[[int, int], list[int]],
    on_try: Callable[[], None] = lambda: None,
) -> Optional[list[int]]:
    """First assignment of one candidate per slot with no pairwise conflict.

    domains[k] is a bitmask over slot k's candidates; conflicts(k, c) gives,
    for each later slot, the mask of its candidates that conflict with
    candidate c of slot k.  Slots are filled in order, candidates in bit
    order, so the answer (candidate indices) is the one chronological
    backtracking finds; a placement strikes its conflicts from the later
    domains and backtracks once one empties (Haralick & Elliott 1980).
    on_try runs once per candidate tried."""
    if not all(domains):
        return None
    # stack[k]: (the candidate chosen at slot k-1, [slot k's untried
    # candidates, then the later slots' domains given the choices so far])
    stack = [(-1, list(domains))]
    keep: dict[tuple[int, int], list[int]] = {}  # ~conflicts per (slot, candidate)
    room = 2**28 // (1 + sum(d.bit_length() + 64 for d in domains))  # ~2^28 bits kept
    while len(stack) <= len(domains):
        live = stack[-1][1]
        if not live[0]:
            stack.pop()
            if not stack:
                return None
            continue
        low = live[0] & -live[0]
        live[0] ^= low
        key = (len(stack) - 1, low.bit_length() - 1)
        on_try()
        masks = keep.get(key)
        if masks is None:
            masks = [~m for m in conflicts(*key)]
            if len(keep) < room:
                keep[key] = masks
        later = [d & m for d, m in zip(live[1:], masks)]
        if all(later):
            stack.append((key[1], later))
    return [c for c, _ in stack[1:]]


class FamilySlot:
    """One cut edge's candidate paths, tabled for :func:`find_family`: the
    cut edge's (family, time), the paths, the labelling, and bitmasks of the
    paths using each family and each (family, time).  A path using one
    family at two times disagrees with itself, so it is left out of `live`."""

    def __init__(self, cut_edge: int, paths, label: Label):
        self.cut, self.paths, self.label = label(cut_edge), tuple(paths), label
        by_edge: dict[int, int] = {}
        for c, path in enumerate(self.paths):
            for eid in path:
                by_edge[eid] = by_edge.get(eid, 0) | 1 << c
        self.by_family, self.by_time = by_family, by_time = {}, {}
        twice = 0
        for eid, mask in by_edge.items():
            lab = label(eid)
            by_time[lab] = mask
            seen = by_family.get(lab[0], 0)
            twice |= seen & mask
            by_family[lab[0]] = seen | mask
        self.live = (1 << len(self.paths)) - 1 & ~twice


def family_slots(
    paths: Iterable[Path], cut: frozenset[int], label: Label,
    on_path: Callable[[], None] = lambda: None,
) -> list[FamilySlot]:
    """Per cut edge, in ascending id order, the slot of the paths that cross
    `cut` there and nowhere else.  on_path runs once per path."""
    per_edge: dict[int, list[Path]] = {eid: [] for eid in sorted(cut)}
    for path in paths:
        on_path()
        crossed = _crossing(path, cut)
        if len(crossed) == 1:
            per_edge[crossed[0]].append(path)
    return [FamilySlot(eid, ps, label) for eid, ps in per_edge.items()]


def find_family(
    slots: Sequence[FamilySlot], on_try: Callable[[], None] = lambda: None
) -> Optional[list[Path]]:
    """First consistent choice of one path per slot, by :func:`forward_check`.

    Each slot's path claims its own cut edge's family f with (f, 0), so a
    path that uses f while crossing a cut edge of another family is struck
    up front.  Two paths conflict on a shared family unless their cut edges
    share a family and their uses of it differ in time as the cut edges do.
    """
    cut_families = {slot.cut[0] for slot in slots}
    domains = []
    for slot in slots:
        struck = 0
        for f in cut_families:
            if f != slot.cut[0]:
                struck |= slot.by_family.get(f, 0)
        domains.append(slot.live & ~struck)

    def conflicts(k: int, c: int) -> list[int]:
        fam_x, t_x = slots[k].cut
        uses = list(map(slots[k].label, slots[k].paths[c]))
        fams = [f for f, _ in uses]
        out = []
        for slot in slots[k + 1:]:
            fam_y, t_y = slot.cut
            by_family = slot.by_family
            mask = 0
            if fam_y != fam_x:
                for f in fams:
                    mask |= by_family.get(f, 0)
            else:
                by_time, shift = slot.by_time, t_y - t_x
                for f, t in uses:
                    clash = by_family.get(f, 0)
                    if clash:
                        mask |= clash & ~by_time.get((f, t + shift), 0)
            out.append(mask)
        return out

    chosen = forward_check(domains, conflicts, on_try)
    return None if chosen is None else [slot.paths[c] for slot, c in zip(slots, chosen)]


class _Searcher:
    def __init__(self, net: Network, budget: SearchBudget):
        self.net = net
        self.budget = budget
        self.stats = SearchStats()
        self.deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )
        # Per original session: min-cut sets and session paths (see _enumerate).
        self.cutsets: list[list[frozenset[int]]] = []
        self.paths: list[list[Path]] = []
        self._slots: dict[tuple[int, frozenset[int]], list[FamilySlot]] = {}
        # [i][j-1]: bit k set iff s_j reaches d_i around cutsets[i-1][k].
        self._reaching: dict[int, list[int]] = {}
        # (session, cut) slot sets known to hold no path family, whatever
        # the session order: find_family's conflicts are symmetric.
        self._no_family: set[frozenset[tuple[int, frozenset[int]]]] = set()
        # Per session bitmask: the max flow from those sessions' sources to
        # their sinks, computed on first need (see _refuted).
        self._flows: dict[int, float] = {}

    def _tick(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _BudgetExceeded

    def _enumerate(self) -> None:
        for s, d in self.net.sessions:
            sets, trunc = enumerate_min_cutsets(self.net, s, d, CUTSET_LIMIT, self._tick)
            self.cutsets.append(sets)
            paths, trunc_paths = enumerate_paths(self.net, s, d, PATH_LIMIT, self._tick)
            self.paths.append(paths)
            if trunc or trunc_paths:
                self.stats.truncated = True

    def _cut_slots(self, sess: int, cut: frozenset[int]) -> list[FamilySlot]:
        """The session's :func:`family_slots` for `cut`, built on first use."""
        slots = self._slots.get((sess, cut))
        if slots is None:
            slots = family_slots(self.paths[sess - 1], cut, plain_label, self._tick)
            self._slots[sess, cut] = slots
        return slots

    def _try(self) -> None:
        self.stats.path_assignments += 1
        self._tick()

    def _pool(self, sess: int, later: Sequence[int]) -> list[frozenset[int]]:
        """The session's cut-sets around which no source of a `later` session
        reaches d_sess.  The first call with a later session answers all the
        session's cut-sets in one :func:`~infodist.graph.reach_masks` pass."""
        cuts = self.cutsets[sess - 1]
        if not later:
            return cuts
        reaching = self._reaching.get(sess)
        if reaching is None:
            masks = reach_masks(self.net, [(self.net.sink(sess), cut) for cut in cuts])
            reaching = self._reaching[sess] = [masks[s] for s, _ in self.net.sessions]
        bad = 0
        for j in later:
            bad |= reaching[j - 1]
        bits = format(bad, f"0{len(cuts)}b")[::-1]  # bits[k]: bit k of bad
        return [cut for cut, bit in zip(cuts, bits) if bit == "0"]

    def _find_paths(self, order, cuts) -> Optional[PathSetSequence]:
        """One path per cut edge, paths sharing an edge crossing the same cut
        edge (exhaustive, see :func:`find_family`)."""
        key = frozenset(zip(order, cuts))
        if key in self._no_family:
            return None
        slots, owners = [], []
        for pos, sess in enumerate(order):
            own = self._cut_slots(sess, cuts[pos])
            slots += own
            owners += [pos] * len(own)
        chosen = find_family(slots, self._try)
        if chosen is None:
            self._no_family.add(key)
            return None
        result: list[list[Path]] = [[] for _ in order]
        for pos, path in zip(owners, chosen):
            result[pos].append(path)
        return tuple(tuple(ps) for ps in result)

    def _flow(self, sessions: int) -> float:
        flow = self._flows.get(sessions)
        if flow is None:
            members = [pair for i, pair in enumerate(self.net.sessions) if sessions >> i & 1]
            flow = _max_flow(self.net, [s for s, _ in members], {d for _, d in members})[0]
            self._flows[sessions] = flow
        return flow

    def _refuted(self, order, placed: Sequence[frozenset[int]], cut) -> bool:
        """Whether `cut`, placed after `placed`, fails the subset bound on a
        set of two or three placed positions that holds it, or on the whole
        prefix.  Checking every set would cost 2^K flows per placement."""
        pos = len(placed)
        subsets: list[Sequence[int]] = [
            *combinations(range(pos), 1), *combinations(range(pos), 2)
        ]
        if pos > 2:
            subsets.append(range(pos))
        for subset in subsets:
            self._tick()
            sessions, union = 1 << order[pos] - 1, cut
            for q in subset:
                sessions |= 1 << order[q] - 1
                union = union | placed[q]
            if len(union) > self._flow(sessions):
                return True
        return False

    def _tuples(self, order, pools) -> Iterator[CutSetSequence]:
        """The tuples of product(*pools), in its order, that pass the subset
        bound.  A family has one path per cut edge, and paths through
        different cut edges share no edge, so every set S of the tuple's
        sessions needs a max flow from S's sources to S's sinks of at least
        the number of distinct cut edges in S (Menger).  The tuple is built
        one position at a time and each placement is checked by
        :meth:`_refuted`; one failure drops every tuple with that prefix.  A
        single session never fails: its cut is a min cut.  For K <= 4 every
        set is checked."""

        def keep(placed, cut) -> bool:
            self._tick()
            return not self._refuted(order, placed, cut)

        return _lazy_product([partial(iter, pool) for pool in pools], keep)

    def run(self) -> Verdict:
        K = self.net.num_sessions
        orders = (
            permutations(range(1, K + 1))
            if self.budget.reindex_sessions
            else [tuple(range(1, K + 1))]
        )
        try:
            self._enumerate()
            for order in orders:
                self._tick()  # also for orders whose pools come up empty
                self.stats.orders_tried += 1
                pools = [self._pool(sess, order[pos + 1:]) for pos, sess in enumerate(order)]
                if any(not pool for pool in pools):
                    continue
                ordered_net = None  # built once a tuple reaches the ordering check
                for cuts in self._tuples(order, pools):
                    self.stats.candidates += 1
                    if self.stats.candidates > self.budget.max_candidates:
                        raise _BudgetExceeded
                    if ordered_net is None:
                        ordered_net = self.net.reindex_sessions(order)
                    self.stats.permutation_checks += 1
                    perms = find_permutation_sequence(
                        ordered_net, cuts, strict=self.budget.strict_def5
                    )
                    if perms is None:
                        continue
                    paths = self._find_paths(order, cuts)
                    if paths is None:
                        continue
                    wit = Witness(order, cuts, perms, paths)
                    check = verify_witness(
                        self.net, wit, strict=self.budget.strict_def5
                    )
                    assert check.ok, f"witness failed re-verification: {check.violation}"
                    rep = representatives(ordered_net, cuts, paths)
                    return Verdict("yes", wit, self.stats, rep)
        except _BudgetExceeded:
            return Verdict("unknown", None, self.stats)
        if self.stats.truncated:
            return Verdict("unknown", None, self.stats)
        self.stats.exhausted = True
        return Verdict("no", None, self.stats)


def decide_information_distributive(
    net: Network, budget: Optional[SearchBudget] = None
) -> Verdict:
    """Search cut-set sequences x permutations x path sets for a witness.

    "yes" returns a re-verified witness; "no" is only reported when every
    candidate (under all session orders, if enabled) was examined; budget or
    enumeration-cap exhaustion yields "unknown".
    """
    return _Searcher(net, budget or SearchBudget()).run()
