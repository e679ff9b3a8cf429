"""Answer checks that share no code with the library.

Everything works on the JSON the library received or emitted: witnesses are
re-verified from the definitions (cut minimality by an own max flow,
cumulativity, the alpha-bounded ordering, extendability), routing schemes are
substituted into the rate and capacity constraints with Fractions, and code
decodability is recomputed with a pure-Python GF(q) rank on Python integers.
Each check returns None when the answer holds, else a one-line reason.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction


class Graph:
    """Edge list plus adjacency of a network JSON dict (edge ids = positions)."""

    def __init__(self, raw: dict):
        self.edges = [(str(e["tail"]), str(e["head"])) for e in raw["edges"]]
        self.sessions = [(str(s["source"]), str(s["sink"])) for s in raw["sessions"]]
        self.out: dict[str, list[int]] = {}
        self.inc: dict[str, list[int]] = {}
        for eid, (t, h) in enumerate(self.edges):
            self.out.setdefault(t, []).append(eid)
            self.inc.setdefault(h, []).append(eid)

    def reach(self, start: str, removed=frozenset(), forward: bool = True) -> set[str]:
        adj = self.out if forward else self.inc
        seen, todo = {start}, [start]
        while todo:
            v = todo.pop()
            for eid in adj.get(v, ()):
                if eid in removed:
                    continue
                w = self.edges[eid][1] if forward else self.edges[eid][0]
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def max_flow(self, s: str, d: str) -> int:
        """Unit-capacity max flow by shortest augmenting paths."""
        flow: set[int] = set()
        value = 0
        while True:
            pred = {s: None}
            queue = deque([s])
            while queue and d not in pred:
                v = queue.popleft()
                for eid in self.out.get(v, ()):
                    w = self.edges[eid][1]
                    if eid not in flow and w not in pred:
                        pred[w] = (eid, True)
                        queue.append(w)
                for eid in self.inc.get(v, ()):
                    w = self.edges[eid][0]
                    if eid in flow and w not in pred:
                        pred[w] = (eid, False)
                        queue.append(w)
            if d not in pred:
                return value
            value += 1
            v = d
            while pred[v] is not None:
                eid, fwd = pred[v]
                if fwd:
                    flow.add(eid)
                    v = self.edges[eid][0]
                else:
                    flow.remove(eid)
                    v = self.edges[eid][1]

    def is_path(self, path, s: str, d: str) -> bool:
        if len(set(path)) != len(path):
            return False
        at = s
        for eid in path:
            if not 0 <= eid < len(self.edges) or self.edges[eid][0] != at:
                return False
            at = self.edges[eid][1]
        return at == d


def check_witness(raw_net: dict, wit: dict) -> str | None:
    """Re-verify a witness JSON ({session_order, cuts, perms, paths}) from scratch."""
    g = Graph(raw_net)
    K = len(g.sessions)
    order = list(wit["session_order"])
    if sorted(order) != list(range(1, K + 1)):
        return f"session_order {order} is not a permutation"
    sess = [g.sessions[i - 1] for i in order]
    cuts = [frozenset(c) for c in wit["cuts"]]
    perms = [tuple(p) for p in wit["perms"]]
    paths = [[tuple(p) for p in ps] for ps in wit["paths"]]
    if not len(cuts) == len(perms) == len(paths) == K:
        return "one cut, permutation and path set per session required"
    for pos, ((s, d), cut) in enumerate(zip(sess, cuts), start=1):
        fwd, bwd = g.reach(s), g.reach(d, forward=False)
        domain = {e for e, (t, h) in enumerate(g.edges) if t in fwd and h in bwd}
        if not cut <= domain:
            return f"cut {pos} leaves its routing domain"
        if d in g.reach(s, removed=cut):
            return f"cut {pos} does not disconnect {s}->{d}"
        if len(cut) != g.max_flow(s, d):
            return f"cut {pos} is not minimum"
    for i in range(K):
        for j in range(i + 1, K):
            if sess[i][1] in g.reach(sess[j][0], removed=cuts[i]):
                return f"not cumulative: source {j + 1} reaches sink {i + 1}"
    reach = [g.reach(s) for s, _ in sess]

    def alpha(eid: int) -> int:
        tail = g.edges[eid][0]
        return max((p for p, r in enumerate(reach, start=1) if tail in r), default=0)

    for pos, (cut, perm) in enumerate(zip(cuts, perms), start=1):
        if sorted(perm) != sorted(cut):
            return f"permutation {pos} does not order its cut"
    occurs: dict[int, list[int]] = {}
    for pos, cut in enumerate(cuts, start=1):
        for eid in cut:
            occurs.setdefault(eid, []).append(pos)
    for eid, occ in occurs.items():
        for a, b in zip(occ, occ[1:]):
            before_a = set(perms[a - 1][: perms[a - 1].index(eid)])
            before_b = set(perms[b - 1][: perms[b - 1].index(eid)])
            if any(alpha(x) > occ[-1] for x in before_b - before_a):
                return f"ordering bound (20) fails at edge {eid}"
            if any(alpha(x) > b - 1 for x in before_a - before_b):
                return f"ordering bound (21) fails at edge {eid}"
    rep: dict[int, int] = {}
    for pos, ((s, d), cut, pset) in enumerate(zip(sess, cuts, paths), start=1):
        if len(pset) != len(cut):
            return f"path set {pos} is not a bijection onto its cut"
        crossed = set()
        for path in pset:
            if not g.is_path(path, s, d):
                return f"path {list(path)} is not a simple {s}->{d} path"
            hits = [e for e in path if e in cut]
            if len(hits) != 1 or hits[0] in crossed:
                return f"path set {pos} is not a bijection onto its cut"
            crossed.add(hits[0])
            for eid in path:
                if rep.setdefault(eid, hits[0]) != hits[0]:
                    return f"not extendable at edge {eid}"
    return None


def check_scheme(raw_net: dict, flows, rates) -> str | None:
    """Substitute a scheme ({"flows": [{session, path, value}]}) into the LP."""
    g = Graph(raw_net)
    got = [Fraction(0)] * len(g.sessions)
    load: dict[int, Fraction] = {}
    for entry in flows["flows"]:
        i, path, value = int(entry["session"]), tuple(entry["path"]), Fraction(entry["value"])
        s, d = g.sessions[i - 1]
        if value < 0 or not g.is_path(path, s, d):
            return f"flow on a bad path {list(path)} of session {i}"
        got[i - 1] += value
        for eid in path:
            load[eid] = load.get(eid, Fraction(0)) + value
    for i, (r, want) in enumerate(zip(got, rates), start=1):
        if r < Fraction(want):
            return f"session {i} gets {r} < {want}"
    over = [e for e, v in load.items() if v > 1]
    return f"edge {over[0]} carries more than 1" if over else None


def gf_rank(rows: list[list[int]], q: int) -> int:
    """Rank over GF(q), q prime, by elimination on Python integers."""
    rows = [[v % q for v in r] for r in rows if any(v % q for v in r)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], q - 2, q)
        prow = [v * inv % q for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def global_rows(raw_net: dict, rates, locals_json, q: int) -> list[list[int]]:
    """Propagate local encoders (code JSON "locals") to global rows mod q."""
    g = Graph(raw_net)
    offsets = [sum(rates[:i]) for i in range(len(rates))]
    dim = sum(rates)
    table = {int(ent["edge"]): ent["coeffs"] for ent in locals_json}
    rows: dict[int, list[int]] = {}
    pending = list(range(len(g.edges)))
    while pending:
        rest = []
        for eid in pending:
            terms = table[eid]
            refs = [int(t["from"]) for t in terms if not str(t["from"]).startswith("session")]
            if any(r not in rows for r in refs):
                rest.append(eid)
                continue
            row = [0] * dim
            for t in terms:
                src, value = t["from"], int(t["value"])
                if isinstance(src, str) and src.startswith("session"):
                    body = src[len("session"):].strip()
                    i, _, sym = body.partition(":")
                    col = offsets[int(i) - 1] + int(sym or 0)
                    row[col] = (row[col] + value) % q
                else:
                    row = [(a + value * b) % q for a, b in zip(row, rows[int(src)])]
            rows[eid] = row
        if len(rest) == len(pending):
            return []
        pending = rest
    return [rows[e] for e in range(len(g.edges))]


def decodable(raw_net: dict, rates, grows: list[list[int]], q: int) -> list[bool]:
    """Session i decodes iff its selector rows lie in the span of In(d_i)."""
    g = Graph(raw_net)
    dim = sum(rates)
    out = []
    for i, (_, d) in enumerate(g.sessions):
        incoming = [grows[e] for e in g.inc.get(d, ())]
        off = sum(rates[:i])
        sel = [[int(c == off + k) for c in range(dim)] for k in range(rates[i])]
        out.append(gf_rank(incoming, q) == gf_rank(incoming + sel, q))
    return out
