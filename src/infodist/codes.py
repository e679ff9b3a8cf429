"""Scalar linear network codes over a prime field.

Each edge carries one field symbol: a fixed linear function of the stacked
source symbols, derived from per-edge local encoders by propagation along a
topological order.  Entropies and conditional mutual informations of any mix
of edge and session variables are matrix ranks over GF(q), which makes every
information inequality here checkable exactly.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import gfmatrix
from .errors import (FieldTooSmall, MissingEncoder, NetworkFormatError, WitnessInvalid,
                     json_int, json_key, json_list, json_object)
from .graph import Network, Path

if TYPE_CHECKING:
    from .rateregion import RoutingScheme
    from .witnesses import Witness

# Variable references: ("edge", edge id 0..|E|-1), ("session", index 1..K), or
# ("rows", tuple of rows of dim ints), a function of variables.  Ids are ints, not bools.
VarRef = tuple[str, object]


def edge_var(eid: int) -> VarRef:
    return ("edge", eid)


def session_var(i: int) -> VarRef:
    return ("session", i)


# Local encoder terms:
#   ("session", i, symbol index, coefficient)   for edges leaving a source
#   ("edge", in-edge id, coefficient)           for interior edges
LocalTerm = tuple
LocalTable = dict[int, list[LocalTerm]]
Row = tuple[int, ...]


@dataclass
class LinearCode:
    net: Network
    q: int
    rates: tuple[int, ...]
    rows: tuple[Row, ...]  # row e is G_e, one entry in 0..q-1 per source symbol
    # The memo: bit-set of rows of the stack -> echelon basis of those rows.
    # Its length, the rank, ignores row order and repeats, and stacked rows
    # never change, so entries never go stale.
    _bases: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.dim = dim = sum(self.rates)
        # The rows rank queries read, reduced mod q: the dim source-symbol
        # unit rows, the edge rows, then the rows of each ("rows", ...) ref
        # in the order first asked.  Bit k of a query's key stands for row k.
        self._stack = _unit_rows(dim) + list(self.rows)
        # Per session index 1..K (0 unused), the bits of its symbols' unit rows.
        self._session_bits = [0] + [((1 << r) - 1) << sum(self.rates[:i])
                                    for i, r in enumerate(self.rates)]
        self._interned: dict = {}  # ("rows", ...) ref -> the bits of its rows


def _unit_rows(dim: int) -> list[Row]:
    return [(0,) * p + (1,) + (0,) * (dim - p - 1) for p in range(dim)]


def _checked_sources(net: Network, rates: Sequence[int], q: int) -> tuple[tuple, dict]:
    """The rates, checked with the field, and the sessions sourced at each node."""
    if not gfmatrix.is_prime(q):
        raise ValueError(f"field size {q} is not prime")
    rates = tuple(int(r) for r in rates)
    if len(rates) != net.num_sessions or any(r < 0 for r in rates):
        raise ValueError("one nonnegative rate per session required")
    sourced: dict[str, list[int]] = {}
    for i, (s, _) in enumerate(net.sessions, start=1):
        sourced.setdefault(s, []).append(i)
    return rates, sourced


def _row_index(rates: tuple, heads: list) -> list[list[int]]:
    """Per edge, the row of :func:`_compose`'s stack each local term head
    reads: ("session", i, symbol) the unit row of that symbol, ("edge", ref)
    the row of edge ref."""
    offsets = [sum(rates[:i]) for i in range(len(rates) + 1)]
    dim = offsets[-1]
    return [[offsets[h[1] - 1] + h[2] if h[0] == "session" else dim + h[1] for h in terms]
            for terms in heads]


def _compose(net: Network, q: int, dim: int, index, coeffs) -> tuple[Row, ...]:
    """The global rows, composed along the topological order.

    Row e is the sum over k of coeffs[e][k] times row index[e][k] of the
    stack of the dim source-symbol unit rows and then the edge rows, mod q.
    """
    zero = (0,) * dim
    rows = _unit_rows(dim) + [zero] * len(net.edges)
    for v in net.topo_order:
        for eid in net.out_edges[v]:
            acc = zero
            for k, c in zip(index[eid], coeffs[eid]):
                if c:
                    acc = [(a + c * b) % q for a, b in zip(acc, rows[k])]
            rows[dim + eid] = tuple(acc)
    return tuple(rows[dim:])


def propagate(net: Network, rates: Sequence[int], locals_table: LocalTable, q: int) -> LinearCode:
    """Compose local encoders along the topological order into global rows.

    Edges out of a source may reference only sessions sourced at their tail;
    interior edges only in-edges of their tail.  Every term is checked, in
    topological order, before any row is composed.
    """
    rates, sourced = _checked_sources(net, rates, q)
    stray = [e for e in locals_table if not 0 <= e < len(net.edges)]
    if stray:
        raise ValueError(f"locals given for edge {stray[0]}, which is not in the network")
    heads: list[list[tuple]] = [[] for _ in net.edges]
    coeffs: list[list[int]] = [[] for _ in net.edges]
    for eid in (eid for v in net.topo_order for eid in net.out_edges[v]):
        if eid not in locals_table:
            raise MissingEncoder(net.edge_str(eid))
        tail = net.edges[eid].tail
        tail_sessions = sourced.get(tail, ())
        for term in locals_table[eid]:
            kind = term[0]
            if kind == "session":
                _, i, sym, _ = term
                if i not in tail_sessions:
                    raise ValueError(
                        f"edge {net.edge_str(eid)} does not leave the source of session {i}"
                    )
                if not 0 <= sym < rates[i - 1]:
                    raise ValueError(f"session {i} has no symbol {sym}")
            elif kind == "edge":
                _, ref, _ = term
                if not 0 <= ref < len(net.edges):
                    raise ValueError(f"edge {ref} is not in the network")
                if net.edges[ref].head != tail:
                    raise ValueError(
                        f"edge {net.edge_str(ref)} is not an in-edge of {tail!r}"
                    )
            else:
                raise ValueError(f"unknown local term {term!r}")
            heads[eid].append(term[:-1])
            coeffs[eid].append(term[-1])
    rows = _compose(net, q, sum(rates), _row_index(rates, heads), coeffs)
    return LinearCode(net, q, rates, rows)


def locals_to_json(table: LocalTable) -> list[dict]:
    out = []
    for eid in sorted(table):
        coeffs = []
        for term in table[eid]:
            if term[0] == "session":
                _, i, sym, coeff = term
                src = f"session {i}" if sym == 0 else f"session {i}:{sym}"
                coeffs.append({"from": src, "value": int(coeff)})
            else:
                _, ref, coeff = term
                coeffs.append({"from": int(ref), "value": int(coeff)})
        out.append({"edge": eid, "coeffs": coeffs})
    return out


def locals_from_json(entries) -> LocalTable:
    table: LocalTable = {}
    for entry in json_list(entries, "locals"):
        entry = json_object(entry, "locals")
        eid = json_int(json_key(entry, "edge"), "edge")
        if eid in table:
            raise NetworkFormatError(f"locals list edge {eid} twice", field="locals")
        terms: list[LocalTerm] = []
        for coeff in json_list(entry.get("coeffs", ()), "coeffs"):
            coeff = json_object(coeff, "coeffs")
            src = json_key(coeff, "from")
            value = json_int(json_key(coeff, "value"), "value")
            if isinstance(src, str) and src.startswith("session"):
                parts = src[len("session"):].strip().split(":")
                if len(parts) > 2:
                    raise NetworkFormatError(
                        f"from {src!r} is not 'session i' or 'session i:symbol'", field="from"
                    )
                i, sym = parts if len(parts) == 2 else (parts[0], 0)
                terms.append(("session", json_int(i, "from"), json_int(sym, "from"), value))
            else:
                terms.append(("edge", json_int(src, "from"), value))
        table[eid] = terms
    return table


def code_from_json(net: Network, data) -> LinearCode:
    rates = [json_int(r, "rates") for r in json_list(json_key(data, "rates"), "rates")]
    return propagate(net, rates, locals_from_json(json_key(data, "locals")),
                     json_int(json_key(data, "field"), "field"))


def _bits(code: LinearCode, refs: Iterable[VarRef]) -> int:
    """The bit-set of the stack rows of refs: ("edge", e) is bit dim + e,
    ("session", i) its symbols' bits, ("rows", ...) the bits its rows were
    interned at.  Raises ValueError for a ref that names no variable."""
    key, dim, edges = 0, code.dim, len(code.rows)
    for ref in refs:
        try:
            kind, idx = ref
        except (TypeError, ValueError):
            raise ValueError(f"variable ref {ref!r} is not a (kind, id) pair") from None
        if kind == "edge" and type(idx) is int and 0 <= idx < edges:
            key |= 1 << (dim + idx)
        elif kind == "session" and type(idx) is int and 0 < idx <= len(code.rates):
            key |= code._session_bits[idx]
        elif kind == "rows":
            bits = code._interned.get(ref)
            key |= _intern(code, ref, _reduced(code, ref)) if bits is None else bits
        elif kind in ("edge", "session"):
            raise ValueError(f"variable ref {ref!r} names no {kind} of the code")
        else:
            raise ValueError(f"unknown variable kind {kind!r} in {ref!r}")
    return key


def _reduced(code: LinearCode, ref: VarRef) -> list[Row]:
    """The rows of a ("rows", ...) ref, reduced mod q."""
    rows = ref[1]
    if not (isinstance(rows, tuple) and all(
            isinstance(row, tuple) and len(row) == code.dim and all(isinstance(v, int) for v in row)
            for row in rows)):
        raise ValueError(f"variable ref {ref!r} is not a tuple of rows of {code.dim} ints")
    return [tuple(v % code.q for v in row) for row in rows]


def _intern(code: LinearCode, ref: VarRef, rows: list[Row]) -> int:
    """Append ref's reduced rows to the stack; return their bits."""
    bits = code._interned[ref] = ((1 << len(rows)) - 1) << len(code._stack)
    code._stack += rows
    return bits


def _rows(code: LinearCode, bits: int) -> list[Row]:
    """The stack rows of a bit-set, lowest bit first."""
    stack, rows = code._stack, []
    while bits:
        low = bits & -bits
        rows.append(stack[low.bit_length() - 1])
        bits ^= low
    return rows


def _basis(code: LinearCode, key: int, base: int = 0,
           grown: gfmatrix.Basis = ()) -> gfmatrix.Basis:
    """The echelon basis of the stack rows of key, memoized per code.  On a
    miss, `grown`, the basis of base (a subset of key), is grown by the rows
    of key not in base, so base's rows are not eliminated again."""
    basis = code._bases.get(key)
    if basis is None:
        basis = code._bases[key] = gfmatrix.grow(_rows(code, key & ~base), code.q, grown)
    return basis


def entropy(code: LinearCode, refs: Iterable[VarRef]) -> int:
    """H(refs) in field symbols = rank of the stacked rows."""
    return len(_basis(code, _bits(code, refs)))


def cond_entropy(code: LinearCode, a: Iterable[VarRef], given: Iterable[VarRef] = ()) -> int:
    """H(a | given) = rk(a,c) - rk(c), with the (a, c) basis grown from c's."""
    c = _bits(code, given)
    c_basis = _basis(code, c)
    return len(_basis(code, c | _bits(code, a), c, c_basis)) - len(c_basis)


def cond_mutual_info(
    code: LinearCode,
    a: Iterable[VarRef],
    b: Iterable[VarRef],
    given: Iterable[VarRef] = (),
) -> int:
    """I(a ; b | given) = rk(a,c) + rk(b,c) - rk(a,b,c) - rk(c).

    The (a, c) and (b, c) bases grow c's, and the (a, b, c) basis grows
    (a, c)'s, so c's rows are eliminated once.
    """
    c = _bits(code, given)
    c_basis = _basis(code, c)
    ac, b = c | _bits(code, a), _bits(code, b)
    ac_basis = _basis(code, ac, c, c_basis)
    return (len(ac_basis) + len(_basis(code, c | b, c, c_basis))
            - len(_basis(code, ac | b, ac, ac_basis)) - len(c_basis))


def _decodes(code: LinearCode, i: int) -> bool:
    incoming = [edge_var(e) for e in code.net.in_edges[code.net.sink(i)]]
    return cond_entropy(code, [session_var(i)], incoming) == 0


def check_decodable(code: LinearCode) -> tuple[bool, ...]:
    """Session i decodes iff H(Y_i | In(d_i)) == 0."""
    return tuple(_decodes(code, i) for i in range(1, code.net.num_sessions + 1))


def _share(code: LinearCode, prior: list[VarRef], sess: int, perm: Sequence[int], eid: int) -> int:
    """The information share cut edge eid contributes to session sess:
    I(Y_sess ; U_e | Y_(earlier sessions), U_(cut edges before e in perm))."""
    before = [edge_var(x) for x in perm[: perm.index(eid)]]
    return cond_mutual_info(code, [session_var(sess)], [edge_var(eid)], prior + before)


def extract_routing(code: LinearCode, wit: Witness, strict: bool = False) -> RoutingScheme:
    """The constructive routing scheme of the main theorem.

    Each witness path carries the information share (:func:`_share`) of its
    cut edge, evaluated in the witness's session order.  Flows are keyed by
    original session.
    """
    from .rateregion import RoutingScheme
    from .witnesses import verify_witness

    check = verify_witness(code.net, wit, strict=strict)
    if not check:
        raise WitnessInvalid(f"witness fails {check.violation}")
    flows: list[dict[Path, Fraction]] = [dict() for _ in code.net.sessions]
    prior: list[VarRef] = []
    for pos, sess in enumerate(wit.session_order):
        cut = wit.cuts[pos]
        for path in wit.paths[pos]:
            value = _share(code, prior, sess, wit.perms[pos], next(e for e in path if e in cut))
            if value:
                flows[sess - 1][path] = Fraction(value)
        prior.append(session_var(sess))
    return RoutingScheme(tuple(flows))


@dataclass
class AuditEntry:
    check: str
    lhs: int
    rhs: int
    relation: str  # "<=" or "=="

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs if self.relation == "<=" else self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {**asdict(self), "ok": self.ok}


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "entries": [e.to_json_dict() for e in self.entries]}


def _random_refs(rng: random.Random, pool: list[VarRef], k: int) -> tuple[VarRef, ...]:
    return tuple(rng.sample(pool, min(k, len(pool))))


def _random_function_of(rng: random.Random, code: LinearCode, refs) -> tuple[VarRef, ...]:
    """A ("rows", ...) ref to one random row in the row space of the stacked
    refs (no ref if they stack no rows): one coefficient per row, in ref
    order, repeats included."""
    mat = [row for ref in refs for row in _rows(code, _bits(code, (ref,)))]
    if not mat:
        return ()
    acc = [0] * code.dim
    for row in mat:
        c = rng.randrange(code.q)
        acc = [a + c * v for a, v in zip(acc, row)]
    ref = ("rows", (tuple(a % code.q for a in acc),))
    if ref not in code._interned:  # its rows are reduced already
        _intern(code, ref, list(ref[1]))
    return (ref,)


def audit(
    code: LinearCode,
    wit: Witness,
    seed: int = 0,
    prop_samples: int = 20,
    strict: bool = False,
) -> AuditReport:
    """Exact runtime checks of the witness inequalities and the rank calculus.

    Per session: the cut-set bound on the sink information, the chain-rule
    distribution identity, and the functional dependence of the sink inputs
    on earlier sources plus the cut.  Per cut edge: the unit-capacity
    aggregation bound.  Plus randomized identities/inequalities for
    conditioning on functions and for data-processing under Markov chains.
    """
    from .witnesses import verify_witness

    check = verify_witness(code.net, wit, strict=strict)
    if not check:
        raise WitnessInvalid(f"witness fails {check.violation}")
    net = code.net
    entries: list[AuditEntry] = []
    prior: list[VarRef] = []
    share_terms: dict[int, list[int]] = {}
    for pos, sess in enumerate(wit.session_order):
        cut = sorted(wit.cuts[pos])
        perm = wit.perms[pos]
        y = [session_var(sess)]
        incoming = [edge_var(e) for e in net.in_edges[net.sink(sess)]]
        cut_vars = [edge_var(e) for e in cut]
        lhs18 = cond_mutual_info(code, y, incoming, prior)
        rhs18 = cond_mutual_info(code, y, cut_vars, prior)
        entries.append(AuditEntry(f"eq18/session{sess}", lhs18, rhs18, "<="))
        total = 0
        for eid in perm:
            share = _share(code, prior, sess, perm, eid)
            share_terms.setdefault(eid, []).append(share)
            total += share
        entries.append(AuditEntry(f"eq19/session{sess}", total, rhs18, "=="))
        base = entropy(code, cut_vars + prior)
        joint = base + cond_entropy(code, incoming, cut_vars + prior)
        entries.append(AuditEntry(f"lemma1-function/session{sess}", joint, base, "=="))
        prior.append(session_var(sess))
    for eid in sorted(share_terms):
        entries.append(
            AuditEntry(
                f"eq22/edge{eid}",
                sum(share_terms[eid]),
                entropy(code, [edge_var(eid)]),
                "<=",
            )
        )

    rng = random.Random(seed)
    pool = [edge_var(e) for e in range(len(net.edges))] + [
        session_var(i) for i in range(1, net.num_sessions + 1)
    ]
    for n in range(prop_samples):
        x = _random_refs(rng, pool, rng.randrange(1, 3))
        yv = _random_refs(rng, pool, rng.randrange(1, 3))
        z = _random_refs(rng, pool, rng.randrange(0, 3))
        w = _random_refs(rng, pool, rng.randrange(0, 3))
        f_y = _random_function_of(rng, code, yv)
        f_z = _random_function_of(rng, code, z)
        f_yz = _random_function_of(rng, code, yv + z)
        f_xw = _random_function_of(rng, code, x + w)
        # H(X|Y) == H(X|Y,f(Y))
        lhs = cond_entropy(code, x, yv)
        rhs = cond_entropy(code, x, yv + f_y)
        entries.append(AuditEntry(f"prop1.1/{n}", lhs, rhs, "=="))
        # I(X;Y|Z) == I(X;Y|Z,f(Z))
        lhs = cond_mutual_info(code, x, yv, z)
        rhs = cond_mutual_info(code, x, yv, z + f_z)
        entries.append(AuditEntry(f"prop1.2/{n}", lhs, rhs, "=="))
        # H(X|f(Y)) >= H(X|Y)  (flip into lhs <= rhs form)
        lhs = cond_entropy(code, x, yv)
        rhs = cond_entropy(code, x, f_y)
        entries.append(AuditEntry(f"prop1.3/{n}", lhs, rhs, "<="))
        # I(X;Y|Z,W) >= I(X;f(Y,Z)|Z,W)
        lhs = cond_mutual_info(code, x, yv, z + w)
        rhs = cond_mutual_info(code, x, f_yz, z + w)
        entries.append(AuditEntry(f"prop2.4/{n}", rhs, lhs, "<="))
        # Markov special case: I(X;Y|W) >= I(X;Y|W,f(X,W)) and >= I(f(X,W);Y|W)
        lhs = cond_mutual_info(code, x, yv, w)
        rhs = cond_mutual_info(code, x, yv, w + f_xw)
        entries.append(AuditEntry(f"prop2a/{n}", rhs, lhs, "<="))
        rhs = cond_mutual_info(code, f_xw, yv, w)
        entries.append(AuditEntry(f"prop2b/{n}", rhs, lhs, "<="))
    return AuditReport(entries)


def _draw_plan(net: Network, rates: Sequence[int], q: int) -> tuple[tuple, list]:
    """Check q, then the rates; return them with the head of each local term
    that gets a random coefficient, per edge in id order.  A source edge has
    a term ("session", i, symbol) per symbol of each session sourced at its
    tail; an interior edge a term ("edge", ref) per in-edge of its tail."""
    if q < 2:
        raise FieldTooSmall(f"field size {q} < 2")
    rates, sourced = _checked_sources(net, rates, q)
    heads = []
    for e in net.edges:
        tail_sessions = sourced.get(e.tail, ())
        if tail_sessions:
            heads.append([("session", i, sym)
                          for i in tail_sessions for sym in range(rates[i - 1])])
        else:
            heads.append([("edge", ref) for ref in net.in_edges[e.tail]])
    return rates, heads


def _table(heads: list, coeffs: list) -> LocalTable:
    return {eid: [h + (c,) for h, c in zip(terms, cs)]
            for eid, (terms, cs) in enumerate(zip(heads, coeffs))}


def random_local_table(
    net: Network, rates: Sequence[int], q: int, rng: random.Random
) -> LocalTable:
    """Uniform local coefficients; source edges draw over their session symbols."""
    _, heads = _draw_plan(net, rates, q)
    return _table(heads, [[rng.randrange(q) for _ in terms] for terms in heads])


def random_decodable_code(
    net: Network,
    rates: Sequence[int],
    q: int,
    rng: random.Random,
    attempts: int = 2000,
) -> Optional[tuple[LinearCode, LocalTable]]:
    """Rejection-sample random codes until every session decodes.

    q and the rates are checked once per call.  Each attempt draws the
    coefficients of :func:`random_local_table`, in its order, composes the
    rows straight from them, and is dropped at its first session that does
    not decode.  Every coefficient is drawn before the test, so the rng
    stream does not depend on where it stops.  Only the sample returned
    gets its table.
    """
    rates, heads = _draw_plan(net, rates, q)
    dim, index = sum(rates), _row_index(rates, heads)
    sessions = range(1, net.num_sessions + 1)
    for _ in range(attempts):
        coeffs = [[rng.randrange(q) for _ in terms] for terms in heads]
        code = LinearCode(net, q, rates, _compose(net, q, dim, index, coeffs))
        if all(_decodes(code, i) for i in sessions):
            return code, _table(heads, coeffs)
    return None
