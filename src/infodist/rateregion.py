"""Exact path-flow LP for the routing rate region.

The formulation is path-based, mirroring the two constraint families the
routing model imposes: per-session delivered traffic, and per-edge total
load at most the unit capacity.  All arithmetic is Fraction-exact, and every
LP answer is re-checked outside the solver: a "feasible" verdict by its
witness scheme, an "infeasible" one by the LP dual, and lambda* by both.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import simplex
from .errors import (CertificateInvalid, NetworkFormatError, UnknownPath, json_int, json_key,
                     json_list, json_object)
from .graph import DEFAULT_PATH_LIMIT, CheckResult, Network, Path, require_paths, validate_path

RateVector = tuple[Fraction, ...]


@dataclass
class RoutingScheme:
    """Per-session map from path (edge-id tuple) to nonnegative flow."""

    flows: tuple[dict[Path, Fraction], ...]

    def rate(self, i: int) -> Fraction:
        return sum(self.flows[i - 1].values(), Fraction(0))

    def to_json_dict(self) -> dict:
        entries = []
        for i, per_session in enumerate(self.flows, start=1):
            for path in sorted(per_session):
                value = per_session[path]
                if value:
                    entries.append(
                        {"session": i, "path": list(path), "value": str(value)}
                    )
        return {"flows": entries}


def scheme_from_json(data, num_sessions: int) -> RoutingScheme:
    flows: list[dict[Path, Fraction]] = [dict() for _ in range(num_sessions)]
    for entry in json_list(json_key(data, "flows"), "flows"):
        entry = json_object(entry, "flows")
        i = json_int(json_key(entry, "session"), "session")
        if not 1 <= i <= num_sessions:
            raise ValueError(f"session {i} out of range")
        path = tuple(json_int(e, "path") for e in json_list(json_key(entry, "path"), "path"))
        text = str(json_key(entry, "value"))
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise NetworkFormatError(f"value {text!r} is not a number", field="value") from None
        flows[i - 1][path] = flows[i - 1].get(path, Fraction(0)) + value
    return RoutingScheme(tuple(flows))


def parse_rates(values: Sequence) -> RateVector:
    """The rates as Fractions: an int or Fraction as it is, anything else
    through its string, so that a float 0.1 is 1/10."""
    rates = tuple(Fraction(v) if type(v) in (int, Fraction) else Fraction(str(v)) for v in values)
    if any(r < 0 for r in rates):
        raise ValueError("rates must be nonnegative")
    return rates


# Per network and path limit, the demand-free part of the path LP that
# `_skeleton` derives.  Keyed weakly, so an entry dies with its network.
_SKELETONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _skeleton(net: Network, path_limit: int):
    """(session paths, capacity columns, kept) for `_path_lp`, enumerated
    and presolved once per network object and path limit.

    The session paths are tuples, read-only and shared by every LP on the
    network; columns number them sessions in order.  `capacity` lists, per
    edge `_maximal_edges` keeps, in id order, the columns of the paths
    through it, and `kept` flags per used edge in id order whether it is
    kept.  Those two stay lists: built as tuples, they made the process's
    peak RSS creep up with the number of networks solved (about 0.5 MB
    more after 14,400 `rate-lp` ops).  PathEnumerationTruncated is never
    cached: each call over the limit raises it again.
    """
    memo = _SKELETONS.setdefault(net, {})
    skeleton = memo.get(path_limit)
    if skeleton is None:
        session_paths = tuple(
            tuple(require_paths(net, s, d, limit=path_limit)) for s, d in net.sessions
        )
        edge_cols: dict[int, list[int]] = {}
        col = 0
        for paths in session_paths:
            for path in paths:
                for eid in path:
                    edge_cols.setdefault(eid, []).append(col)
                col += 1
        used = sorted(edge_cols)
        kept = _maximal_edges(used, edge_cols)
        skeleton = memo[path_limit] = (
            session_paths,
            [edge_cols[eid] for eid in used if eid in kept],
            [eid in kept for eid in used],
        )
    return skeleton


def _path_lp(net: Network, demand, scaled: bool, path_limit: int):
    """(session paths, c, b, cols, kept) of the path-flow LP: maximise c.x
    subject to A x <= b (b >= 0), with one column per session path,
    sessions in order, then a lambda column if `scaled`.  cols[j] lists
    column j's nonzero (row, value) pairs in row order, the form
    `simplex.solve` takes: no dense row is built.

    Session rows come first.  Unscaled, sum(f_i) <= demand_i and c is 1 on
    the paths of each session with demand_i > 0, so the demand is routable
    iff the optimum is sum(demand).  Scaled, lambda*demand_i - sum(f_i) <= 0
    (no row when demand_i == 0) and c is 1 on lambda only, so a path column
    has -1 on its session row and the lambda column demand_i on each.  Then
    the unit-capacity load rows of the edges `_maximal_edges` keeps, in id
    order; `kept` flags, per used edge in id order, whether it has a row.

    A dropped row is implied by a kept one (f >= 0), but nothing trusts
    that: the smaller LP is a relaxation, so its dual, zero on the dropped
    rows, still bounds the full LP, and `_certify_scheme` re-checks every
    scheme on every edge.  A wrong presolve raises CertificateInvalid, never
    a wrong answer.  Raises PathEnumerationTruncated when a session has
    more than path_limit paths.
    """
    session_paths, capacity, kept = _skeleton(net, path_limit)
    c, b, cols, lam = [], [], [], []
    for paths, d in zip(session_paths, demand):
        # A zero-rate session's paths get c = 0: pricing them in would only
        # add degenerate pivots on its row, which holds their flow at 0.
        c += [0 if scaled else int(d > 0)] * len(paths)
        if scaled and not d:
            cols += [[] for _ in paths]
            continue
        lam.append((len(b), d))
        cols += [[(len(b), -1 if scaled else 1)] for _ in paths]
        b.append(0 if scaled else d)
    for row, path_cols in enumerate(capacity, len(b)):
        entry = (row, 1)
        for col in path_cols:
            cols[col].append(entry)
    b += [1] * len(capacity)
    if scaled:
        c.append(1)
        cols.append(lam)
    return session_paths, c, b, cols, list(kept)


def _maximal_edges(used: list[int], edge_cols: dict[int, list[int]]) -> set[int]:
    """The least edge id of each maximal distinct column set among `used`.

    A set equal to or strictly inside another has its row implied by that
    one's.  Sets are met largest first, as bitmasks, so each is compared
    with the kept ones only; strict inclusion is transitive, so every
    dropped set has a kept superset.
    """
    first: dict[int, int] = {}  # column bitmask -> least edge id
    for eid in used:
        first.setdefault(sum(1 << col for col in edge_cols[eid]), eid)
    kept: list[int] = []
    for mask in sorted(first, key=int.bit_count, reverse=True):
        for k in kept:
            if mask & k == mask:
                break
        else:
            kept.append(mask)
    return {first[mask] for mask in kept}


def _zero_extend(dual: list[Fraction], kept: list[bool]) -> list[Fraction]:
    """The dual in the full LP's rows: a dropped capacity row gets 0."""
    head = len(dual) - sum(kept)
    rest = iter(dual[head:])
    return dual[:head] + [next(rest) if k else Fraction(0) for k in kept]


@dataclass
class FeasibilityResult:
    feasible: bool
    scheme: Optional[RoutingScheme] = None


def _build_scheme(net, session_paths, x) -> RoutingScheme:
    flows: list[dict[Path, Fraction]] = [dict() for _ in net.sessions]
    col = 0
    for i, paths in enumerate(session_paths):
        for path in paths:
            if x[col]:
                flows[i][path] = x[col]
            col += 1
    return RoutingScheme(tuple(flows))


def check_rate_feasible(
    net: Network, rates: Sequence, path_limit: int = DEFAULT_PATH_LIMIT
) -> FeasibilityResult:
    """Decide whether nonnegative path flows deliver the rates within unit
    edge capacities, by maximising the total flow with each session capped
    at its rate.  "Feasible" is re-checked by the scheme it returns,
    "infeasible" by the LP dual, which bounds the total flow below the sum
    of the rates; a failed check raises CertificateInvalid.

    Raises PathEnumerationTruncated when the path cap was hit (result would
    be indeterminate).
    """
    rates = parse_rates(rates)
    if len(rates) != net.num_sessions:
        raise ValueError("one rate per session required")
    session_paths, c, b, cols, _ = _path_lp(net, rates, False, path_limit)
    result = simplex.solve(c, b, cols)
    assert result.status == simplex.OPTIMAL, result.status
    value = result.value
    if value < sum(rates):
        if not _is_dual_certificate(c, b, cols, result.dual, value):
            raise CertificateInvalid(f"the LP dual does not certify the maximum flow {value}")
        return FeasibilityResult(False)
    scheme = _build_scheme(net, session_paths, result.x)
    _certify_scheme(net, scheme, rates, "the rates")
    return FeasibilityResult(True, scheme)


@dataclass
class ScalingResult:
    lam: Fraction
    scheme: RoutingScheme
    # One entry per row of the full LP: session rows, then every used edge
    # in id order, 0 on a capacity row `_path_lp` dropped.
    dual: list[Fraction]


def max_scaled_rate(
    net: Network, direction: Sequence, path_limit: int = DEFAULT_PATH_LIMIT
) -> ScalingResult:
    """Largest lambda with lambda*direction routable (exact LP)."""
    direction = parse_rates(direction)
    if len(direction) != net.num_sessions:
        raise ValueError("one direction entry per session required")
    if all(d == 0 for d in direction):
        raise ValueError("direction must be nonzero")
    session_paths, c, b, cols, kept = _path_lp(net, direction, True, path_limit)
    result = simplex.solve(c, b, cols)
    assert result.status == simplex.OPTIMAL, result.status
    lam = result.value
    if not _is_dual_certificate(c, b, cols, result.dual, lam):
        raise CertificateInvalid(f"the LP dual does not certify lambda* = {lam}")
    scheme = _build_scheme(net, session_paths, result.x[:-1])
    _certify_scheme(
        net, scheme, [lam * d for d in direction],
        f"lambda* = {lam} times the direction",
    )
    return ScalingResult(lam, scheme, _zero_extend(result.dual, kept))


def _certify_scheme(net, scheme, rates, what: str) -> None:
    """Re-check an LP scheme exactly, outside the solver."""
    check = verify_routing_scheme(net, scheme, rates)
    if not check:
        raise CertificateInvalid(
            f"the LP scheme does not route {what}: "
            f"{check.violation[0]} {check.violation[1]} violated"
        )


def _is_dual_certificate(c, b, cols, y, value) -> bool:
    """Weak duality, exactly: y >= 0, y^T A >= c and y^T b == value, so no
    feasible x has c.x > value.  It tests y >= 0 on numerators and scales y
    to the integers k = den * y, den the lcm of y's denominators, so that
    y^T b == value reads sum(k_i * b_i) == value * den and each column j of
    A, given as in `simplex.solve`, is checked as k^T A_j >= c_j * den."""
    if len(y) != len(b) or any(v.numerator < 0 for v in y):
        return False
    den = lcm(*[yi.denominator for yi in y])
    k = [yi.numerator * (den // yi.denominator) for yi in y]
    if sum(ki * bi for ki, bi in zip(k, b) if ki) != value * den:
        return False
    for cj, col in zip(c, cols):
        s = 0
        for i, a in col:
            s += k[i] * a
        if s < cj * den:
            return False
    return True


def verify_routing_scheme(net: Network, scheme: RoutingScheme, rates: Sequence) -> CheckResult:
    """Substitute the scheme into both constraint families exactly, after
    checking that every flow is nonnegative.  The violation is the first of
    ("negative", session, path), ("rate", session) or ("capacity", edge)."""
    rates = parse_rates(rates)
    if len(scheme.flows) != net.num_sessions or len(rates) != net.num_sessions:
        raise ValueError("scheme/rates must cover every session")
    for i, per_session in enumerate(scheme.flows, start=1):
        s, d = net.sessions[i - 1]
        for path in per_session:
            if not validate_path(net, path, s, d):
                raise UnknownPath(i, path)
    for i, per_session in enumerate(scheme.flows, start=1):
        for path, value in per_session.items():
            if value < 0:
                return CheckResult(False, ("negative", i, path))
    for i in range(1, net.num_sessions + 1):
        if scheme.rate(i) < rates[i - 1]:
            return CheckResult(False, ("rate", i))
    # Loads in integers: each flow times den, the lcm of the flow
    # denominators, so capacity 1 is den.
    den = lcm(*[v.denominator for per_session in scheme.flows for v in per_session.values()])
    loads: dict[int, int] = {}
    for per_session in scheme.flows:
        for path, value in per_session.items():
            k = value.numerator * (den // value.denominator)
            for eid in path:
                loads[eid] = loads.get(eid, 0) + k
    for eid in sorted(loads):
        if loads[eid] > den:
            return CheckResult(False, ("capacity", eid))
    return CheckResult(True)
