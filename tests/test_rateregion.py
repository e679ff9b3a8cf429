import gc
import json
import random
import weakref
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import differential
from oracles import columns, fraction_simplex, random_network, vertex_enum_max

from infodist import corpus, graph, rateregion, simplex
from infodist.cli import main
from infodist.errors import CertificateInvalid, PathEnumerationTruncated, UnknownPath
from infodist.graph import DEFAULT_PATH_LIMIT, CheckResult, Network, require_paths, validate_network
from infodist.rateregion import (
    RoutingScheme,
    check_rate_feasible,
    max_scaled_rate,
    scheme_from_json,
    verify_routing_scheme,
)


def test_single_edge_feasibility(nets):
    net = nets["single-edge"]
    assert check_rate_feasible(net, [1]).feasible
    assert not check_rate_feasible(net, [Fraction(3, 2)]).feasible


def test_two_disjoint_sessions_feasible():
    net = Network(
        ["s1", "d1", "s2", "d2"],
        [("s1", "d1", 0), ("s2", "d2", 0)],
        [("s1", "d1"), ("s2", "d2")],
    )
    res = check_rate_feasible(net, [1, 1])
    assert res.feasible
    assert verify_routing_scheme(net, res.scheme, [1, 1]).ok


def test_butterfly_unit_rates_infeasible(nets):
    assert not check_rate_feasible(nets["butterfly"], [1, 1]).feasible


def test_feasible_witness_schemes_verify(nets):
    for name, rates in [("fig1a", [1, 1]), ("fig1a", [2, 1]), ("fig5", [1, 1, 1])]:
        res = check_rate_feasible(nets[name], rates)
        assert res.feasible
        assert verify_routing_scheme(nets[name], res.scheme, rates).ok


def test_max_scaled_rate_examples(nets):
    assert max_scaled_rate(nets["single-edge"], [1]).lam == 1
    assert max_scaled_rate(nets["parallel-m"], [1]).lam == 3
    bf = max_scaled_rate(nets["butterfly"], [1, 1])
    assert bf.lam == Fraction(1, 2)
    assert 0 < bf.lam < 1
    assert max_scaled_rate(nets["fig1a"], [1, 1]).lam == Fraction(3, 2)


def test_max_scaled_rate_zero_direction_entry(nets):
    res = max_scaled_rate(nets["fig1a"], [0, 1])
    assert res.lam == 2


def test_max_scaled_rate_rejects_zero_direction(nets):
    with pytest.raises(ValueError):
        max_scaled_rate(nets["fig1a"], [0, 0])


def _lp_for_direction(net, direction):
    """The full (c, A, b) of max_scaled_rate's LP, with a capacity row for
    every used edge: an oracle for the presolved LP the library solves."""
    session_paths = [require_paths(net, s, d) for s, d in net.sessions]
    nvars = sum(map(len, session_paths)) + 1
    offsets, col = [], 0
    for paths in session_paths:
        offsets.append(col)
        col += len(paths)
    A, b = [], []
    for i, paths in enumerate(session_paths):
        if direction[i] == 0:
            continue
        row = [Fraction(0)] * nvars
        row[-1] = Fraction(direction[i])
        for k in range(len(paths)):
            row[offsets[i] + k] = Fraction(-1)
        A.append(row)
        b.append(Fraction(0))
    used = sorted({e for paths in session_paths for p in paths for e in p})
    for eid in used:
        row = [Fraction(0)] * nvars
        for i, paths in enumerate(session_paths):
            for k, p in enumerate(paths):
                if eid in p:
                    row[offsets[i] + k] = Fraction(1)
        A.append(row)
        b.append(Fraction(1))
    c = [Fraction(0)] * nvars
    c[-1] = Fraction(1)
    return c, A, b


def test_lp_optimum_matches_vertex_enumeration(nets):
    for name in ("single-edge", "parallel-m", "butterfly"):
        net = nets[name]
        direction = [1] * net.num_sessions
        got = max_scaled_rate(net, direction).lam
        c, A, b = _lp_for_direction(net, direction)
        assert got == vertex_enum_max(c, A, b)


def test_lp_duality_certificate(nets):
    # weak duality exactly: y >= 0, yA >= c componentwise, y.b == optimum
    for name in ("butterfly", "fig1a", "parallel-m"):
        net = nets[name]
        direction = [1] * net.num_sessions
        c, A, b = _lp_for_direction(net, direction)
        res = simplex.solve(c, b, columns(A, len(c)))
        assert res.status == simplex.OPTIMAL
        y = res.dual
        assert all(v >= 0 for v in y)
        for j in range(len(c)):
            assert sum(y[i] * A[i][j] for i in range(len(A))) >= c[j]
        assert sum(yi * bi for yi, bi in zip(y, b)) == res.value


def _full_lp_verdict(net, direction, t) -> bool:
    """Whether t * direction is routable, by the full LP with lambda pinned
    to t, solved by the Fraction oracle."""
    c, A, b = _lp_for_direction(net, direction)
    pin = [Fraction(0)] * (len(c) - 1)
    status = fraction_simplex(c, A + [pin + [Fraction(1)], pin + [Fraction(-1)]], b + [t, -t])[0]
    return status == simplex.OPTIMAL


_direction_entry = st.one_of(
    st.integers(0, 3), st.fractions(min_value=0, max_value=3, max_denominator=4)
)


@settings(max_examples=60, deadline=None)
@given(
    source=st.one_of(st.sampled_from(corpus.NETWORKS), st.integers(0, 10**6)),
    data=st.data(),
)
def test_presolved_lp_equals_full_lp(nets, source, data):
    net = nets[source] if isinstance(source, str) else random_network(random.Random(source))
    direction = data.draw(
        st.lists(_direction_entry, min_size=net.num_sessions, max_size=net.num_sessions)
        .filter(any)
    )
    res = max_scaled_rate(net, direction)
    c, A, b = _lp_for_direction(net, direction)
    status, _, value, _, _ = fraction_simplex(c, A, b)
    assert status == simplex.OPTIMAL and res.lam == value
    for t in (res.lam, res.lam + Fraction(1, 1000)):
        rates = [t * d for d in direction]
        assert check_rate_feasible(net, rates).feasible == _full_lp_verdict(net, direction, t)
    # The zero-extended dual certifies lambda* on the full LP.
    y = res.dual
    assert len(y) == len(A) and all(v >= 0 for v in y)
    for j in range(len(c)):
        assert sum(y[i] * A[i][j] for i in range(len(A))) >= c[j]
    assert sum(yi * bi for yi, bi in zip(y, b)) == res.lam


def test_path_lp_keeps_one_row_per_maximal_column_set():
    # One session, four paths: P1 s-u-v-d, P2 s-u-v-x-d, P3 s-u-v-w-d and
    # P4 s-w-d.  The chain s-u, u-v carries {P1, P2, P3}, the largest set,
    # and w-d carries {P3, P4}; every other edge's set is strictly inside
    # one of these.  Ids: w-d 0, v-d 1, u-v 2, s-u 3, v-x 4, x-d 5, v-w 6, s-w 7.
    net = Network(
        ["s", "u", "v", "w", "x", "d"],
        [("w", "d", 0), ("v", "d", 0), ("u", "v", 0), ("s", "u", 0),
         ("v", "x", 0), ("x", "d", 0), ("v", "w", 0), ("s", "w", 0)],
        [("s", "d")],
    )
    (paths,), c, b, cols, kept = rateregion._path_lp(net, [Fraction(1)], True, 100)
    assert len(paths) == 4
    # Equal sets keep the least id (u-v, not s-u); rows follow ascending id.
    assert kept == [eid in (0, 2) for eid in range(8)]
    assert cols == [[(0, -1)] + [(row, 1) for row, eid in enumerate((0, 2), 1) if eid in p]
                    for p in paths] + [[(0, Fraction(1))]]
    assert b[1:] == [1, 1]
    res = max_scaled_rate(net, [1])
    assert res.lam == 2
    assert len(res.dual) == 1 + 8
    assert all(v == 0 for eid, v in enumerate(res.dual[1:]) if eid not in (0, 2))


@contextmanager
def _counted_pivots():
    """Count simplex pivots (and the negative ones) while the block runs."""
    counts = {"pivots": 0, "negative": 0}
    original = simplex._pivot

    def counting(T, basis, prow, enter, scale):
        counts["pivots"] += 1
        counts["negative"] += T[prow][0] < 0  # the entering cell
        return original(T, basis, prow, enter, scale)

    simplex._pivot = counting
    try:
        yield counts
    finally:
        simplex._pivot = original


def _solve_matches_oracle(c, A, b):
    """Assert the integer tableau returns what the Fraction tableau returns,
    after the same number of pivots; give back (status, negative pivots)."""
    with _counted_pivots() as counts:
        res = simplex.solve(c, b, columns(A, len(c)))
    assert (res.status, res.x, res.value, res.dual, counts["pivots"]) == fraction_simplex(c, A, b)
    for v in (res.x or []) + (res.dual or []) + ([res.value] if res.value is not None else []):
        assert type(v) is Fraction
    return res.status, counts["negative"]


_entry = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def _small_lps(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    row = st.lists(_entry, min_size=n, max_size=n)
    return draw(row), [draw(row) for _ in range(m)], draw(st.lists(_entry, min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@given(_small_lps())
@example(([1], [[1]], [-1]))  # negative b
@example(([1], [[-1]], [0]))  # unbounded
@example(([0, 1], [[-1, 0]], [-1]))  # negative b
@example(([1], [[-1], [1]], [-1, 1]))  # negative b
def test_simplex_matches_fraction_oracle(lp):
    c, A, b = lp
    if any(v < 0 for v in b):
        with pytest.raises(ValueError):
            simplex.solve(c, b, columns(A, len(c)))
    else:
        _solve_matches_oracle(c, A, b)


def test_simplex_oracle_cases_cover_every_branch():
    rng = random.Random(4)

    def entry():
        k = rng.random()
        if k < 0.35:
            return 0
        if k < 0.7:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    seen = set()
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        c = [entry() for _ in range(n)]
        A = [[entry() for _ in range(n)] for _ in range(m)]
        b = [entry() for _ in range(m)]
        if any(v < 0 for v in b):
            with pytest.raises(ValueError):
                simplex.solve(c, b, columns(A, len(c)))
            continue
        status, negative = _solve_matches_oracle(c, A, b)
        assert negative == 0
        seen.add(status)
    assert seen == {simplex.OPTIMAL, simplex.UNBOUNDED}
    # x1 >= 1 and x1 <= 1 needs a phase 1, which solve does not have.
    with pytest.raises(ValueError):
        simplex.solve([1], [-1, 1], columns([[-1], [1]], 1))


def test_simplex_matches_fraction_oracle_on_corpus_lps(nets):
    for name, net in nets.items():
        for direction in ([1] * net.num_sessions, [Fraction(k + 1, 2) for k in range(net.num_sessions)]):
            c, A, b = _lp_for_direction(net, direction)
            assert _solve_matches_oracle(c, A, b)[0] == simplex.OPTIMAL, name


def _tamper_value(res):
    return res._replace(value=res.value + Fraction(1, 7))


def _tamper_dual(res):
    return res._replace(dual=[-v for v in res.dual])


def _tamper_dual_infeasible(res):
    # y >= 0 and y.b == value still hold (the last row is an edge row, b = 1),
    # but y^T A >= c fails on the lambda column.
    return res._replace(dual=[Fraction(0)] * (len(res.dual) - 1) + [res.value])


def _tamper_overload(res):
    return res._replace(x=[2 * v for v in res.x])


def _tamper_underdeliver(res):
    return res._replace(x=[Fraction(0)] * len(res.x))


def _tamper_negate(res):
    return res._replace(x=[-v for v in res.x])


@pytest.mark.parametrize(
    "tamper",
    [_tamper_value, _tamper_dual, _tamper_dual_infeasible, _tamper_overload, _tamper_underdeliver],
)
def test_max_scaled_rate_rejects_tampered_lp_answer(nets, monkeypatch, capsys, tamper):
    honest = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda c, A, b: tamper(honest(c, A, b)))
    with pytest.raises(CertificateInvalid):
        max_scaled_rate(nets["fig1a"], [1, 1])
    assert main(["rate", "fig1a", "--direction", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infodist: the LP" in captured.err


@settings(max_examples=40, deadline=None)
@given(
    r1=st.fractions(min_value=0, max_value=2),
    r2=st.fractions(min_value=0, max_value=2),
    shrink1=st.fractions(min_value=0, max_value=1),
    shrink2=st.fractions(min_value=0, max_value=1),
)
def test_feasibility_downward_closed(nets, r1, r2, shrink1, shrink2):
    net = nets["fig1a"]
    if check_rate_feasible(net, [r1, r2]).feasible:
        assert check_rate_feasible(net, [r1 * shrink1, r2 * shrink2]).feasible


def test_verify_zero_scheme_against_zero_rates(nets):
    net = nets["fig1a"]
    scheme = RoutingScheme((dict(), dict()))
    assert verify_routing_scheme(net, scheme, [0, 0]).ok
    assert not verify_routing_scheme(net, scheme, [1, 0]).ok


def test_verify_overload_names_first_edge(nets):
    net = nets["single-edge"]
    scheme = RoutingScheme(({(0,): Fraction(2)},))
    res = verify_routing_scheme(net, scheme, [2])
    assert not res.ok
    assert res.violation == ("capacity", 0)


def test_verify_rate_violation_names_session(nets):
    net = nets["fig1a"]
    scheme = RoutingScheme(({(0, 1, 2): Fraction(1)}, dict()))
    res = verify_routing_scheme(net, scheme, [1, 1])
    assert res.violation == ("rate", 2)


def test_verify_reports_negative_flow_on_valid_path(nets):
    net = nets["single-edge"]
    scheme = RoutingScheme(({(0,): Fraction(-1)},))
    assert verify_routing_scheme(net, scheme, [0]) == CheckResult(False, ("negative", 1, (0,)))


@pytest.mark.parametrize("tamper", [_tamper_overload, _tamper_underdeliver, _tamper_negate])
def test_check_rate_feasible_rejects_tampered_lp_answer(nets, monkeypatch, capsys, tamper):
    honest = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda c, A, b: tamper(honest(c, A, b)))
    with pytest.raises(CertificateInvalid):
        check_rate_feasible(nets["fig1a"], [1, 1])
    assert main(["rate", "fig1a", "--rate", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infodist: the LP scheme does not route the rates" in captured.err


def _tamper_lower_value(res):
    return res._replace(value=res.value - Fraction(1, 7))


def _tamper_zero_dual(res):
    return res._replace(dual=[Fraction(0)] * len(res.dual))


@pytest.mark.parametrize("tamper", [_tamper_lower_value, _tamper_zero_dual])
def test_check_rate_feasible_rejects_tampered_infeasible_answer(monkeypatch, capsys, tamper):
    honest = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda c, A, b: tamper(honest(c, A, b)))
    # A fresh network object: one `max_scaled_rate` has run on would refute
    # (1, 1) by its stored lambda* dual, and no LP answer would be checked.
    with pytest.raises(CertificateInvalid):
        check_rate_feasible(validate_network(corpus.load("butterfly")), [1, 1])
    assert main(["rate", "butterfly", "--rate", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infodist: the LP" in captured.err


def test_rate_feasible_on_the_boundary(nets):
    # lambda* = 3/2 on fig1a, so (3/2, 3/2) is feasible with no slack: the
    # capped total flow reaches the sum of the rates exactly.
    res = check_rate_feasible(nets["fig1a"], [Fraction(3, 2)] * 2)
    assert res.feasible
    assert [res.scheme.rate(i) for i in (1, 2)] == [Fraction(3, 2)] * 2


def test_zero_rate_session_carries_no_flow(nets):
    res = check_rate_feasible(nets["fig1a"], [0, 1])
    assert res.feasible
    assert res.scheme.flows[0] == {}
    assert res.scheme.rate(2) == 1


def test_verify_rejects_a_rate_vector_one_short(nets):
    scheme = RoutingScheme((dict(), dict()))
    with pytest.raises(ValueError, match="scheme/rates must cover every session"):
        verify_routing_scheme(nets["fig1a"], scheme, [0])


def test_verify_rejects_unknown_path(nets):
    net = nets["fig1a"]
    scheme = RoutingScheme(({(0, 2): Fraction(1)}, dict()))
    with pytest.raises(UnknownPath):
        verify_routing_scheme(net, scheme, [0, 0])


def test_scheme_json_roundtrip(nets):
    net = nets["fig1a"]
    res = check_rate_feasible(net, [1, 1])
    data = res.scheme.to_json_dict()
    back = scheme_from_json(data, net.num_sessions)
    assert back.flows == tuple(
        {p: v for p, v in fl.items() if v} for fl in res.scheme.flows
    )
    for entry in data["flows"]:
        Fraction(entry["value"])  # parses exactly


def test_path_truncation_raises(nets):
    with pytest.raises(PathEnumerationTruncated):
        check_rate_feasible(nets["fig1a"], [1, 1], path_limit=1)


def test_random_feasibility_monotonic_in_scaling():
    rng = random.Random(17)
    for _ in range(10):
        net = random_network(rng, max_internal=4, max_sessions=2)
        direction = [1] * net.num_sessions
        lam = max_scaled_rate(net, direction).lam
        assert check_rate_feasible(net, [lam] * net.num_sessions).feasible
        bump = [lam + Fraction(1, 7)] * net.num_sessions
        assert not check_rate_feasible(net, bump).feasible


def _counted_enumerations(monkeypatch):
    """Count graph.enumerate_paths calls from here on."""
    calls = []
    real = graph.enumerate_paths
    monkeypatch.setattr(graph, "enumerate_paths", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_one_path_enumeration_per_network(monkeypatch):
    calls = _counted_enumerations(monkeypatch)
    net = validate_network(corpus.load("fig1a"))
    K = net.num_sessions
    best = max_scaled_rate(net, [1, 1])
    at = check_rate_feasible(net, [best.lam] * K)
    above = check_rate_feasible(net, [best.lam + Fraction(1, 1000)] * K)
    assert len(calls) == K
    # The cached path lists are shared read-only.
    session_paths = rateregion._path_lp(net, [1, 1], True, DEFAULT_PATH_LIMIT)[0]
    assert len(calls) == K
    assert type(session_paths) is tuple and all(type(paths) is tuple for paths in session_paths)
    # A second network object from the same JSON is enumerated on its own
    # and gets the same answers.
    twin = validate_network(corpus.load("fig1a"))
    best2 = max_scaled_rate(twin, [1, 1])
    at2 = check_rate_feasible(twin, [best.lam] * K)
    above2 = check_rate_feasible(twin, [best.lam + Fraction(1, 1000)] * K)
    assert len(calls) == 2 * K
    assert (best2.lam, best2.scheme, best2.dual) == (best.lam, best.scheme, best.dual)
    assert (at2.feasible, at2.scheme) == (at.feasible, at.scheme)
    assert (above2.feasible, above2.scheme) == (above.feasible, above.scheme) == (False, None)


def test_truncated_enumeration_is_not_cached(monkeypatch):
    calls = _counted_enumerations(monkeypatch)
    net = validate_network(corpus.load("fig1a"))
    for _ in range(2):
        with pytest.raises(PathEnumerationTruncated):
            max_scaled_rate(net, [1, 1], path_limit=1)
    assert len(calls) == 2
    # Another limit is its own entry.
    assert max_scaled_rate(net, [1, 1], path_limit=100).lam == Fraction(3, 2)
    assert max_scaled_rate(net, [1, 1], path_limit=100).lam == Fraction(3, 2)
    assert len(calls) == 2 + net.num_sessions


def test_memo_entry_dies_with_its_network():
    net = validate_network(corpus.load("butterfly"))
    max_scaled_rate(net, [1, 1])
    assert net in rateregion._SKELETONS
    before = len(rateregion._SKELETONS)
    ref = weakref.ref(net)
    del net
    gc.collect()
    assert ref() is None
    assert len(rateregion._SKELETONS) == before - 1


@contextmanager
def _solve_calls():
    """The simplex.solve calls made while the block runs."""
    calls = []
    real = simplex.solve
    simplex.solve = lambda *args: calls.append(args) or real(*args)
    try:
        yield calls
    finally:
        simplex.solve = real


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_stored_lambda_dual_gives_the_verdicts_of_a_fresh_network(seed, data):
    """After `max_scaled_rate`, the network's stored lambda* dual refutes
    lambda* (1 + 1/1000) times the direction without an LP, and every
    verdict and scheme equals that of a network object with no stored dual."""
    net = random_network(random.Random(seed))
    K = net.num_sessions
    direction = data.draw(st.lists(_direction_entry, min_size=K, max_size=K).filter(any))
    lam = max_scaled_rate(net, direction).lam
    step = Fraction(1, 1000)
    above, below = ([lam * (1 + t) * d for d in direction] for t in (step, -step))
    if lam:  # lambda* = 0 makes `above` all zeros, which the LP routes
        with _solve_calls() as calls:
            assert not check_rate_feasible(net, above).feasible
        assert calls == []
    fresh = random_network(random.Random(seed))
    for rates in [above, below] + data.draw(
            st.lists(st.lists(_direction_entry, min_size=K, max_size=K), max_size=4)):
        got, want = check_rate_feasible(net, rates), check_rate_feasible(fresh, rates)
        assert (got.feasible, got.scheme) == (want.feasible, want.scheme)
    assert rateregion._SKELETONS[fresh].bound is None


@pytest.mark.parametrize(
    "tamper",
    [_tamper_value, _tamper_dual, _tamper_dual_infeasible, _tamper_overload, _tamper_underdeliver],
)
def test_rejected_lambda_answer_stores_no_dual(monkeypatch, tamper):
    net = validate_network(corpus.load("fig1a"))
    honest = simplex.solve
    monkeypatch.setattr(simplex, "solve", lambda c, A, b: tamper(honest(c, A, b)))
    with pytest.raises(CertificateInvalid):
        max_scaled_rate(net, [1, 1])
    monkeypatch.setattr(simplex, "solve", honest)
    assert rateregion._SKELETONS[net].bound is None
    # So (2, 2), above lambda* = 3/2, is refuted by an LP.
    with _solve_calls() as calls:
        assert not check_rate_feasible(net, [2, 2]).feasible
    assert len(calls) == 1


def test_stored_dual_keeps_the_errors_and_is_replaced_by_the_next_lambda():
    net = validate_network(corpus.load("fig1a"))
    max_scaled_rate(net, [1, 1])
    with pytest.raises(PathEnumerationTruncated):
        check_rate_feasible(net, [2, 2], path_limit=1)
    with pytest.raises(ValueError, match="one rate per session required"):
        check_rate_feasible(net, [2])
    with pytest.raises(ValueError, match="rates must be nonnegative"):
        check_rate_feasible(net, [2, -1])
    # Session 2 has no row when its direction entry is 0: its dual is 0.
    best = max_scaled_rate(net, [1, 0])
    assert rateregion._SKELETONS[net].bound == ((best.dual[0], Fraction(0)), best.lam)


def test_pivot_leaves_rows_that_are_zero_in_the_pivot_column_alone():
    # max x0 + x1 + x2 with 2 x0 + x1 <= 4, 3 x1 + x2 <= 3, x1 + 2 x2 <= 2,
    # in revised rows [entering cell | slack part | rhs], objective last.
    A, c = [[2, 1, 0], [0, 3, 1], [0, 1, 2]], [1, 1, 1]
    T = [[0, 1, 0, 0, 4], [0, 0, 1, 0, 3], [0, 0, 0, 1, 2], [0, 0, 0, 0, 0]]
    # The plain Fraction tableau [A | I | b] with objective row [-c | 0 | 0].
    F = [[Fraction(v) for v in row] for row in
         [[2, 1, 0, 1, 0, 0, 4], [0, 3, 1, 0, 1, 0, 3], [0, 1, 2, 0, 0, 1, 2], [-1, -1, -1, 0, 0, 0, 0]]]
    scale, basis = [1] * 4, [3, 4, 5]

    def pivot(prow, enter):
        # Each row's entering cell first, as solve fills it: its slack part
        # times column `enter` of A, less D * c_enter in the objective row.
        for row in T:
            row[0] = sum(y * a[enter] for y, a in zip(row[1:4], A))
        T[3][0] -= scale[3] * c[enter]
        assert [Fraction(row[0], s) for row, s in zip(T, scale)] == [row[enter] for row in F]
        F[prow] = [v / F[prow][enter] for v in F[prow]]
        for r, row in enumerate(F):
            if r != prow:
                F[r] = [v - row[enter] * p for v, p in zip(row, F[prow])]
        simplex._pivot(T, basis, prow, enter, scale)
        assert [[Fraction(v, s) for v in row] for row, s in zip(T, scale)] == [
            [row[enter], *row[3:]] for row in F]

    # Rows 1 and 2 are 0 in x0's column: they keep their values and scale 1.
    rows, values = (T[1], T[2]), (T[1][:], T[2][:])
    pivot(0, 0)
    assert (T[1], T[2]) == values and T[1] is rows[0] and T[2] is rows[1]
    assert scale == [2, 1, 1, 2]
    # Row 1 is brought to scale 2 before it pivots; row 2, still at scale
    # 1, gets exactly the integers the eager step stores at the new scale 6.
    pivot(1, 1)
    assert scale == [6, 6, 6, 6]
    assert T[2] == [0, 0, -2, 6, 6]
    pivot(2, 2)
    assert basis == [0, 1, 2] and scale[-1] == scale[2]


@pytest.mark.parametrize("c, cl", [
    ([0, 1, -1, 7], 1),
    ([], 1),
    ([Fraction(1, 2), 1, Fraction(2, 3), Fraction(3)], 6),
], ids=["int", "empty", "halves-and-thirds"])
def test_solve_scales_the_objective_in_the_rows_pass(monkeypatch, c, cl):
    """solve reads c's scale cl in the pass that scales b and A: an int c,
    an empty c, and a c whose non-int entries have denominators 2, 3 and 1
    each give the Fraction oracle's answer, and at the first pivot (scale
    1, slack part 0) the objective row's entering cell is -cl * c_enter."""
    n = len(c)
    A = [[1] * n, [j % 2 for j in range(n)], [Fraction(1, 3)] * n]
    b = [3, Fraction(5, 2), 2]
    entered, original = [], simplex._pivot

    def recording(T, basis, prow, enter, scale):
        entered.append((enter, T[-1][0]))
        original(T, basis, prow, enter, scale)

    monkeypatch.setattr(simplex, "_pivot", recording)
    assert _solve_matches_oracle(c, A, b)[0] == simplex.OPTIMAL
    assert bool(entered) == bool(c)
    for enter, cell in entered[:1]:
        assert cell == -cl * c[enter]


@st.composite
def _path_lp_shaped(draw):
    """max c.x, A x <= b with A in {0, 1, -1} but for one Fraction column
    (the lambda column of the scaled path LP), b >= 0 of Fractions."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    frac = draw(st.integers(0, n - 1))
    unit = st.sampled_from([0, 0, 1, -1])
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    A = [[draw(entry) if j == frac else draw(unit) for j in range(n)] for _ in range(m)]
    c = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    b = draw(st.lists(st.fractions(min_value=0, max_value=3, max_denominator=6), min_size=m, max_size=m))
    return c, A, b


@settings(max_examples=150, deadline=None)
@given(_path_lp_shaped())
def test_lazily_scaled_pivots_match_fraction_oracle(lp):
    _solve_matches_oracle(*lp)


def _wide_lp(draw_int, draw_from):
    """A path-LP-shaped LP with many more columns than rows (m <= 8, n in
    13..40), the regime where pricing the columns is most of a pivot: A in
    {0, 1, -1} but for one Fraction column, and every other column j has a
    1 in row j mod m, as every path crosses a capacity row.  So no column
    is unbounded at the origin; an LP can end unbounded only after pivots."""
    m, n = draw_int(1, 8), draw_int(13, 40)
    frac = draw_int(0, n - 1)
    A = [[Fraction(draw_int(-18, 18), draw_int(1, 6)) if j == frac else
          1 if i == j % m else draw_from([0, 0, 0, 1, 1, -1]) for j in range(n)] for i in range(m)]
    c = [draw_from([0, 1]) for _ in range(n)]
    b = [Fraction(draw_int(0, 18), draw_int(1, 6)) for _ in range(m)]
    return c, A, b


@st.composite
def _wide_path_lps(draw):
    return _wide_lp(lambda lo, hi: draw(st.integers(lo, hi)), lambda values: draw(st.sampled_from(values)))


@settings(max_examples=50, deadline=None)
@given(_wide_path_lps())
def test_wide_lps_match_fraction_oracle(lp):
    _solve_matches_oracle(*lp)


def test_wide_lps_enter_structural_and_slack_columns():
    """Seeded wide LPs: every answer matches the oracle, and among them a
    structural column enters, a slack column enters, and an LP ends
    unbounded after pivots."""
    rng = random.Random(3)
    entered, statuses = set(), set()
    original = simplex._pivot
    for _ in range(40):
        c, A, b = _wide_lp(rng.randint, rng.choice)
        states, rows, final = [], [], []

        def recording(T, basis, prow, pcol, scale):
            states.append(basis[:])
            rows.append(prow)
            original(T, basis, prow, pcol, scale)
            final.append(basis)

        simplex._pivot = recording
        try:
            statuses.add((_solve_matches_oracle(c, A, b)[0], bool(rows)))
        finally:
            simplex._pivot = original
        # The column that entered at pivot k sits at its row in the basis
        # that the next pivot (or the caller, after the last one) sees.
        for state, prow in zip(states[1:] + final[-1:], rows):
            entered.add("structural" if state[prow] < len(c) else "slack")
    assert entered == {"structural", "slack"}
    assert (simplex.UNBOUNDED, True) in statuses and (simplex.OPTIMAL, True) in statuses


def test_rate_differential_matches_its_pinned_hashes():
    """tests/differential.py's rate family on a small seed range: its
    answers (lambda*, schemes, duals, verdicts) and pivot counts hash to
    the pinned values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["rate"]
    assert differential.run("rate", pinned["seeds"]) == {k: pinned[k] for k in ("answers", "pivots")}


def test_fresh_rate_differential_matches_its_pinned_hashes():
    """tests/differential.py's rate-fresh family on a small seed range: the
    verdicts and schemes at lambda* +- 1/1000 on a network object that keeps
    no lambda* dual, so the LP dual refutes lambda* + 1/1000, and the pivot
    counts of every LP hash to the pinned values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["rate-fresh"]
    assert differential.run("rate-fresh", pinned["seeds"]) == {
        k: pinned[k] for k in ("answers", "pivots")}


def test_deadline_differential_matches_its_pinned_hashes():
    """tests/differential.py's deadline family on a small seed range: its
    printed verdicts and `_c0_ordering` call counts hash to the pinned
    values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["deadline"]
    assert differential.run("deadline", pinned["seeds"]) == {
        k: pinned[k] for k in ("answers", "c0_orderings")}


def test_search_differential_matches_its_pinned_hashes():
    """tests/differential.py's search family on a small seed range: its
    verdicts, witnesses and representatives under both `strict_def5`
    settings, and their `search_stats`, hash to the pinned values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["search"]
    assert differential.run("search", pinned["seeds"]) == {
        k: pinned[k] for k in ("answers", "search_stats")}


def test_sampler_differential_matches_its_pinned_hashes():
    """tests/differential.py's sampler family on a small seed range: its
    local tables, rng states and samples drawn per call hash to the pinned
    values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["sampler"]
    assert differential.run("sampler", pinned["seeds"]) == {
        k: pinned[k] for k in ("answers", "samples")}


def test_audit_differential_matches_its_pinned_hashes():
    """tests/differential.py's audit family on a small seed range: its
    decodability flags, rank queries, extracted schemes and audit reports,
    and the bases each code memoizes, hash to the pinned values."""
    pinned = json.loads((Path(__file__).parent / "golden" / "differential.json").read_text())["audit"]
    assert differential.run("audit", pinned["seeds"]) == {k: pinned[k] for k in ("answers", "bases")}


def _reference_verify(net, scheme, rates):
    """verify_routing_scheme with its loads summed as Fractions."""
    for i, per_session in enumerate(scheme.flows, start=1):
        for path, value in per_session.items():
            if value < 0:
                return CheckResult(False, ("negative", i, path))
    for i, r in enumerate(rates, start=1):
        if sum(scheme.flows[i - 1].values(), Fraction(0)) < r:
            return CheckResult(False, ("rate", i))
    loads = {}
    for per_session in scheme.flows:
        for path, value in per_session.items():
            for eid in path:
                loads[eid] = loads.get(eid, Fraction(0)) + Fraction(value)
    for eid in sorted(loads):
        if loads[eid] > 1:
            return CheckResult(False, ("capacity", eid))
    return CheckResult(True)


def test_integer_loads_match_a_fraction_sum(nets):
    rng = random.Random(25)
    cases = [
        (nets["single-edge"], RoutingScheme(({(0,): 1},)), [1]),
        (nets["single-edge"], RoutingScheme(({(0,): Fraction(1)},)), [0]),
        (nets["fig1a"], RoutingScheme((dict(), dict())), [0, 0]),
        # fig1a's paths 9-11-12 and 10-11-13 share edge 11: a load of
        # exactly 1 fits, 1 + 1/6 does not.
        (nets["fig1a"], RoutingScheme(({(9, 11, 12): Fraction(1, 3)}, {(10, 11, 13): Fraction(2, 3)})), [0, 0]),
        (nets["fig1a"], RoutingScheme(({(9, 11, 12): Fraction(1, 3)}, {(10, 11, 13): Fraction(5, 6)})), [0, 0]),
    ]
    for _ in range(300):
        net = random_network(rng, max_internal=5, max_sessions=3)
        flows = []
        for s, d in net.sessions:
            paths = require_paths(net, s, d)
            den = rng.randint(1, 6)
            flows.append({
                p: rng.choice([rng.randint(-1, 2), Fraction(rng.randint(-1, 2 * den), den)])
                for p in rng.sample(paths, rng.randint(0, len(paths)))
            })
        # A load of exactly 1, or 1 + 1/den, on the first edge of some path.
        if flows[0]:
            path = next(iter(flows[0]))
            den = rng.randint(1, 6)
            flows[0][path] = Fraction(rng.choice([den, den + 1]), den) - sum(
                v for fl in flows for p, v in fl.items() if path[0] in p and p is not path)
        scheme = RoutingScheme(tuple(flows))
        rates = [rng.choice([0, 0, max(scheme.rate(i), 0), 1]) for i in range(1, net.num_sessions + 1)]
        cases.append((net, scheme, rates))
    seen = set()
    assert verify_routing_scheme(*cases[3]).ok
    assert verify_routing_scheme(*cases[4]).violation == ("capacity", 11)
    for net, scheme, rates in cases:
        got = verify_routing_scheme(net, scheme, rates)
        assert got == _reference_verify(net, scheme, rates)
        seen.add(got.violation[0] if got.violation else "ok")
    assert seen == {"ok", "negative", "rate", "capacity"}


_rate_value = st.one_of(
    st.integers(0, 10**6),
    st.fractions(min_value=0, max_value=10**3),
    st.floats(min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False),
    st.sampled_from(["3/2", "0.25", "7", "0.1"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rate_value, max_size=4))
@example([0, 1, Fraction(3, 2), "3/2", "0.25", 0.1, 2.5])
def test_parse_rates_gives_the_fraction_of_each_string(values):
    rates = rateregion.parse_rates(values)
    assert rates == tuple(Fraction(str(v)) for v in values)
    assert all(type(r) is Fraction for r in rates)


def test_parse_rates_rejects_negative_rates_and_booleans():
    assert rateregion.parse_rates([0.1]) == (Fraction(1, 10),)
    for bad in ([1, -1], [Fraction(-1, 2)], ["-1/2"], [-0.25]):
        with pytest.raises(ValueError, match="nonnegative"):
            rateregion.parse_rates(bad)
    with pytest.raises(ValueError):
        rateregion.parse_rates([True])


def _dual_case(draw_int, draw_from):
    """(c, A, b, y, value) for a dense A of ints but for one Fraction
    column, b with Fraction entries, and y with zeros, Fractions and
    sometimes a negative entry.  Each c_j is y^T A_j, or 1/(2 den) above or
    below it, and value is y^T b or 1/den off it (den the lcm of y's
    denominators), so every check is tight or fails by the least margin."""
    m, n = draw_int(1, 5), draw_int(1, 5)
    frac = draw_int(0, n - 1)
    A = [[Fraction(draw_int(-6, 6), draw_int(1, 4)) if j == frac else draw_from([0, 0, 1, -1, 2])
          for j in range(n)] for _ in range(m)]
    b = [Fraction(draw_int(0, 9), draw_int(1, 4)) if draw_int(0, 1) else draw_int(0, 3) for _ in range(m)]
    y = [Fraction(draw_int(0, 9), draw_int(1, 6)) if draw_int(0, 2) else Fraction(0) for _ in range(m)]
    if not draw_int(0, 3):
        y[draw_int(0, m - 1)] = Fraction(-draw_int(1, 6), draw_int(1, 6))
    den = lcm(*[v.denominator for v in y])
    c = [sum(y[i] * A[i][j] for i in range(m)) + Fraction(draw_from([0, 0, 0, 1, -1]), 2 * den)
         for j in range(n)]
    value = sum(yi * bi for yi, bi in zip(y, b)) + Fraction(draw_from([0, 0, 0, 1, -1]), den)
    return c, A, b, y, value


def _reference_dual_check(c, A, b, y, value) -> bool:
    """Weak duality in plain Fraction sums."""
    return (all(v >= 0 for v in y)
            and all(sum(y[i] * A[i][j] for i in range(len(A))) >= c[j] for j in range(len(c)))
            and sum(yi * bi for yi, bi in zip(y, b)) == value)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dual_check_matches_fraction_reference(data):
    c, A, b, y, value = _dual_case(lambda lo, hi: data.draw(st.integers(lo, hi)),
                                   lambda values: data.draw(st.sampled_from(values)))
    got = rateregion._is_dual_certificate(c, b, columns(A, len(c)), y, value)
    assert got == _reference_dual_check(c, A, b, y, value)


def test_dual_check_cases_reach_both_outcomes():
    """Seeded `_dual_case`s agree with the reference, and each outcome and
    each way to fail occurs: a negative y, a column below c, y^T b off."""
    rng = random.Random(28)
    seen = set()
    for _ in range(400):
        c, A, b, y, value = _dual_case(rng.randint, rng.choice)
        got = rateregion._is_dual_certificate(c, b, columns(A, len(c)), y, value)
        assert got == _reference_dual_check(c, A, b, y, value)
        positive = all(v >= 0 for v in y)
        columns_ok = all(sum(y[i] * A[i][j] for i in range(len(A))) >= c[j] for j in range(len(c)))
        rhs_ok = sum(yi * bi for yi, bi in zip(y, b)) == value
        seen.add((got, positive, columns_ok, rhs_ok))
    assert {(True, True, True, True), (False, False, True, True),
            (False, True, False, True), (False, True, True, False)} <= seen
