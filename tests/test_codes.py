import random
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodist import corpus
from infodist import codes
from infodist.codes import (
    audit,
    check_decodable,
    code_from_json,
    cond_entropy,
    cond_mutual_info,
    edge_var,
    entropy,
    extract_routing,
    locals_from_json,
    locals_to_json,
    propagate,
    random_decodable_code,
    random_local_table,
    session_var,
)
from infodist.errors import FieldTooSmall, MissingEncoder, WitnessInvalid
from infodist.graph import Network
from infodist.rateregion import verify_routing_scheme
from infodist.witnesses import Witness, decide_information_distributive
from infodist import gfmatrix
from oracles import gf_rank, random_network


def chain_network():
    return Network(["s", "x", "d"], [("s", "x", 0), ("x", "d", 0)], [("s", "d")])


def butterfly_code(nets):
    return code_from_json(nets["butterfly"], corpus.load("butterfly-xor-code"))


def test_propagate_identity_chain():
    net = chain_network()
    table = {0: [("session", 1, 0, 1)], 1: [("edge", 0, 1)]}
    code = propagate(net, (1,), table, 2)
    assert code.rows[0] == code.rows[1]
    assert check_decodable(code) == (True,)


def test_propagate_butterfly_xor_bottleneck(nets):
    code = butterfly_code(nets)
    assert code.rows[4] == (1, 1)
    assert check_decodable(code) == (True, True)


def test_propagate_zero_locals(nets):
    net = nets["fig1a"]
    code = propagate(net, (1, 1), {e: [] for e in range(len(net.edges))}, 3)
    assert not any(any(row) for row in code.rows)
    assert check_decodable(code) == (False, False)


def test_propagate_missing_encoder(nets):
    with pytest.raises(MissingEncoder):
        propagate(nets["single-edge"], (1,), {}, 2)


def test_propagate_rejects_foreign_session():
    net = chain_network()
    with pytest.raises(ValueError):
        propagate(net, (1,), {0: [("session", 1, 0, 1)], 1: [("session", 1, 0, 1)]}, 2)


def test_propagate_rejects_non_in_edge(nets):
    net = nets["butterfly"]
    table = {e: [] for e in range(len(net.edges))}
    table[5] = [("edge", 0, 1)]  # (v,d1) referencing (s1,a1)
    with pytest.raises(ValueError):
        propagate(net, (1, 1), table, 2)


def test_propagate_rejects_unknown_term_kind():
    with pytest.raises(ValueError, match="unknown local term"):
        propagate(chain_network(), (1,), {0: [("node", "s", 1)], 1: []}, 2)


def test_entropy_rejects_unknown_ref_kind():
    code = propagate(chain_network(), (1,), {0: [("session", 1, 0, 1)], 1: [("edge", 0, 1)]}, 2)
    with pytest.raises(ValueError, match="unknown variable kind 'node'"):
        entropy(code, [("node", 0)])


# Refs that name no variable of fig1a's code (dim 2, 14 edges, 2 sessions).
# Each once read another variable's rows, a truncated row or past the end,
# or raised an error that did not name the ref.
BAD_REFS = {
    "session-0": ("session", 0),
    "session-minus-1": ("session", -1),
    "session-3": ("session", 3),
    "edge-minus-1": ("edge", -1),
    "edge-True": ("edge", True),
    "edge-99": ("edge", 99),
    "rows-too-long": ("rows", ((0, 0, 1),)),
    "rows-one-too-short": ("rows", ((1, 0), (1,))),
    "rows-a-list-row": ("rows", ([1, 0],)),
    "rows-a-list-of-rows": ("rows", [(1, 0)]),
    "rows-in-a-list": ["rows", ((1, 0),)],
    "edge-float": ("edge", 1.0),
    "not-a-pair": ("edge",),
}


@pytest.mark.parametrize("ref", BAD_REFS.values(), ids=BAD_REFS.keys())
def test_refs_that_name_no_variable_raise_value_error(nets, ref):
    net = nets["fig1a"]
    code = propagate(net, (1, 1), random_local_table(net, (1, 1), 5, random.Random(0)), 5)
    good = [session_var(2)]
    for measure in (lambda: entropy(code, [ref]), lambda: cond_entropy(code, good, [ref]),
                    lambda: cond_entropy(code, [ref], good),
                    lambda: cond_mutual_info(code, good, [edge_var(0)], [ref])):
        with pytest.raises(ValueError, match=re.escape(repr(ref))):
            measure()


def test_source_edges_touch_only_their_session_block(nets):
    rng = random.Random(2)
    net = nets["fig1a"]
    code = propagate(net, (2, 1), random_local_table(net, (2, 1), 5, rng), 5)
    for eid, e in enumerate(net.edges):
        if e.tail == "s1":
            assert not any(code.rows[eid][2:])
        if e.tail == "s2":
            assert not any(code.rows[eid][:2])


def test_cond_mutual_info_examples(nets):
    code = butterfly_code(nets)
    assert cond_mutual_info(code, [session_var(1)], [session_var(2)]) == 0
    assert cond_mutual_info(code, [session_var(1)], [edge_var(4)]) == 0
    assert cond_mutual_info(code, [session_var(1)], [edge_var(4)], [session_var(2)]) == 1
    assert entropy(code, [edge_var(4)]) == 1
    assert entropy(code, [session_var(1), session_var(2)]) == 2


def test_rank_info_symmetry_and_nonnegativity(nets):
    rng = random.Random(9)
    net = nets["fig1a"]
    code = propagate(net, (2, 2), random_local_table(net, (2, 2), 3, rng), 3)
    pool = [edge_var(e) for e in range(len(net.edges))] + [session_var(1), session_var(2)]
    for _ in range(200):
        a = rng.sample(pool, rng.randint(1, 3))
        b = rng.sample(pool, rng.randint(1, 3))
        c = rng.sample(pool, rng.randint(0, 3))
        lhs = cond_mutual_info(code, a, b, c)
        assert lhs >= 0
        assert lhs == cond_mutual_info(code, b, a, c)


def test_chain_rule_holds_for_every_permutation(nets):
    rng = random.Random(31)
    net = nets["fig1a"]
    code = propagate(net, (2, 1), random_local_table(net, (2, 1), 2, rng), 2)
    edges = rng.sample(range(len(net.edges)), 4)
    y = [session_var(1)]
    total = cond_mutual_info(code, y, [edge_var(e) for e in edges])
    for order in permutations(edges):
        acc = 0
        for k, e in enumerate(order):
            acc += cond_mutual_info(
                code, y, [edge_var(e)], [edge_var(x) for x in order[:k]]
            )
        assert acc == total


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_submodularity_random_queries(nets, data):
    rng = random.Random(77)
    net = nets["butterfly"]
    code = propagate(net, (1, 1), random_local_table(net, (1, 1), 2, rng), 2)
    pool = [edge_var(e) for e in range(len(net.edges))] + [session_var(1), session_var(2)]
    a = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    b = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    c = data.draw(st.lists(st.sampled_from(pool), max_size=3))
    assert cond_mutual_info(code, a, b, c) >= 0


def test_check_decodable_examples(nets):
    assert check_decodable(butterfly_code(nets)) == (True, True)
    net = chain_network()
    zero = propagate(net, (1,), {0: [], 1: []}, 2)
    assert check_decodable(zero) == (False,)


def test_extract_routing_single_session_matches_shares():
    # three parallel edges, identity forwarding at rate 2 over GF(3)
    net = Network(["s", "d"], [("s", "d", 0), ("s", "d", 1), ("s", "d", 2)], [("s", "d")])
    table = {
        0: [("session", 1, 0, 1)],
        1: [("session", 1, 1, 1)],
        2: [("session", 1, 0, 1), ("session", 1, 1, 1)],
    }
    code = propagate(net, (2,), table, 3)
    cut = frozenset({0, 1, 2})
    wit = Witness((1,), (cut,), ((0, 1, 2),), (((0,), (1,), (2,)),))
    scheme = extract_routing(code, wit)
    # shares: I(Y;U_0)=1, I(Y;U_1|U_0)=1, I(Y;U_2|U_0,U_1)=0
    assert scheme.flows[0] == {(0,): Fraction(1), (1,): Fraction(1)}
    for j, eid in enumerate((0, 1, 2)):
        expected = cond_mutual_info(
            code, [session_var(1)], [edge_var(eid)], [edge_var(x) for x in (0, 1, 2)[:j]]
        )
        assert scheme.flows[0].get((eid,), Fraction(0)) == expected


def test_extract_routing_zero_code(nets):
    net = nets["fig1a"]
    wit = decide_information_distributive(net).witness
    zero = propagate(net, (1, 1), {e: [] for e in range(len(net.edges))}, 2)
    scheme = extract_routing(zero, wit)
    assert all(not fl for fl in scheme.flows)


def test_extract_routing_rejects_bad_witness(nets):
    net = nets["fig1a"]
    wit = Witness((1, 2), (frozenset({0}), frozenset({4})), ((0,), (4,)), (((0, 1, 2),), ((4, 5, 6, 8),)))
    code = propagate(net, (1, 1), {e: [] for e in range(len(net.edges))}, 2)
    with pytest.raises(WitnessInvalid):
        extract_routing(code, wit)


@pytest.mark.parametrize("consumer", [extract_routing, audit])
def test_missing_path_set_is_an_invalid_witness(nets, consumer):
    net = nets["fig1a"]
    wit = decide_information_distributive(net).witness
    code = propagate(net, (1, 1), {e: [] for e in range(len(net.edges))}, 2)
    short = Witness(wit.session_order, wit.cuts, wit.perms, wit.paths[:1])
    with pytest.raises(WitnessInvalid, match="one path set per session required"):
        consumer(code, short)


def test_extract_routing_end_to_end_fig1a(nets):
    net = nets["fig1a"]
    wit = decide_information_distributive(net).witness
    rng = random.Random(12)
    code, _ = random_decodable_code(net, (1, 1), 2, rng)
    scheme = extract_routing(code, wit)
    assert verify_routing_scheme(net, scheme, [1, 1]).ok


def test_audit_all_pass_on_random_codes(nets):
    net = nets["fig1a"]
    verdict = decide_information_distributive(net)
    rng = random.Random(4)
    for q in (2, 3, 5):
        got = random_decodable_code(net, (2, 1), q, rng)
        assert got is not None
        code, _ = got
        report = audit(code, verdict.witness, seed=rng.randrange(2**30))
        assert report.ok, [e.to_json_dict() for e in report.entries if not e.ok]


def test_audit_zero_code_all_zero(nets):
    net = nets["fig1a"]
    wit = decide_information_distributive(net).witness
    zero = propagate(net, (1, 1), {e: [] for e in range(len(net.edges))}, 2)
    report = audit(zero, wit, seed=0, prop_samples=5)
    assert report.ok
    for entry in report.entries:
        if entry.check.startswith(("eq18", "eq19", "eq22")):
            assert entry.lhs == 0


def test_locals_json_roundtrip(nets):
    rng = random.Random(5)
    net = nets["butterfly"]
    table = random_local_table(net, (1, 1), 5, rng)
    back = locals_from_json(locals_to_json(table))
    c1 = propagate(net, (1, 1), table, 5)
    c2 = propagate(net, (1, 1), back, 5)
    assert c1.rows == c2.rows


def test_gfmatrix_rank_basics():
    m = [[1, 2], [2, 4], [0, 1]]
    assert gfmatrix.rank(m, 5) == 2
    assert gfmatrix.rank(m, 2) == 2  # mod 2: rows (1,0),(0,0),(0,1)
    assert gfmatrix.rank([], 3) == 0
    # (1, 0) lies in the GF(2) row space of (1, 1), (0, 1): stacking it keeps the rank
    assert gfmatrix.rank([[1, 1], [0, 1], [1, 0]], 2) == gfmatrix.rank([[1, 1], [0, 1]], 2)


RANK_PRIMES = [2, 3, 1000003, 2**31 - 1, 4294967311, 2**61 - 1]


def _matmul(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


@pytest.mark.parametrize("p", RANK_PRIMES)
@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    r=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_gfmatrix_rank_of_ldu_product(p, n, m, r, seed):
    # M = L*D*U with L, U unit triangular and D carrying exactly r nonzero
    # diagonal entries, so rank(M) = r by construction.  Entries are uniform
    # in GF(p), so at large p the products leave the 64-bit range.
    r = min(r, n, m)
    rng = random.Random(seed)
    support = set(rng.sample(range(min(n, m)), r))
    L = [[1 if i == j else rng.randrange(p) if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[1 if i == j else rng.randrange(p) if j > i else 0 for j in range(m)] for i in range(m)]
    D = [[rng.randrange(1, p) if i == j and i in support else 0 for j in range(m)] for i in range(n)]
    M = _matmul(_matmul(L, D, p), U, p)
    assert gfmatrix.rank(M, p) == r


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_exact_below_2_64():
    assert [n for n in range(2000) if gfmatrix.is_prime(n)] == [
        n for n in range(2000) if _trial_division(n)
    ]
    primes = [
        65537,
        2**31 - 1,
        4294967291,  # largest prime below 2^32
        4294967311,  # smallest prime above 2^32
        1000000000039,
        2**61 - 1,
        18446744073709551557,  # largest prime below 2^64
    ]
    composites = [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        4294967297,  # 2^32 + 1 = 641 * 6700417
        (2**31 - 1) ** 2,
        2**59 - 1,
        4294967311 * 1000003,
        3825123056546413051,  # strong pseudoprime to the first 9 prime bases
        2**64 - 1,
    ]
    assert all(gfmatrix.is_prime(n) for n in primes)
    assert not any(gfmatrix.is_prime(n) for n in composites)
    for n in (2**64, 2**89 - 1):
        with pytest.raises(ValueError):
            gfmatrix.is_prime(n)


def test_random_local_table_field_too_small(nets):
    from infodist.errors import FieldTooSmall

    with pytest.raises(FieldTooSmall):
        random_local_table(nets["single-edge"], (1,), 1, random.Random(0))
    with pytest.raises(ValueError):
        random_local_table(nets["single-edge"], (1,), 4, random.Random(0))
    with pytest.raises(ValueError):
        propagate(nets["single-edge"], (1,), {0: []}, 6)


def test_decodable_session_rate_recovered_at_sink(nets):
    # with zero decoding error the sink information equals the source rate
    net = nets["fig1a"]
    rng = random.Random(21)
    code, _ = random_decodable_code(net, (2, 1), 3, rng)
    assert (
        cond_mutual_info(
            code,
            [session_var(1)],
            [edge_var(e) for e in net.in_edges[net.sink(1)]],
        )
        == 2
    )
    assert (
        cond_mutual_info(
            code,
            [session_var(2)],
            [edge_var(e) for e in net.in_edges[net.sink(2)]],
            [session_var(1)],
        )
        == 1
    )


def _reference_entropy(code, refs, extra=()):
    mat = []
    for kind, idx in refs:
        if kind == "edge":
            mat.append(code.rows[idx])
        elif kind == "session":
            start = sum(code.rates[: idx - 1])
            mat += [[int(k == j) for j in range(code.dim)]
                    for k in range(start, start + code.rates[idx - 1])]
        else:
            mat += idx
    return gf_rank(mat + list(extra), code.q)


def _rows_ref(rows):
    """The ("rows", ...) ref to a function of variables given by its rows;
    none for no rows."""
    return [("rows", tuple(rows))] if rows else []


@pytest.mark.parametrize("q", [2, 3, 1000003, 2**61 - 1])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_memoized_entropy_matches_reference_rank(q, seed):
    rng = random.Random(seed)
    net = random_network(rng)
    rates = [rng.randint(0, 2) for _ in net.sessions]
    table = random_local_table(net, rates, q, rng)
    code = propagate(net, rates, table, q)
    pool = [edge_var(e) for e in range(len(net.edges))] + [
        session_var(i) for i in range(1, net.num_sessions + 1)
    ]

    def refs():
        return [rng.choice(pool) for _ in range(rng.randint(0, 4))]  # repeats allowed

    queries = [
        (refs(), [tuple(rng.randrange(q) for _ in range(code.dim))
                  for _ in range(rng.randint(0, 2))])
        for _ in range(10)
    ]
    for a, extra in queries + queries[::-1]:  # every query is asked again
        want = _reference_entropy(code, a, extra)
        f = _rows_ref(extra)
        assert entropy(code, a + f) == want
        assert entropy(code, (r for r in a + f)) == want
        assert entropy(code, (a + f) * 2) == want
    for _ in range(10):
        a, b, c = refs(), refs(), refs()
        want = (_reference_entropy(code, a + c) + _reference_entropy(code, b + c)
                - _reference_entropy(code, a + b + c) - _reference_entropy(code, c))
        assert cond_mutual_info(code, a, b, c) == want
        assert cond_mutual_info(code, iter(a), iter(b), iter(c)) == want
    sink_inputs = [[edge_var(e) for e in net.in_edges[d]] for _, d in net.sessions]
    assert check_decodable(code) == tuple(
        _reference_entropy(code, ins) == _reference_entropy(code, ins + [session_var(i)])
        for i, ins in enumerate(sink_inputs, start=1)
    )
    # the zero code on the same network starts with no answers and gets its own
    other = propagate(net, rates, {e: [] for e in range(len(net.edges))}, q)
    assert not other._bases
    for a, extra in queries:
        assert entropy(other, a + _rows_ref(extra)) == _reference_entropy(other, a, extra)
    assert code._bases is not other._bases
    # Each set's basis is reached by growing another set's basis (the
    # conditional measures first) or built from scratch (entropy first);
    # both routes give every rank, in either order of a and b.
    for _ in range(10):
        fn = _rows_ref([tuple(rng.randrange(q) for _ in range(code.dim))] * rng.randint(0, 1))
        a, b, c = refs() + fn, refs(), refs() + fn[: rng.randint(0, 1)]
        sets = [a + c, b + c, a + b + c, c]
        want = [_reference_entropy(code, x) for x in sets]
        for scratch_first in (False, True):
            fresh = propagate(net, rates, table, q)
            if scratch_first:
                assert [entropy(fresh, x) for x in sets] == want
            assert cond_mutual_info(fresh, a, b, c) == want[0] + want[1] - want[2] - want[3]
            assert cond_mutual_info(fresh, b, a, c) == want[0] + want[1] - want[2] - want[3]
            assert cond_entropy(fresh, a, c) == want[0] - want[3]
            assert [entropy(fresh, x) for x in sets] == want


@pytest.mark.parametrize("q", [2, 3, 1000003, 2**61 - 1])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rows_refs_are_reduced_on_entry(q, data):
    """("rows", ...) refs with entries below 0 and at or above q, asked next
    to their reductions, repeats and edge rows they equal mod q, rank as the
    reference ranks their unreduced rows."""
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    net = random_network(rng)
    rates = [rng.randint(0, 2) for _ in net.sessions]
    code = propagate(net, rates, random_local_table(net, rates, q, rng), q)
    shift = st.integers(-2, 2).map(lambda k: k * q)

    def unreduced(row):
        return tuple(v + data.draw(shift) for v in row)

    entry = st.integers(-2 * q, 2 * q) | st.sampled_from([-q, -1, q - 1, q, q + 1])
    drawn = data.draw(st.lists(st.tuples(*[entry] * code.dim), min_size=1, max_size=3))
    pool = [edge_var(e) for e in range(len(net.edges))] + [
        session_var(i) for i in range(1, net.num_sessions + 1)]
    for row in drawn:
        pool += [("rows", (row,)), ("rows", (tuple(v % q for v in row),)),
                 ("rows", (row, unreduced(row), row))]
    for e in data.draw(st.lists(st.integers(0, len(net.edges) - 1), max_size=3)):
        pool.append(("rows", (unreduced(code.rows[e]),)))
    pool.append(("rows", (unreduced((0,) * code.dim),)))  # zero mod q
    refs = st.lists(st.sampled_from(pool), max_size=4)
    for _ in range(10):
        a, b, c = data.draw(refs), data.draw(refs), data.draw(refs)
        want = [_reference_entropy(code, x) for x in (a + c, b + c, a + b + c, c)]
        assert entropy(code, a + c) == want[0]
        assert cond_entropy(code, b, c) == want[1] - want[3]
        assert cond_mutual_info(code, a, b, c) == want[0] + want[1] - want[2] - want[3]


ECHELON_PRIMES = [2, 3, 1000003, 2**61 - 1]


def _combination(rows, coeffs):
    """sum(c * row), unreduced."""
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


@pytest.mark.parametrize("p", ECHELON_PRIMES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_echelon_grows_to_the_rank_of_the_stacked_rows(p, data):
    width = data.draw(st.integers(0, 4))
    # Entries below 0 and at or above p, and the edge values around them.
    entry = st.integers(-2 * p, 2 * p) | st.sampled_from([-1, 0, 1, p - 1, p, p + 1])
    rows = st.lists(st.lists(entry, min_size=width, max_size=width), max_size=5)
    A = data.draw(rows)
    B = data.draw(rows)
    if A and width and data.draw(st.booleans()):
        # rows of A's row space, so that B often adds no pivot
        B += [_combination(A, data.draw(st.lists(entry, min_size=len(A), max_size=len(A))))
              for _ in range(data.draw(st.integers(1, 3)))]
    basis = gfmatrix.echelon(A, p)
    grown = gfmatrix.echelon(B, p, basis)
    assert len(basis) == gf_rank(A, p)
    assert len(grown) == gf_rank(A + B, p)
    assert gfmatrix.rank(A + B, p) == gf_rank(A + B, p)
    if len(grown) == len(basis):
        assert grown is basis
    assert grown[: len(basis)] == basis
    for k, (c, row) in enumerate(grown):
        assert row[c] == 1 and all(0 <= v < p for v in row)
        assert all(row[earlier] == 0 for earlier, _ in grown[:k])


@pytest.mark.parametrize("p", ECHELON_PRIMES)
def test_echelon_returns_the_same_basis_when_no_pivot_is_added(p):
    rng = random.Random(p)
    for _ in range(50):
        width = rng.randint(1, 4)
        A = [[rng.randrange(-p, 2 * p) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        basis = gfmatrix.echelon(A, p)
        B = [_combination(A, [rng.randrange(-p, 2 * p) for _ in A]) for _ in range(3)]
        assert gfmatrix.echelon(B, p, basis) is basis
        assert gfmatrix.echelon([], p, basis) is basis
        assert gfmatrix.echelon([[p * 3] * width, [0] * width], p, basis) is basis
    full = gfmatrix.echelon([[1, 0], [0, 1]], p)
    assert gfmatrix.echelon([[5, 7], [1, 1]], p, full) is full


def _scratch_cond_entropy(code, a, given=()):
    a, given = list(a), list(given)
    return _reference_entropy(code, a + given) - _reference_entropy(code, given)


def _scratch_cond_mutual_info(code, a, b, given=()):
    a, b, given = list(a), list(b), list(given)
    return (_reference_entropy(code, a + given) + _reference_entropy(code, b + given)
            - _reference_entropy(code, a + b + given) - _reference_entropy(code, given))


def _answers(code, wit):
    out = [check_decodable(code)]
    if wit is not None:
        out += [extract_routing(code, wit), audit(code, wit, seed=7).entries]
    return out


def _measured_codes(nets):
    """(code, witness or None) on fig1a, fig1b, fig5 and 20 random networks,
    random codes with random rates, for q in 2, 3, 5."""
    rng = random.Random(41)
    named = [nets[name] for name in ("fig1a", "fig1b", "fig5")]
    random_nets = [random_network(rng) for _ in range(20)]
    for net in named + random_nets:
        wit = decide_information_distributive(net).witness
        for q in (2, 3, 5):
            rates = [rng.randint(0, 2) for _ in net.sessions]
            yield propagate(net, rates, random_local_table(net, rates, q, rng), q), wit


def test_memoized_measures_equal_ranks_from_scratch(nets, monkeypatch):
    measured = [(code, wit, _answers(code, wit)) for code, wit in _measured_codes(nets)]
    assert sum(wit is not None for _, wit, _ in measured) >= 20
    monkeypatch.setattr(codes, "entropy", _reference_entropy)
    monkeypatch.setattr(codes, "cond_entropy", _scratch_cond_entropy)
    monkeypatch.setattr(codes, "cond_mutual_info", _scratch_cond_mutual_info)
    for code, wit, want in measured:
        fresh = codes.LinearCode(code.net, code.q, code.rates, code.rows)
        assert _answers(fresh, wit) == want
        assert not fresh._bases  # every measure above ranked from scratch


def _reference_table(net, rates, q, rng):
    """The table sampler before the draw plan: q checked, then the rates,
    then one coefficient per source symbol or in-edge, edges in id order."""
    if q < 2:
        raise FieldTooSmall(f"field size {q} < 2")
    if not gfmatrix.is_prime(q):
        raise ValueError(f"field size {q} is not prime")
    rates = tuple(int(r) for r in rates)
    if len(rates) != net.num_sessions or any(r < 0 for r in rates):
        raise ValueError("one nonnegative rate per session required")
    table = {}
    for eid, e in enumerate(net.edges):
        tail_sessions = [i for i, (s, _) in enumerate(net.sessions, start=1) if s == e.tail]
        if tail_sessions:
            table[eid] = [("session", i, sym, rng.randrange(q))
                          for i in tail_sessions for sym in range(rates[i - 1])]
        else:
            table[eid] = [("edge", ref, rng.randrange(q)) for ref in net.in_edges[e.tail]]
    return table


def _reference_sampler(net, rates, q, rng, attempts=2000):
    """The sampler that draws a whole table, propagates it with every check,
    and ranks every session of every sample."""
    for _ in range(attempts):
        table = _reference_table(net, rates, q, rng)
        code = propagate(net, rates, table, q)
        if all(check_decodable(code)):
            return code, table
    return None


def _assert_samplers_agree(net, rates, q, seed, attempts):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = random_decodable_code(net, rates, q, got_rng, attempts)
    want = _reference_sampler(net, rates, q, want_rng, attempts)
    assert got_rng.getstate() == want_rng.getstate()
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1] == want[1]
        assert got[0].rows == want[0].rows
        assert got[0].rates == want[0].rates


@pytest.mark.parametrize("q", [2, 3, 5, 1000003])
def test_random_decodable_code_matches_full_check_sampler(nets, q):
    cases = [(nets["fig1a"], (1, 1)), (nets["fig1b"], (1, 1, 1)), (nets["butterfly"], (1, 1)),
             (nets["fig1a"], (2, 1)), (nets["fig1b"], (2, 1, 1)), (nets["butterfly"], (1, 2))]
    for seed in range(100):
        net, rates = cases[seed % len(cases)]
        # Some draws run out of attempts.  Rates above 1 get 100: at
        # q = 1000003 they seldom decode here, and butterfly's (1, 2) never does.
        attempts = 3 if seed // len(cases) % 2 else 2000 if max(rates) == 1 else 100
        _assert_samplers_agree(net, rates, q, seed, attempts)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 5, 1000003]), st.integers(1, 4))
def test_random_decodable_code_matches_full_check_sampler_on_random_networks(seed, q, attempts):
    rng = random.Random(seed)
    net = random_network(rng, max_internal=5, max_sessions=3, edge_prob=0.5)
    rates = [rng.randint(0, 2) for _ in net.sessions]
    _assert_samplers_agree(net, rates, q, seed, attempts)


def test_random_local_table_matches_the_reference_draws(nets):
    for seed, (name, rates, q) in enumerate([("fig1a", (1, 1), 2), ("fig1b", (2, 1, 1), 5),
                                              ("butterfly", (1, 2), 1000003)]):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        assert (random_local_table(nets[name], rates, q, got_rng)
                == _reference_table(nets[name], rates, q, want_rng))
        assert got_rng.getstate() == want_rng.getstate()


@pytest.mark.parametrize("q, rates, error, message", [
    (1, (1,), FieldTooSmall, "field size 1 < 2"),  # before the rates
    (0, (1, 1), FieldTooSmall, "field size 0 < 2"),
    (4, (1,), ValueError, "field size 4 is not prime"),  # before the rates
    (5, (1,), ValueError, "one nonnegative rate per session required"),
    (5, (1, -1), ValueError, "one nonnegative rate per session required"),
])
@pytest.mark.parametrize("attempts", [1, 2000])
def test_random_decodable_code_checks_the_field_then_the_rates(nets, q, rates, error, message,
                                                                attempts):
    for sampler in (random_decodable_code, _reference_sampler):
        with pytest.raises(error) as exc:
            sampler(nets["fig1a"], rates, q, random.Random(0), attempts)
        assert str(exc.value) == message
