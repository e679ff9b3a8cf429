"""Acceptance suite: one test per release criterion, exact tolerances.

Each test prints a single PASS line on success (run with -s or look at the
captured output).  Everything numeric is exact: integer ranks, Fraction LP
values, set equalities.  No tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from itertools import permutations

from conftest import FIG1B_CUTS, FIG1B_PATHS, FIG1B_PERMS
from oracles import brute_min_cut, dfs_acyclic, find_cumulative_order, vertex_enum_max

from infodist import corpus
from infodist.cli import main as cli_main
from infodist.codes import (
    audit,
    check_decodable,
    code_from_json,
    cond_mutual_info,
    edge_var,
    entropy,
    extract_routing,
    propagate,
    random_decodable_code,
    random_local_table,
    session_var,
)
from infodist.graph import min_cut, require_paths, routing_domain
from infodist.rateregion import check_rate_feasible, max_scaled_rate, verify_routing_scheme
from infodist.reductions import (
    DeadlineInstance,
    IndexCodingInstance,
    acyclic_reindex,
    check_c0_distributive,
    check_p_extendable,
    deadline_to_time_extended,
    decide_index_rawness,
    find_extendable_paths,
    index_to_network,
    shifted_witness,
    side_information_graph,
)
from infodist.witnesses import (
    decide_information_distributive,
    verify_witness,
    witness_from_json,
)

PASS = "ACCEPTANCE {}: PASS ({:.2f}s)"


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli_main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_01_fig1a_yes_within_1s(nets, tmp_path):
    t0 = time.monotonic()
    code, data = run_cli(tmp_path, "check", "fig1a")
    elapsed = time.monotonic() - t0
    assert code == 0
    wit = witness_from_json(data["result"]["witness"])
    assert verify_witness(nets["fig1a"], wit).ok
    assert elapsed < 1.0
    print(PASS.format(1, elapsed))


def test_criterion_02_fig1b_yes_within_5s(nets, tmp_path):
    t0 = time.monotonic()
    code, data = run_cli(tmp_path, "check", "fig1b")
    elapsed = time.monotonic() - t0
    assert code == 0
    wit = witness_from_json(data["result"]["witness"])
    assert verify_witness(nets["fig1b"], wit).ok
    # the printed (typo-reconstructed) cut-sets also certify
    from infodist.witnesses import Witness

    printed = Witness((1, 2, 3), FIG1B_CUTS, FIG1B_PERMS, FIG1B_PATHS)
    assert verify_witness(nets["fig1b"], printed).ok
    assert elapsed < 5.0
    print(PASS.format(2, elapsed))


def test_criterion_03_fig5_no_exhausted_within_60s(nets, tmp_path):
    t0 = time.monotonic()
    code, data = run_cli(tmp_path, "check", "fig5")
    elapsed = time.monotonic() - t0
    assert code == 10
    assert data["result"]["status"] == "no"
    assert data["result"]["search_stats"]["exhausted"] is True
    assert data["result"]["search_stats"]["orders_tried"] == 6
    assert elapsed < 60.0
    print(PASS.format(3, elapsed))


def test_criterion_04_index_rawness_triple_agreement(tmp_path):
    t0 = time.monotonic()
    code, data = run_cli(tmp_path, "reduce-index", "fig3-index")
    assert code == 0
    assert data["result"]["rawness"]["raw"] is True
    assert data["result"]["rawness"]["l_min"] == 4 * 1  # m = 1 in the corpus file

    rng = random.Random(20260809)
    disagreements = 0
    for _ in range(1000):
        K = rng.randint(1, 6)
        side = []
        for i in range(1, K + 1):
            others = [j for j in range(1, K + 1) if j != i]
            side.append(frozenset(j for j in others if rng.random() < rng.choice((0.2, 0.5, 0.8))))
        inst = IndexCodingInstance(K, 1, tuple(side))
        net, skeleton = index_to_network(inst)
        via_kahn = acyclic_reindex(side_information_graph(inst)).acyclic
        via_rawness = decide_index_rawness(inst).raw
        via_dfs = dfs_acyclic(side_information_graph(inst))
        via_cumulative = find_cumulative_order(net, list(skeleton.cuts)) is not None
        if not (via_kahn == via_rawness == via_dfs == via_cumulative):
            disagreements += 1
    assert disagreements == 0
    print(PASS.format(4, time.monotonic() - t0))


def test_criterion_05_non_raw_mutual_with_xor_exhibit():
    t0 = time.monotonic()
    inst = IndexCodingInstance(2, 1, (frozenset({2}), frozenset({1})))
    assert decide_index_rawness(inst).raw is False
    net, _ = index_to_network(inst)
    xor = {
        0: [("session", 1, 0, 1)],
        1: [("session", 2, 0, 1)],
        2: [("edge", 0, 1), ("edge", 1, 1)],
        3: [("edge", 2, 1)],
        4: [("edge", 2, 1)],
        5: [("session", 2, 0, 1)],
        6: [("session", 1, 0, 1)],
    }
    code = propagate(net, (1, 1), xor, 2)
    assert check_decodable(code) == (True, True)
    # a length-m code where raw broadcasting would need length m*K = 2m
    assert 1 < inst.m * inst.K
    print(PASS.format(5, time.monotonic() - t0))


def test_criterion_06_fig4_deadline_certificate_within_30s():
    t0 = time.monotonic()
    inst = DeadlineInstance.from_json(corpus.load("fig4-deadline"))
    assert inst.horizon == 2 * inst.tau
    tnet = deadline_to_time_extended(inst)
    c0 = frozenset(
        {
            tnet.label_to_id[("base", 7, 5)],  # e8[5]
            tnet.label_to_id[("base", 5, 2)],  # e6[2]
            tnet.label_to_id[("base", 7, 6)],  # e8[6]
        }
    )
    assert c0 <= routing_domain(tnet.net, 1)
    assert min_cut(tnet.net, "#s0", "#d0") == 3 == len(c0)
    from infodist.graph import has_path

    assert not has_path(tnet.net, "#s0", "#d0", removed=c0)
    ordering = check_c0_distributive(tnet, c0)
    assert ordering is not None
    paths = find_extendable_paths(tnet, c0)
    assert paths is not None and check_p_extendable(tnet, c0, paths).ok
    assert verify_witness(tnet.net, shifted_witness(tnet, ordering, paths)).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(PASS.format(6, elapsed))


def test_criterion_07_butterfly_separation(nets, tmp_path):
    t0 = time.monotonic()
    net = nets["butterfly"]
    assert check_rate_feasible(net, [1, 1]).feasible is False
    code = code_from_json(net, corpus.load("butterfly-xor-code"))
    assert code.rates == (1, 1)
    assert check_decodable(code) == (True, True)
    exit_code, data = run_cli(tmp_path, "check", "butterfly")
    assert exit_code == 10 and data["result"]["status"] == "no"
    assert data["result"]["search_stats"]["exhausted"] is True
    print(PASS.format(7, time.monotonic() - t0))


def _integer_feasible_vectors(net):
    caps = []
    for i in range(1, net.num_sessions + 1):
        s, d = net.sessions[i - 1]
        caps.append(min_cut(net, s, d))
    vectors = []
    from itertools import product as iproduct

    for vec in iproduct(*[range(c + 1) for c in caps]):
        if any(vec) and check_rate_feasible(net, list(vec)).feasible:
            vectors.append(vec)
    return vectors


def test_criterion_08_extraction_pipeline_200_codes(nets):
    t0 = time.monotonic()
    rng = random.Random(8)
    total = 0
    violations = 0
    for name in ("fig1a", "fig1b"):
        net = nets[name]
        verdict = decide_information_distributive(net)
        wit = verdict.witness
        rep = verdict.representative_map
        feasible = _integer_feasible_vectors(net)
        for q in (2, 3, 5):
            for _ in range(34):
                rates = list(rng.choice(feasible))
                got = random_decodable_code(net, rates, q, rng, attempts=50000)
                assert got is not None, (name, q, rates)
                code, _table = got
                scheme = extract_routing(code, wit)
                if not verify_routing_scheme(net, scheme, rates).ok:
                    violations += 1
                loads: dict[int, Fraction] = {}
                for fl in scheme.flows:
                    for path, value in fl.items():
                        for eid in path:
                            loads[eid] = loads.get(eid, Fraction(0)) + value
                for eid, load in loads.items():
                    cap = entropy(code, [edge_var(rep[eid])])
                    if not (load <= cap <= 1):
                        violations += 1
                total += 1
    assert total == 204 >= 200
    assert violations == 0
    print(PASS.format(8, time.monotonic() - t0))


def test_criterion_09_lemma_and_proposition_audits(nets):
    t0 = time.monotonic()
    rng = random.Random(99)
    nets_and_wits = []
    for name in ("fig1a", "fig1b"):
        net = nets[name]
        nets_and_wits.append((net, decide_information_distributive(net).witness))

    checked = 0
    for net, wit in nets_and_wits:
        for q in (2, 3, 5):
            for _ in range(10):
                rates = [rng.randint(0, 2) for _ in net.sessions]
                code = propagate(net, rates, random_local_table(net, rates, q, rng), q)
                report = audit(code, wit, seed=rng.randrange(2**30), prop_samples=6)
                assert report.ok, [e.to_json_dict() for e in report.entries if not e.ok]
                checked += len(report.entries)
    assert checked >= 1000

    # chain rule (the distribution identity) for EVERY permutation of edge sets
    net = nets["fig1a"]
    code = propagate(net, (2, 1), random_local_table(net, (2, 1), 3, rng), 3)
    for _ in range(8):
        edges = rng.sample(range(len(net.edges)), 4)
        for i in (1, 2):
            y = [session_var(i)]
            prior = [session_var(j) for j in range(1, i)]
            total = cond_mutual_info(code, y, [edge_var(e) for e in edges], prior)
            for order in permutations(edges):
                acc = sum(
                    cond_mutual_info(
                        code, y, [edge_var(e)],
                        prior + [edge_var(x) for x in order[:k]],
                    )
                    for k, e in enumerate(order)
                )
                assert acc == total
    print(PASS.format(9, time.monotonic() - t0))


def test_criterion_10_oracle_equivalence_small_corpus(nets):
    t0 = time.monotonic()
    small = [name for name in corpus.NETWORKS if len(nets[name].edges) <= 12]
    assert {"single-edge", "parallel-m", "butterfly"} <= set(small)
    for name in small:
        net = nets[name]
        for u in net.nodes:
            for v in net.nodes:
                if u == v or not net.out_edges[u]:
                    continue
                value, _sets = brute_min_cut(net, u, v)
                assert min_cut(net, u, v) == value
        # LP optimum vs vertex enumeration of the path-flow polytope
        direction = [1] * net.num_sessions
        got = max_scaled_rate(net, direction).lam
        session_paths = [require_paths(net, s, d) for s, d in net.sessions]
        nvars = sum(map(len, session_paths)) + 1
        offsets, col = [], 0
        for paths in session_paths:
            offsets.append(col)
            col += len(paths)
        A, b = [], []
        for i, paths in enumerate(session_paths):
            row = [Fraction(0)] * nvars
            row[-1] = Fraction(1)
            for k in range(len(paths)):
                row[offsets[i] + k] = Fraction(-1)
            A.append(row)
            b.append(Fraction(0))
        for eid in range(len(net.edges)):
            row = [Fraction(0)] * nvars
            hit = False
            for i, paths in enumerate(session_paths):
                for k, p in enumerate(paths):
                    if eid in p:
                        row[offsets[i] + k] = Fraction(1)
                        hit = True
            if hit:
                A.append(row)
                b.append(Fraction(1))
        c = [Fraction(0)] * nvars
        c[-1] = Fraction(1)
        assert vertex_enum_max(c, A, b) == got
    print(PASS.format(10, time.monotonic() - t0))


def test_criterion_03b_fig5_no_confirmed_by_unpruned_enumeration(nets):
    # independent confirmation of the exhaustiveness claim: the oracle
    # enumerates every (cuts, orderings, path-family) tuple with no pruning
    from oracles import brute_decide

    t0 = time.monotonic()
    assert brute_decide(nets["fig5"]) is False
    assert brute_decide(nets["butterfly"]) is False
    print(PASS.format("3b", time.monotonic() - t0))
