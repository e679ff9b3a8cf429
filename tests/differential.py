"""Differential run of seeded families through the public API.

For each family it prints one SHA-256 of the canonical JSON of the answers
and one of the counters, so that two checkouts can be compared answer by
answer without storing the answers:

    PYTHONPATH=src python tests/differential.py --family rate --seeds 1500

Run it in a checkout and in `git worktree add <dir> HEAD~1` (with that
tree's src/ on PYTHONPATH) and compare the printed lines.  Answers and
counters hash apart, so a change that moves only a counter shows as one.

Family "rate": per `oracles.random_network` seed, with a random nonzero
direction, `max_scaled_rate` (lambda*, scheme, dual), then
`check_rate_feasible` at lambda*, lambda* + 1/1000 and lambda* - 1/1000
times the direction (verdict and scheme; the last only when lambda* > 0).
The counter is the number of `simplex._pivot` calls of each LP.

Family "deadline": per seed, `reductions.search_deadline_certificate` on
the time-extended network of `oracles.random_deadline` (even seeds) or
`oracles.random_lane_deadline` (odd seeds), its printed verdict or None
(or the diagnostic when the deadline is below the fastest delay).
The counter is the number of `reductions._c0_ordering` calls of each search.

Family "search": per `oracles.random_network` seed,
`decide_information_distributive` with `strict_def5` False and then True:
the status, witness and representatives of each.  The counters are the
`search_stats` of each search, read from the verdicts themselves.

Family "sampler": seed s runs `codes.random_decodable_code` on corpus
network (fig1a, fig1b, butterfly)[s % 3] over GF((2, 3, 5)[s // 3 % 3]),
all rates 1, with `random.Random(s)`: the local table (or None) and the
rng's next `random()`, which pins the stream.  The counter is the number
of `codes._compose` calls (samples drawn) of each call.

Family "audit": per `oracles.random_network` seed, rates in 0..2 and
q = (2, 3, 5, 1000003, 2^61 - 1)[seed % 5], the code `codes.propagate`
makes of `codes.random_local_table`: `check_decodable`, ten
`cond_mutual_info` queries on random ref samples, and on networks whose
search says "yes", `extract_routing` and `audit(seed=seed)` of the witness.
The counter is the number of echelon bases the code memoizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import random_deadline, random_lane_deadline, random_network

from infodist import codes, corpus, rateregion, reductions, simplex
from infodist.errors import DeadlineTooSmall
from infodist.graph import validate_network
from infodist.witnesses import SearchBudget, decide_information_distributive

STEP = Fraction(1, 1000)


@contextmanager
def _calls_per(module, outer: str, inner: str):
    """A list that gets, per call of `module.outer`, the number of
    `module.inner` calls made until the next one."""
    counts: list[int] = []
    real_outer, real_inner = getattr(module, outer), getattr(module, inner)

    def counting_inner(*args, **kwargs):
        counts[-1] += 1
        return real_inner(*args, **kwargs)

    def counting_outer(*args, **kwargs):
        counts.append(0)
        return real_outer(*args, **kwargs)

    setattr(module, outer, counting_outer)
    setattr(module, inner, counting_inner)
    try:
        yield counts
    finally:
        setattr(module, outer, real_outer)
        setattr(module, inner, real_inner)


def _rate_answers(seed: int) -> dict:
    rng = random.Random(seed)
    net = random_network(rng, max_internal=6, max_sessions=3)
    direction = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in net.sessions]
    if not any(direction):
        direction[0] = Fraction(1)
    best = rateregion.max_scaled_rate(net, direction)
    checks = []
    for t in (best.lam, best.lam + STEP, best.lam - STEP):
        if t >= 0:
            res = rateregion.check_rate_feasible(net, [t * d for d in direction])
            checks.append({"feasible": res.feasible,
                           "scheme": res.scheme.to_json_dict() if res.scheme else None})
    return {"seed": seed, "direction": [str(d) for d in direction], "lambda": str(best.lam),
            "scheme": best.scheme.to_json_dict(), "dual": [str(v) for v in best.dual],
            "checks": checks}


def _deadline_answers(seed: int) -> dict:
    make = random_lane_deadline if seed % 2 else random_deadline
    try:
        tnet = reductions.deadline_to_time_extended(make(random.Random(seed)))
    except DeadlineTooSmall as exc:
        return {"seed": seed, "error": str(exc)}
    verdict = reductions.search_deadline_certificate(tnet)
    return {"seed": seed, "verdict": verdict.to_json_dict() if verdict else None}


def _search_answers(seed: int) -> tuple[dict, list]:
    net = random_network(random.Random(seed), max_internal=6, max_sessions=4)
    runs, stats = [], []
    for strict in (False, True):
        verdict = decide_information_distributive(net, SearchBudget(strict_def5=strict))
        runs.append({"status": verdict.status,
                     "witness": verdict.witness.to_json_dict() if verdict.witness else None,
                     "representatives": sorted(verdict.representative_map.items())})
        stats.append(verdict.stats.to_json_dict())
    return {"seed": seed, "runs": runs}, stats


_SAMPLER_NETS = [validate_network(corpus.load(name)) for name in ("fig1a", "fig1b", "butterfly")]


def _sampler_answers(seed: int) -> dict:
    net, q = _SAMPLER_NETS[seed % 3], (2, 3, 5)[seed // 3 % 3]
    rng = random.Random(seed)
    found = codes.random_decodable_code(net, [1] * net.num_sessions, q, rng, attempts=200)
    return {"seed": seed, "table": codes.locals_to_json(found[1]) if found else None,
            "next": rng.random()}


_AUDIT_FIELDS = (2, 3, 5, 1000003, 2**61 - 1)


def _audit_answers(seed: int) -> tuple[dict, int]:
    rng = random.Random(seed)
    net = random_network(rng, max_internal=6, max_sessions=3)
    rates, q = [rng.randint(0, 2) for _ in net.sessions], _AUDIT_FIELDS[seed % 5]
    code = codes.propagate(net, rates, codes.random_local_table(net, rates, q, rng), q)
    pool = [codes.edge_var(e) for e in range(len(net.edges))] + [
        codes.session_var(i) for i in range(1, net.num_sessions + 1)]

    def refs(least: int) -> list:
        return [rng.choice(pool) for _ in range(rng.randint(least, 3))]  # repeats allowed

    infos = [codes.cond_mutual_info(code, refs(1), refs(1), refs(0)) for _ in range(10)]
    out = {"seed": seed, "decodable": codes.check_decodable(code), "infos": infos}
    wit = decide_information_distributive(net).witness
    if wit is not None:
        out["scheme"] = codes.extract_routing(code, wit).to_json_dict()
        out["audit"] = codes.audit(code, wit, seed=seed).to_json_dict()
    return out, len(code._bases)


# family -> (answers of one seed, counter name, (module, outer, inner) of
# _calls_per, or None when the seed's function returns (answers, counters))
FAMILIES = {
    "rate": (_rate_answers, "pivots", (simplex, "solve", "_pivot")),
    "deadline": (_deadline_answers, "c0_orderings",
                 (reductions, "search_deadline_certificate", "_c0_ordering")),
    "search": (_search_answers, "search_stats", None),
    "sampler": (_sampler_answers, "samples", (codes, "random_decodable_code", "_compose")),
    "audit": (_audit_answers, "bases", None),
}


def run(family: str, seeds: int) -> dict:
    """{"answers": sha256, <counter>: sha256} of `family` on seeds 0..seeds-1."""
    answer, counter, counted = FAMILIES[family]
    if counted is None:
        pairs = [answer(seed) for seed in range(seeds)]
        answers, counts = [a for a, _ in pairs], [c for _, c in pairs]
    else:
        with _calls_per(*counted) as counts:
            answers = [answer(seed) for seed in range(seeds)]
    digest = {}
    for key, value in (("answers", answers), (counter, counts)):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
        digest[key] = hashlib.sha256(text.encode()).hexdigest()
    return digest


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--family", choices=sorted(FAMILIES), required=True)
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps({"family": args.family, "seeds": args.seeds, **run(args.family, args.seeds)}))


if __name__ == "__main__":
    main()
