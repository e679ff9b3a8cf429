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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from contextlib import contextmanager
from fractions import Fraction

from oracles import random_network

from infodist import rateregion, simplex

STEP = Fraction(1, 1000)


@contextmanager
def _pivot_counts():
    """A list that gets one `_pivot` call count per `simplex.solve` call."""
    counts: list[int] = []
    pivot, solve = simplex._pivot, simplex.solve

    def counting_pivot(*args):
        counts[-1] += 1
        return pivot(*args)

    def counting_solve(*args):
        counts.append(0)
        return solve(*args)

    simplex._pivot, simplex.solve = counting_pivot, counting_solve
    try:
        yield counts
    finally:
        simplex._pivot, simplex.solve = pivot, solve


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


FAMILIES = {"rate": _rate_answers}


def run(family: str, seeds: int) -> dict:
    """{"answers": sha256, "pivots": sha256} of `family` on seeds 0..seeds-1."""
    answers = []
    with _pivot_counts() as counts:
        for seed in range(seeds):
            answers.append(FAMILIES[family](seed))
    digest = {}
    for key, value in (("answers", answers), ("pivots", counts)):
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
