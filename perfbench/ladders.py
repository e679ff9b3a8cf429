"""Instance ladders: which instances each workload runs, and why each is there.

A *step* runs in the timed closed loop, once per round.  A *probe* runs once
per run, after the loop: the ladder's sizes past the timed steps, up to the
first sizes the seed cannot decide within the per-op limit (the over-steps),
so ``max_size_decided`` can rise step by step without a timeout landing in
the timed metrics.  Structure seeds are fixed
here; the run's ``--seed`` only renames nodes and reorders work (see
``gen.relabel``), so the answers in ``known_answers.json`` hold for every
seed.  Times quoted are single-op wall times at the seed commit on a 2-vCPU
x86-64 VM at 2.1 GHz.
"""

from __future__ import annotations

# Per-op wall-time limit (seconds) for in-process ops, and for one CLI call.
OP_LIMIT_S = 4.0
CLI_LIMIT_S = 30.0

# ---------------------------------------------------------------- search
# (id, K, width, depth, fanout, structure seed, why)
SEARCH_DAGS = [
    ("d21y", 2, 3, 3, 2, 0, "smallest yes, min-cut 2; brute-force oracle confirms"),
    ("d24n", 3, 3, 3, 2, 0, "smallest K=3 no; brute-force oracle confirms"),
    ("d29y", 2, 4, 3, 3, 1, "min-cut 3 yes at 29 edges"),
    ("d29n", 3, 4, 3, 2, 1, "K=3 no at 29 edges; every session order is exhausted"),
    ("d36y", 2, 4, 4, 3, 3, "min-cut 3 yes at 36 edges; also a code-audit instance"),
    ("d37n", 2, 4, 4, 3, 0, "no at 37 edges, 10k path assignments"),
    ("d40y", 2, 4, 4, 4, 0, "min-cut 4 yes: C(|E|,4) cut-set scan, ~0.6 s, heaviest step"),
    ("d45n", 2, 4, 5, 3, 0, "no at 45 edges: path backtracking (66k assignments) dominates"),
    ("d49y", 3, 5, 4, 3, 3, "K=3 yes at 49 edges; also a code-audit instance"),
    ("d49n", 3, 5, 4, 3, 2, "K=3 no at 49 edges: cumulativity pools plus backtracking"),
    ("d55y", 2, 5, 5, 3, 2, "largest decided step: min-cut 3 yes at 55 edges"),
]
# The heaviest step runs twice per round.  A search round takes over 2 s, so
# a run has only 8-12 rounds; with one copy, the tail percentile (ten ops
# above it) fell on the slowest copy of the next step in some runs and
# inside d40y in others.  Two copies keep it inside d40y from 6 rounds on.
SEARCH_TWICE = "d40y"
SEARCH_PROBES = [
    ("d63y", 2, 5, 6, 3, 0, "probe: min-cut 3 yes at 63 edges, ~0.5 s"),
    ("d68n", 3, 6, 5, 3, 0, "probe: K=3 no at 68 edges, ~0.45 s; the largest the seed decides"),
    ("d71n", 3, 5, 6, 3, 1, "over-step: K=3 no at 71 edges, path backtracking >15 s at the seed"),
    ("d78y", 2, 6, 6, 4, 0, "over-step: min-cut 4 yes at 78 edges, cut-set scan >12 s at the seed"),
]

# (id, tau, horizon, memory, why) -- fig4-deadline with growing parameters
DEADLINES = [
    ("t7h7m1", 7, 7, 1, "published deadline, short horizon: certificate found"),
    ("t7h14m1", 7, 14, 1, "the corpus instance: certificate found on 373 grid edges"),
    ("t7h14m2", 7, 14, 2, "memory 2: 499 grid edges, certificate found"),
    ("t8h16m1", 8, 16, 1, "tau 8: cut-set scan over 427 edges, no certificate (unknown)"),
    ("t9h9m1", 9, 9, 1, "tau 9: heaviest deadline step, ~0.3 s, unknown"),
]
DEADLINE_PROBE = ("t14h14m1", 14, 14, 1, "over-step: tau 14, >10 s of cut-set scan at the seed")

DEEP_CHAIN = ("chain1200", 1200, "1200-edge path: path enumeration recurses past the stack limit at the seed")

# ---------------------------------------------------------------- rate-lp
# (id, K, width, depth, fanout, outdeg, structure seed, direction, why)
RATE_DAGS = [
    ("r20", 2, 3, 3, 2, 2, 1, (1, 1), "smallest LP, 9 path columns"),
    ("r25", 2, 4, 3, 2, 2, 1, (2, 1), "8 paths, unequal direction"),
    ("r33", 2, 4, 4, 2, 2, 1, (1, 1), "18 paths, 33 edges"),
    ("r38", 3, 4, 4, 2, 2, 2, (1, 1, 1), "K=3, 18 paths"),
    ("r42", 3, 4, 4, 3, 2, 1, (1, 1, 1), "K=3, 45 paths: heaviest step"),
    ("r44", 2, 5, 4, 3, 2, 2, (1, 1), "largest decided step: 40 paths, 44 edges"),
]
RATE_PROBES = [
    ("r58", 2, 5, 4, 3, 3, 0, (1, 1), "probe: 96 paths, ~0.7 s"),
    ("r72", 3, 5, 5, 2, 3, 1, (1, 1, 1), "probe: 193 paths, ~1.2 s"),
    ("r84", 2, 5, 6, 2, 3, 0, (1, 1), "probe: 353 paths, ~0.85 s; the largest the seed decides"),
    ("r91", 3, 6, 5, 3, 3, 1, (1, 1, 1), "over-step: 359 paths, K=3, >13 s at the seed"),
]

# ---------------------------------------------------------------- code-audit
# Instances the code-audit chain runs on: corpus names or SEARCH_DAGS ids.
AUDIT_INSTANCES = ["fig1a", "fig1b", "d36y", "d49y"]
# 1000003 is a large prime whose products stay far inside int64, so random
# codes decode with near certainty and the numpy elimination is exact.
AUDIT_FIELDS = [2, 3, 5, 1000003]
# Known to fail at the seed (int64 overflow in the numpy arithmetic): 2^31-1
# overflows the audit's random-function products now and then; 4294967311 is
# above the elimination's safe bound and fails almost every audit.
AUDIT_PROBE_FIELDS = [2**31 - 1, 4294967311]

# ---------------------------------------------------------------- cli-corpus
# The README's documented invocations.  "{code}" and "{witness}" are files set-up
# writes.  The CLI's own --seed is fixed: gen-code's rejection sampling makes a
# seed-dependent number of attempts, so a varying seed would vary the work.
CLI_OPS = [
    ("check-fig1a", ["check", "corpus/fig1a.json"]),
    ("check-fig1b", ["check", "corpus/fig1b.json"]),
    ("check-fig5", ["check", "corpus/fig5.json"]),
    ("check-butterfly", ["check", "corpus/butterfly.json"]),
    ("rate-rate", ["rate", "corpus/butterfly.json", "--rate", "1,1"]),
    ("rate-direction", ["rate", "corpus/fig1a.json", "--direction", "1,1"]),
    ("reduce-index", ["reduce-index", "corpus/fig3-index.json"]),
    ("reduce-deadline", ["reduce-deadline", "corpus/fig4-deadline.json"]),
    ("gen-code", ["gen-code", "corpus/fig1a.json", "--rates", "1,1", "--field", "5",
                  "--seed", "0", "--decodable"]),
    ("audit", ["audit", "corpus/fig1a.json", "--code", "{code}", "--witness", "{witness}",
               "--seed", "0"]),
]
