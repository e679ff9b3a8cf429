"""The CLI calls whose stdout is pinned byte for byte in tests/golden/<name>.json.

Each case is (argv, name, exit code).  `test_cli.test_stdout_matches_golden_file`
runs them in process; run as a script, this module prints one line per case,

    <name> <exit code> <argv, shell-quoted>

so that a shell loop can run them through an installed `infodist`:

    python tests/golden_cases.py | while read -r name code args; do ...; done

Append a new case at the end: the test ids (argv0, argv1, ...) follow the
list's order.
"""

from __future__ import annotations

import shlex
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_INPUTS = GOLDEN / "inputs"

GOLDEN_CASES = [
    *((["check", net], f"check-{net}", 10 if net in ("fig5", "butterfly") else 0)
      for net in ("fig1a", "fig1b", "fig5", "butterfly", "single-edge", "parallel-m")),
    (["reduce-index", "fig3-index"], "reduce-index-fig3-index", 0),
    (["reduce-deadline", "fig4-deadline"], "reduce-deadline-fig4-deadline", 0),
    (["rate", "--direction", "1,1", "fig1a"], "rate-fig1a", 0),
    (["gen-code", "fig1a", "--rates", "1,1", "--field", "5", "--seed", "0", "--decodable"],
     "gen-code-fig1a", 0),
    (["audit", "fig1a", "--code", str(GOLDEN_INPUTS / "fig1a-code.json"),
      "--witness", str(GOLDEN_INPUTS / "fig1a-witness.json"),
      "--seed", "0", "--prop-samples", "200"], "audit-fig1a", 0),
    *((["reduce-deadline", str(GOLDEN_INPUTS / f"fig4-deadline-{variant}.json")],
       f"reduce-deadline-fig4-deadline-{variant}", 20 if variant == "injection2" else 0)
      for variant in ("memory2", "injection5", "injection2")),
    # perfbench's r42 shape, layered_dag(3, 4, 4, 3, 1, 2): 33 rows, 46 columns, 21 pivots.
    (["rate", str(GOLDEN_INPUTS / "layered-r42.json"), "--direction", "1,1,1"], "rate-layered-r42", 0),
    # The feasibility LP's vertex: fig1a's boundary lambda* = 3/2 with its scheme, r42's
    # lambda* = 5/3 (a 10-flow vertex of a 33-row LP), and butterfly's dual-checked "no".
    (["rate", "fig1a", "--rate", "3/2,3/2"], "rate-fig1a-boundary", 0),
    (["rate", str(GOLDEN_INPUTS / "layered-r42.json"), "--rate", "5/3,5/3,5/3"],
     "rate-layered-r42-feasible", 0),
    (["rate", "butterfly", "--rate", "1,1"], "rate-butterfly-infeasible", 0),
    # The first base cut, e2[0], has a shifted witness that fails cumulativity;
    # the search answers with the next one, e3[2].
    (["reduce-deadline", str(GOLDEN_INPUTS / "deadline-memoryless-shortcut.json")],
     "reduce-deadline-deadline-memoryless-shortcut", 0),
]

if __name__ == "__main__":
    for argv, name, exit_code in GOLDEN_CASES:
        print(name, exit_code, shlex.join(argv))
