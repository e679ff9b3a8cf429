"""One set-up from a fresh interpreter, timed from outside by run.py.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

Reads the pre-generated inputs from WORKDIR/inputs.json (instance generation
is not part of set-up), imports what the workload calls and makes its
one-time library calls, then exits.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

if __name__ == "__main__":
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    workloads.setup(workload, inputs, workdir)
