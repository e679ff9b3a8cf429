"""Run one infodist CLI call with the benchmark's tracing wrappers installed.

    python3 perfbench/cli_traced.py OUT.json OP_ID <infodist arguments...>

Used by the traced cli-corpus run in place of ``python -m infodist.cli``: the
exit code and stdout are the CLI's own, and the per-function stats, counters
and spans of the call are written to OUT.json for run.py to merge.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import infodist.cli  # noqa: E402

import tracer as tr  # noqa: E402

if __name__ == "__main__":
    out, op_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = tr.Tracer(span_cap=2000)
    tr.install(tracer)
    tracer.op = op_id
    try:
        code = infodist.cli.main(argv)
    finally:
        tracer.op = None
        out.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    sys.exit(code)
