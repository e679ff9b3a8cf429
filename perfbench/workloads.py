"""The four workloads: inputs, one-time set-up, the ops of a round, answer checks.

An op is one call chain into the library (or one CLI subprocess).  ``run``
is the timed part; ``summary`` turns its result into JSON-able facts outside
the timed region, and ``check`` compares those facts with the known answers
and with the independent checks in ``oracle``.  Library functions are always
looked up through their module at call time, so the wrappers ``tracer``
installs see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import gen
import ladders
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "src" / "infodist" / "corpus"
WORKLOADS = ("cli-corpus", "search", "rate-lp", "code-audit")


def known_answers() -> dict:
    with open(HERE / "known_answers.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_json(name: str) -> dict:
    with open(CORPUS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    id: str
    run: Callable[[int], Any]  # timed; argument is the round number
    summary: Callable[[Any], Any]  # untimed: result -> JSON-able facts
    check: Callable[[Any], Optional[str]]  # None when the answer is right
    size: int = 0  # edges of a ladder instance, 0 when not on a ladder
    cacheable: bool = True  # same summary -> same verdict (skip re-checking)
    in_process: bool = True  # False: a CLI subprocess with its own timeout


def _dag_json(step, seed: int) -> dict:
    _id, K, width, depth, fanout, structure, *_ = step
    return gen.relabel(gen.layered_dag(K, width, depth, fanout, structure), seed)


def _rate_json(step, seed: int) -> dict:
    _id, K, width, depth, fanout, outdeg, structure, *_ = step
    return gen.relabel(gen.layered_dag(K, width, depth, fanout, structure, outdeg), seed)


def _canonical(raw: dict) -> dict:
    """The generated JSON exactly as the library receives it (byte-identical per seed)."""
    return json.loads(gen.dumps(raw))


def prepare(workload: str, seed: int) -> dict:
    """Instance generation: every input a workload feeds the library, as JSON."""
    if workload == "search":
        fig4 = corpus_json("fig4-deadline")
        dl = lambda s: gen.relabel_deadline(gen.deadline(fig4, *s[1:4]), seed)  # noqa: E731
        return {
            "dags": {s[0]: _dag_json(s, seed) for s in ladders.SEARCH_DAGS + ladders.SEARCH_PROBES},
            "deadlines": {s[0]: dl(s) for s in ladders.DEADLINES + [ladders.DEADLINE_PROBE]},
            "chain": gen.relabel(gen.deep_chain(ladders.DEEP_CHAIN[1]), seed),
        }
    if workload == "rate-lp":
        return {"dags": {s[0]: _rate_json(s, seed) for s in ladders.RATE_DAGS + ladders.RATE_PROBES}}
    if workload == "code-audit":
        dags = {s[0]: s for s in ladders.SEARCH_DAGS}
        nets = {}
        for name in ladders.AUDIT_INSTANCES:
            raw = _dag_json(dags[name], seed) if name in dags else gen.relabel(corpus_json(name), seed)
            nets[name] = raw
        return {"nets": nets}
    if workload == "cli-corpus":
        return {"fig1a": corpus_json("fig1a")}
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, inputs: dict, workdir: Path) -> dict:
    """Imports plus one-time library calls made before the first timed op."""
    if workload == "search":
        import infodist.graph  # noqa: F401
        import infodist.reductions  # noqa: F401
        import infodist.witnesses  # noqa: F401
        return {}
    if workload == "rate-lp":
        import infodist.graph  # noqa: F401
        import infodist.rateregion  # noqa: F401
        return {}
    if workload == "code-audit":
        import infodist.codes
        import infodist.graph as graph
        import infodist.rateregion  # noqa: F401
        import infodist.witnesses as witnesses

        state = {}
        for name, raw in inputs["nets"].items():
            net = graph.validate_network(_canonical(raw))
            state[name] = (net, witnesses.decide_information_distributive(net).witness)
        return state
    if workload == "cli-corpus":
        import infodist.cli  # noqa: F401
        import infodist.codes as codes
        import infodist.graph as graph
        import infodist.witnesses as witnesses

        net = graph.validate_network(inputs["fig1a"])
        wit = witnesses.decide_information_distributive(net).witness
        code, table = codes.random_decodable_code(net, [1, 1], 5, random.Random(0))
        (workdir / "witness.json").write_text(json.dumps(wit.to_json_dict()), encoding="utf-8")
        code_json = {"field": 5, "rates": [1, 1], "locals": codes.locals_to_json(table)}
        (workdir / "code.json").write_text(json.dumps(code_json), encoding="utf-8")
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------- search


def search_ops(inputs: dict, known: dict) -> tuple[list[Op], list[Op]]:
    import infodist.graph as graph
    import infodist.reductions as reductions
    import infodist.witnesses as witnesses

    def dag_op(step_id: str, raw: dict) -> Op:
        want = known["search"][step_id]
        raw = _canonical(raw)

        def run(_round):
            net = graph.validate_network(raw)
            return witnesses.decide_information_distributive(net)

        def summary(v):
            return {"status": v.status, "witness": v.witness.to_json_dict() if v.witness else None}

        def check(s):
            if s["status"] != want["verdict"]:
                return f"verdict {s['status']}, known {want['verdict']}"
            return oracle.check_witness(raw, s["witness"]) if s["witness"] else None

        return Op(step_id, run, summary, check, size=len(raw["edges"]))

    def deadline_op(step_id: str, raw: dict) -> Op:
        want = known["search"][step_id]
        raw = _canonical(raw)

        def run(_round):
            tnet = reductions.deadline_to_time_extended(reductions.DeadlineInstance.from_json(raw))
            return tnet, reductions.search_deadline_certificate(tnet)

        def summary(result):
            tnet, v = result
            status = v.status if v else "unknown"
            if status != "yes":
                return {"status": status}
            return {"status": status, "net": tnet.net.to_json_dict(), "witness": v.witness.to_json_dict()}

        def check(s):
            if s["status"] != want["verdict"]:
                return f"deadline verdict {s['status']}, known {want['verdict']}"
            return oracle.check_witness(s["net"], s["witness"]) if s["status"] == "yes" else None

        return Op(step_id, run, summary, check)

    steps = [dag_op(s[0], inputs["dags"][s[0]]) for s in ladders.SEARCH_DAGS]
    steps += [op for op in steps if op.id == ladders.SEARCH_TWICE]
    steps += [deadline_op(s[0], inputs["deadlines"][s[0]]) for s in ladders.DEADLINES]
    probes = [dag_op(s[0], inputs["dags"][s[0]]) for s in ladders.SEARCH_PROBES]
    probes.append(deadline_op(ladders.DEADLINE_PROBE[0], inputs["deadlines"][ladders.DEADLINE_PROBE[0]]))
    chain = dag_op(ladders.DEEP_CHAIN[0], inputs["chain"])
    chain.size = 0  # the chain is a robustness probe, not a ladder size
    return steps, probes + [chain]


# ----------------------------------------------------------------- rate-lp

ABOVE = Fraction(1, 1000)


def rate_ops(inputs: dict, known: dict) -> tuple[list[Op], list[Op]]:
    import infodist.graph as graph
    import infodist.rateregion as rateregion

    def op(step) -> Op:
        step_id, direction = step[0], [Fraction(d) for d in step[7]]
        raw = _canonical(inputs["dags"][step_id])
        lam = Fraction(known["rate-lp"][step_id]["lambda"])
        at = [lam * d for d in direction]
        above = [(lam + ABOVE) * d for d in direction]

        def run(_round):
            net = graph.validate_network(raw)
            best = rateregion.max_scaled_rate(net, direction)
            return (best, rateregion.check_rate_feasible(net, at),
                    rateregion.check_rate_feasible(net, above))

        def summary(result):
            best, feas, infeas = result
            return {
                "lambda": str(best.lam),
                "scheme": best.scheme.to_json_dict(),
                "at": feas.feasible,
                "at_scheme": feas.scheme.to_json_dict() if feas.scheme else None,
                "above": infeas.feasible,
            }

        def check(s):
            if Fraction(s["lambda"]) != lam:
                return f"lambda* {s['lambda']}, known {lam}"
            if not s["at"] or s["above"]:
                return f"feasible at lambda*: {s['at']}, just above: {s['above']}"
            return oracle.check_scheme(raw, s["scheme"], at) or oracle.check_scheme(raw, s["at_scheme"], at)

        return Op(step_id, run, summary, check, size=len(raw["edges"]))

    return [op(s) for s in ladders.RATE_DAGS], [op(s) for s in ladders.RATE_PROBES]


# ----------------------------------------------------------------- code-audit


def audit_ops(inputs: dict, known: dict, state: dict) -> tuple[list[Op], list[Op]]:
    import infodist.codes as codes
    import infodist.rateregion as rateregion

    def op(name: str, q: int, rates: list[int]) -> Op:
        raw = _canonical(inputs["nets"][name])
        net, wit = state[name]
        op_id = f"{name}/q{q}/r{''.join(map(str, rates))}"

        def run(rnd):
            # Seeded by round and op only: the sampler's rejection count is
            # geometric, so a --seed-dependent stream would change the work.
            rng = random.Random(f"{rnd}:{op_id}")
            got = codes.random_decodable_code(net, rates, q, rng)
            if got is None:
                return None
            code, table = got
            scheme = codes.extract_routing(code, wit)
            verified = rateregion.verify_routing_scheme(net, scheme, rates)
            report = codes.audit(code, wit, seed=rng.randrange(2**31))
            return table, scheme, verified, report

        def summary(result):
            if result is None:
                return None
            table, scheme, verified, report = result
            return {
                "locals": codes.locals_to_json(table),
                "scheme": scheme.to_json_dict(),
                "verified": verified.ok,
                "audit": [e.check for e in report.entries if not e.ok],
            }

        def check(s):
            if s is None:
                return "no decodable code sampled"
            grows = oracle.global_rows(raw, rates, s["locals"], q)
            if not grows or not all(oracle.decodable(raw, rates, grows, q)):
                return "sampled code is not decodable (pure-Python rank)"
            if s["audit"]:
                return f"audit fails {s['audit'][:3]}"
            if not s["verified"]:
                return "extracted scheme rejected by verify_routing_scheme"
            return oracle.check_scheme(raw, s["scheme"], rates)

        return Op(op_id, run, summary, check, size=len(raw["edges"]), cacheable=False)

    cases = known["code-audit"]
    steps = [op(c["instance"], c["field"], c["rates"]) for c in cases["steps"]]
    probes = [op(c["instance"], c["field"], c["rates"]) for c in cases["probes"]]
    return steps, probes


# ----------------------------------------------------------------- cli-corpus


def cli_ops(inputs: dict, known: dict, workdir: Path, traced_dir: Optional[Path]) -> list[Op]:
    """The CLI calls; with `traced_dir`, each runs under cli_traced.py and
    leaves its trace in traced_dir/<op>#<round>.json."""
    subs = {"{code}": str(workdir / "code.json"), "{witness}": str(workdir / "witness.json")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    answers = known["cli-corpus"]

    def op(op_id: str, template: list[str]) -> Op:
        argv = [subs.get(a, a) for a in template]
        want = answers[op_id]

        def run(rnd):
            if traced_dir is None:
                cmd = [sys.executable, "-m", "infodist.cli", *argv]
            else:
                span_op = f"{op_id}#{rnd}"
                cmd = [sys.executable, str(HERE / "cli_traced.py"), str(traced_dir / f"{span_op}.json"),
                       span_op, *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                                  timeout=ladders.CLI_LIMIT_S)
            return proc.returncode, proc.stdout

        def summary(result):
            code, stdout = result
            try:
                return {"exit": code, "result": json.loads(stdout)["result"]}
            except (ValueError, KeyError):
                return {"exit": code, "result": None}

        def check(s):
            if s["exit"] != want["exit"] or s["result"] is None:
                return f"exit {s['exit']}, known {want['exit']}"
            return _cli_check(op_id, want, s["result"], inputs)

        network = template[1] if template[0] in ("check", "rate", "gen-code", "audit") else None
        size = len(corpus_json(Path(network).stem)["edges"]) if network else 0
        return Op(op_id, run, summary, check, size=size, in_process=False)

    return [op(op_id, template) for op_id, template in ladders.CLI_OPS]


def _cli_check(op_id: str, want: dict, res: dict, inputs: dict) -> Optional[str]:
    for key, value in want.get("fields", {}).items():
        got = res
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != value:
            return f"{key} = {got!r}, known {value!r}"
    if op_id.startswith("check-") and res["witness"]:
        return oracle.check_witness(corpus_json(op_id[len("check-"):]), res["witness"])
    if op_id == "rate-direction":
        lam = Fraction(res["lambda"])
        return oracle.check_scheme(inputs["fig1a"], res["scheme"], [lam, lam])
    if op_id == "reduce-deadline":
        return oracle.check_witness(res["network"], res["verdict"]["witness"])
    if op_id == "gen-code":
        rates, q = res["rates"], res["field"]
        grows = oracle.global_rows(inputs["fig1a"], rates, res["locals"], q)
        if not grows or not all(oracle.decodable(inputs["fig1a"], rates, grows, q)):
            return "gen-code output is not decodable (pure-Python rank)"
    if op_id == "audit":
        return oracle.check_scheme(inputs["fig1a"], res["extracted_scheme"], res["rates"])
    return None
