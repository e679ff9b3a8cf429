"""Batch command-line front end.

Subcommands: check, rate, reduce-index, reduce-deadline, audit, gen-code.
All input and output is JSON; outputs echo the tool version, the effective
configuration and the seed, and are byte-stable for a fixed config+seed.

Exit codes: 0 success (for `check`: verdict yes), 10 mathematical negative
(verdict no / failed audit inequality), 20 indeterminate (budget or
enumeration cap hit, or no certificate found by a sufficient-only route),
1 input or usage error, a command line the parser rejects included.

Each subcommand imports the library layers it runs inside its own body, so
a call pays start-up only for those layers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, corpus
from .errors import InfodistError, NetworkFormatError, PathEnumerationTruncated
from .graph import DEFAULT_PATH_LIMIT, validate_network

EXIT_OK = 0
EXIT_NO = 10
EXIT_UNKNOWN = 20
EXIT_ERROR = 1


def _read_json(path: str) -> dict:
    """Load a JSON object; bare corpus names and corpus/<name>.json work
    from anywhere by falling back to the bundled corpus."""
    p = Path(path)
    if p.exists():
        try:
            with open(p, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:  # a directory, no permission
            raise ValueError(f"cannot read input {path}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"cannot read input {path}: JSON nested too deeply") from None
    elif p.stem in corpus.names():
        data = corpus.load(p.stem)
    else:
        raise FileNotFoundError(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _read(path: str, reader):
    """reader applied to the JSON object in path; an error in its content
    names the file."""
    data = _read_json(path)
    try:
        return reader(data)
    except (InfodistError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:  # a directory, a missing folder, no permission
            raise ValueError(f"cannot write output {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _envelope(args, command: str, result: dict) -> dict:
    config = {
        "budget": getattr(args, "budget", None),
        "max_seconds": getattr(args, "max_seconds", None),
        "seed": getattr(args, "seed", None),
        "strict_def5": getattr(args, "strict_def5", False),
        "reindex_sessions": getattr(args, "reindex_sessions", True),
    }
    return {
        "tool": "infodist",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }


def _parse_vector(text: str, flag: str) -> list[Fraction]:
    """The comma-separated numbers of flag's value; one that does not parse
    names the flag."""
    from fractions import Fraction

    vector = []
    for part in map(str.strip, text.split(",")):
        try:
            vector.append(Fraction(part))
        except ZeroDivisionError:
            raise ValueError(f"{flag}: zero denominator in {text!r}") from None
        except ValueError:
            raise ValueError(f"{flag}: {part!r} is not a number") from None
    return vector


def cmd_check(args) -> int:
    from .witnesses import SearchBudget, decide_information_distributive

    net = _read(args.network, validate_network)
    if args.budget < 1:
        raise ValueError("--budget must be positive")
    # NaN fails both comparisons, so it is rejected with infinity.
    if args.max_seconds is not None and not 0 < args.max_seconds < float("inf"):
        raise ValueError("--max-seconds must be positive and finite")
    budget = SearchBudget(
        max_candidates=args.budget,
        max_seconds=args.max_seconds,
        reindex_sessions=args.reindex_sessions,
        strict_def5=args.strict_def5,
    )
    verdict = decide_information_distributive(net, budget)
    result = {
        "status": verdict.status,
        "witness": verdict.witness.to_json_dict() if verdict.witness else None,
        "violations": [],
        "representatives": {
            str(k): v for k, v in sorted(verdict.representative_map.items())
        },
        "search_stats": verdict.stats.to_json_dict(),
    }
    _emit(args, _envelope(args, "check", result))
    return {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[verdict.status]


def cmd_rate(args) -> int:
    from .rateregion import check_rate_feasible, max_scaled_rate

    net = _read(args.network, validate_network)
    if (args.rate is None) == (args.direction is None):
        raise NetworkFormatError("exactly one of --rate/--direction required")
    if args.path_limit < 1:
        raise ValueError("--path-limit must be positive")
    try:
        if args.rate is not None:
            rates = _parse_vector(args.rate, "--rate")
            res = check_rate_feasible(net, rates, path_limit=args.path_limit)
            result = {
                "mode": "feasibility",
                "rates": [str(r) for r in rates],
                "feasible": res.feasible,
                "scheme": res.scheme.to_json_dict() if res.scheme else None,
            }
        else:
            direction = _parse_vector(args.direction, "--direction")
            res = max_scaled_rate(net, direction, path_limit=args.path_limit)
            result = {
                "mode": "max-scaled-rate",
                "direction": [str(d) for d in direction],
                "lambda": str(res.lam),
                "scheme": res.scheme.to_json_dict(),
            }
    except PathEnumerationTruncated as exc:
        _emit(args, _envelope(args, "rate", {"indeterminate": str(exc)}))
        return EXIT_UNKNOWN
    _emit(args, _envelope(args, "rate", result))
    return EXIT_OK


def cmd_reduce_index(args) -> int:
    from .reductions import (
        IndexCodingInstance,
        decide_index_rawness,
        index_to_network,
        side_information_graph,
    )

    inst = _read(args.instance, IndexCodingInstance.from_json)
    net, skeleton = index_to_network(inst)
    rawness = decide_index_rawness(inst)
    side = side_information_graph(inst)
    reindex = rawness.reindex
    result = {
        "network": net.to_json_dict(),
        "canonical_witness": skeleton.to_json_dict(),
        "rawness": rawness.to_json_dict(),
        "side_information_graph": {str(j): list(ts) for j, ts in side.items()},
        "acyclic_reindex": list(reindex.order) if reindex.order else None,
        "cycle": list(reindex.cycle) if reindex.cycle else None,
    }
    _emit(args, _envelope(args, "reduce-index", result))
    return EXIT_OK


def cmd_reduce_deadline(args) -> int:
    from .reductions import DeadlineInstance, deadline_to_time_extended, search_deadline_certificate

    tnet = _read(args.instance, lambda data: deadline_to_time_extended(DeadlineInstance.from_json(data)))
    verdict = search_deadline_certificate(tnet)
    wit = verdict.witness if verdict else None  # slot 0 holds C[0] and its paths
    result = {
        "network": tnet.net.to_json_dict(),
        "injection_width": tnet.J,
        "session0_mincut": tnet.mincut0,
        "edge_labels": [tnet.label_str(e) for e in range(len(tnet.net.edges))],
        "verdict": verdict.to_json_dict() if verdict else {"status": "unknown"},
        "c0": sorted(wit.cuts[0]) if wit else None,
        "canonical_paths": [list(p) for p in wit.paths[0]] if wit else None,
    }
    _emit(args, _envelope(args, "reduce-deadline", result))
    return EXIT_OK if verdict else EXIT_UNKNOWN


def cmd_audit(args) -> int:
    from .codes import audit, check_decodable, code_from_json, extract_routing
    from .rateregion import scheme_from_json, verify_routing_scheme
    from .witnesses import witness_from_json

    net = _read(args.network, validate_network)
    if args.prop_samples < 0:
        raise ValueError("--prop-samples must be nonnegative")
    code = _read(args.code, lambda data: code_from_json(net, data))
    wit = _read(args.witness, witness_from_json)
    scheme = extract_routing(code, wit, strict=args.strict_def5)
    rates = list(code.rates)
    decodable = check_decodable(code)
    expected = [r if ok else 0 for r, ok in zip(rates, decodable)]
    if args.scheme:
        scheme = _read(args.scheme, lambda data: scheme_from_json(data, net.num_sessions))
    verification = verify_routing_scheme(net, scheme, expected)
    report = audit(code, wit, seed=args.seed, prop_samples=args.prop_samples,
                   strict=args.strict_def5)
    result = {
        "decodable": list(decodable),
        "rates": rates,
        "extracted_scheme": scheme.to_json_dict(),
        "scheme_verifies_at": [str(r) for r in expected],
        "scheme_ok": verification.ok,
        "scheme_violation": list(verification.violation) if verification.violation else None,
        "audit": report.to_json_dict(),
    }
    _emit(args, _envelope(args, "audit", result))
    return EXIT_OK if report.ok and verification.ok else EXIT_NO


def cmd_gen_code(args) -> int:
    import random

    from .codes import (
        check_decodable,
        locals_to_json,
        propagate,
        random_decodable_code,
        random_local_table,
    )

    net = _read(args.network, validate_network)
    rates = []
    for part in args.rates.split(","):
        try:
            rates.append(int(part))
        except ValueError:
            raise ValueError(f"--rates: {part!r} is not an integer") from None
    if args.attempts < 1:
        raise ValueError("--attempts must be positive")
    rng = random.Random(args.seed)
    if args.decodable:
        chosen = random_decodable_code(net, rates, args.field, rng, args.attempts)
    else:
        table = random_local_table(net, rates, args.field, rng)
        chosen = propagate(net, rates, table, args.field), table
    if chosen is None:
        _emit(args, _envelope(args, "gen-code", {"error": "no decodable code found"}))
        return EXIT_ERROR
    code, table = chosen
    result = {
        "field": args.field,
        "rates": rates,
        "locals": locals_to_json(table),
        "decodable": list(check_decodable(code)),
    }
    _emit(args, _envelope(args, "gen-code", result))
    return EXIT_OK


class _UsageError(Exception):
    """A command line the parser rejects; main() reports it as exit 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; raise instead, so main() can keep
    to the documented exit codes.  Subcommand parsers inherit the class."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infodist",
        description="Routing-optimality certificates for multi-unicast networks",
    )
    parser.add_argument("--version", action="version", version=f"infodist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the JSON result to this file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", help="decide information-distributivity")
    p.add_argument("network")
    p.add_argument("--budget", type=int, default=10**6, help="max cut-set sequences tried")
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--strict-def5", action="store_true",
                   help="use the symmetric (tighter) reading of the ordering bound")
    p.add_argument("--reindex-sessions", action=argparse.BooleanOptionalAction, default=True)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rate", help="exact routing LP")
    p.add_argument("network")
    p.add_argument("--rate", help="comma-separated rates, e.g. 1,1/2")
    p.add_argument("--direction", help="maximize lambda along this direction")
    p.add_argument("--path-limit", type=int, default=DEFAULT_PATH_LIMIT)
    common(p)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("reduce-index", help="index-coding instance to network")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_reduce_index)

    p = sub.add_parser("reduce-deadline", help="deadline instance to time-extended network")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=cmd_reduce_deadline)

    p = sub.add_parser("audit", help="extract routing from a code and audit the inequalities")
    p.add_argument("network")
    p.add_argument("--code", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--scheme", help="verify this scheme file instead of the extracted one")
    p.add_argument("--prop-samples", type=int, default=20)
    p.add_argument("--strict-def5", action="store_true")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gen-code", help="seeded random scalar linear code")
    p.add_argument("network")
    p.add_argument("--rates", required=True, help="comma-separated integer rates")
    p.add_argument("--field", type=int, default=2)
    p.add_argument("--decodable", action="store_true", help="resample until decodable")
    p.add_argument("--attempts", type=int, default=2000)
    common(p)
    p.set_defaults(func=cmd_gen_code)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"infodist: input not found: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InfodistError, ValueError, KeyError) as exc:
        print(f"infodist: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
