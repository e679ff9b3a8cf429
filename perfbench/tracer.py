"""Spans and counters around the library's public functions, installed at run time.

``install`` replaces each target function with a timing wrapper in its own
module *and* under every name another infodist module imported it as, so
calls between modules are seen too.  Nothing in the library is edited.
Spans are recorded only while an op is running (``Tracer.op`` is set): each
has a name, start, end, parent span and op id, and its self time (duration
minus the time covered by its child spans) is computed when it closes.
Aggregates per function are exact for every call; the first ``span_cap``
spans are also kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, function) pairs wrapped in the traced run.
TARGETS = [
    ("graph", "validate_network"),
    ("graph", "enumerate_min_cutsets"),
    ("graph", "is_cutset"),
    ("graph", "enumerate_paths"),
    ("graph", "min_cut"),
    ("graph", "has_path"),
    ("graph", "find_path"),
    ("witnesses", "decide_information_distributive"),
    ("witnesses", "find_permutation_sequence"),
    ("witnesses", "verify_witness"),
    ("reductions", "deadline_to_time_extended"),
    ("reductions", "search_deadline_certificate"),
    ("reductions", "check_c0_distributive"),
    ("reductions", "find_extendable_paths"),
    ("rateregion", "max_scaled_rate"),
    ("rateregion", "check_rate_feasible"),
    ("rateregion", "verify_routing_scheme"),
    ("simplex", "solve"),
    ("gfmatrix", "rank"),
    ("codes", "propagate"),
    ("codes", "check_decodable"),
    ("codes", "cond_mutual_info"),
    ("codes", "extract_routing"),
    ("codes", "audit"),
    ("codes", "random_decodable_code"),
    ("cli", "main"),
]
MODULES = ["graph", "witnesses", "reductions", "rateregion", "simplex", "gfmatrix", "codes", "cli"]
COUNTERS = [
    ("graph.cutset_yield", "share", "higher"),
    ("graph.enumerate_paths.paths", "count", "lower"),
    ("witnesses.orders_tried", "count", "lower"),
    ("witnesses.candidates", "count", "lower"),
    ("witnesses.permutation_checks", "count", "lower"),
    ("witnesses.path_assignments", "count", "lower"),
    ("reductions.grid_edges", "count", "lower"),
    ("rateregion.lp_rows", "count", "lower"),
    ("rateregion.lp_cols", "count", "lower"),
    ("simplex.pivots", "count", "lower"),
    ("gfmatrix.rank.cells", "count", "lower"),
    ("codes.sample_yield", "share", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
]
SHARES = MODULES + ["startup"]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for mod, fn in TARGETS:
        specs += [
            (f"{mod}.{fn}.calls", "count", "lower"),
            (f"{mod}.{fn}.self_s", "s", "lower"),
            (f"{mod}.{fn}.errors", "count", "lower"),
        ]
    specs += COUNTERS
    specs += [(f"{m}.share", "share", "lower") for m in SHARES]
    specs.append(("trace.overhead_share", "share", "lower"))
    return specs


def _cells(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    if shape is not None:
        return int(shape[0]) * int(shape[1]) if len(shape) == 2 else int(getattr(matrix, "size", 0))
    return len(matrix) * (len(matrix[0]) if len(matrix) else 0)


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.op = None  # current op id; None means "do not record"
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, start, child time]
        self.next_id = 0
        # name -> [calls, self_s, errors, total_s]
        self.stats: dict[str, list] = {f"{m}.{f}": [0, 0.0, 0, 0.0] for m, f in TARGETS}
        self.counts: dict[str, float] = {}

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, post=None):
        tracer = self
        stat = self.stats.setdefault(name, [0, 0.0, 0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [span_id, perf_counter(), 0.0]
            tracer.stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - frame[1]
                self_s = dur - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                stat[0] += 1
                stat[1] += self_s
                stat[2] += failed
                stat[3] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((span_id, name, frame[1], end, parent, tracer.op, self_s))
            if post is not None:
                post(tracer, args, result)
            return result

        return wrapper

    def merge(self, data: dict) -> None:
        """Fold in the stats, counters and spans a traced child process dumped."""
        for name, vals in data["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
            for k, v in enumerate(vals):
                stat[k] += v
        for key, v in data["counts"].items():
            self.count(key, v)
        base = self.next_id  # child span ids start at 0: shift them past ours
        room = self.span_cap - len(self.spans)
        for sid, name, start, end, parent, op, self_s in data["spans"][:room]:
            self.spans.append((sid + base, name, start, end,
                               None if parent is None else parent + base, op, self_s))
        self.next_id += data["opened"]

    def dump(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans,
                "opened": self.next_id}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self_s": self_s}) + "\n")

    def module_self(self, module: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.split(".")[0] == module)

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0, 0.0])[3]

    def layer_metrics(self, op_time: float, overhead: float, extra: dict) -> dict:
        """Per-layer metric values keyed by name (see ``metric_specs``)."""
        out = {}
        for name, (calls, self_s, errors, _total) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.errors"] = errors
        c = self.counts
        scans = self.stats["graph.is_cutset"][0]
        out["graph.cutset_yield"] = c.get("graph.cutsets_found", 0) / scans if scans else 0.0
        out["graph.enumerate_paths.paths"] = c.get("graph.enumerate_paths.paths", 0)
        for key in ("orders_tried", "candidates", "permutation_checks", "path_assignments"):
            out[f"witnesses.{key}"] = c.get(f"witnesses.{key}", 0)
        out["reductions.grid_edges"] = c.get("reductions.grid_edges", 0)
        lps = c.get("simplex.lps", 0)
        out["rateregion.lp_rows"] = c.get("simplex.rows", 0) / lps if lps else 0.0
        out["rateregion.lp_cols"] = c.get("simplex.cols", 0) / lps if lps else 0.0
        out["simplex.pivots"] = c.get("simplex.pivots", 0)
        out["gfmatrix.rank.cells"] = c.get("gfmatrix.rank.cells", 0)
        sampled = c.get("codes.sampled", 0)
        out["codes.sample_yield"] = c.get("codes.kept", 0) / sampled if sampled else 0.0
        for m in MODULES:
            out[f"{m}.share"] = self.module_self(m) / op_time if op_time else 0.0
        out["trace.overhead_share"] = overhead
        out.update(extra)
        return out


def _post_cutsets(tracer, args, result):
    tracer.count("graph.cutsets_found", len(result[0]))


def _post_paths(tracer, args, result):
    tracer.count("graph.enumerate_paths.paths", len(result[0]))


def _post_decide(tracer, args, result):
    stats = result.stats
    for key in ("orders_tried", "candidates", "permutation_checks", "path_assignments"):
        tracer.count(f"witnesses.{key}", getattr(stats, key, 0))


def _post_grid(tracer, args, result):
    tracer.count("reductions.grid_edges", len(result.net.edges))


def _post_solve(tracer, args, result):
    tracer.count("simplex.lps")
    tracer.count("simplex.rows", len(args[1]))
    tracer.count("simplex.cols", len(args[0]))


def _post_rank(tracer, args, result):
    tracer.count("gfmatrix.rank.cells", _cells(args[0]))


POST = {
    "graph.enumerate_min_cutsets": _post_cutsets,
    "graph.enumerate_paths": _post_paths,
    "witnesses.decide_information_distributive": _post_decide,
    "reductions.deadline_to_time_extended": _post_grid,
    "simplex.solve": _post_solve,
    "gfmatrix.rank": _post_rank,
}


def install(tracer: Tracer) -> tuple[list[tuple], list[str]]:
    """Wrap every target in every loaded infodist module.

    Returns the (original, wrapper) pairs, for ``uninstall``, and the targets
    the library does not have.
    """
    import importlib

    mods = {}
    for name in MODULES:
        try:
            mods[name] = importlib.import_module(f"infodist.{name}")
        except ImportError:
            pass
    pairs, missing = [], []
    for mod, fn in TARGETS:
        orig = getattr(mods.get(mod), fn, None)
        if orig is None:
            missing.append(f"{mod}.{fn}")
            continue
        name = f"{mod}.{fn}"
        if name == "codes.random_decodable_code":
            wrapped = _sampler_wrapper(tracer, tracer.wrap(name, orig))
        else:
            wrapped = tracer.wrap(name, orig, POST.get(name))
        pairs.append((orig, wrapped))
    simplex = mods.get("simplex")
    if simplex is not None and hasattr(simplex, "_pivot"):
        pairs.append((simplex._pivot, _counting(tracer, "simplex.pivots", simplex._pivot)))
    for orig, wrapped in pairs:
        _rebind(orig, wrapped)
    return pairs, missing


def uninstall(pairs: list[tuple]) -> None:
    """Put the original functions back everywhere ``install`` replaced them."""
    for orig, wrapped in pairs:
        _rebind(wrapped, orig)


def _rebind(orig, wrapped) -> None:
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "infodist":
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _counting(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.op is not None:
            tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _sampler_wrapper(tracer: Tracer, wrapped):
    """Codes sampled = propagate calls made inside the sampler; kept = successes."""

    @functools.wraps(wrapped)
    def wrapper(*args, **kwargs):
        before = tracer.stats["codes.propagate"][0]
        result = wrapped(*args, **kwargs)
        if tracer.op is not None:
            tracer.count("codes.sampled", tracer.stats["codes.propagate"][0] - before)
            tracer.count("codes.kept", result is not None)
        return result

    return wrapper
