"""Seeded instance generators for the benchmark.

Every generator is a pure function of its parameters and an integer seed and
returns JSON-ready dicts, so one seed always yields byte-identical instance
JSON (see ``dumps``).  The library only ever sees this JSON.
"""

from __future__ import annotations

import json
import random


def dumps(obj) -> str:
    """Canonical JSON text: the byte-identity the seed guarantees is on this."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def layered_dag(K: int, width: int, depth: int, fanout: int, seed: int, outdeg: int = 2) -> dict:
    """Multi-unicast DAG: K sources -> `depth` layers of `width` nodes -> K sinks.

    Each source feeds `fanout` random nodes of the first layer and each sink
    drains `fanout` random nodes of the last, so every session's min-cut is
    at most `fanout`; between layers every node gets `outdeg` random
    successors and every node at least one predecessor.
    """
    rng = random.Random(seed)
    layers = [[f"v{l}_{i}" for i in range(width)] for l in range(depth)]
    sessions = [(f"s{k}", f"d{k}") for k in range(1, K + 1)]
    nodes = [s for s, _ in sessions] + [d for _, d in sessions]
    nodes += [v for layer in layers for v in layer]
    edges = []
    for s, _ in sessions:
        edges += [(s, v) for v in rng.sample(layers[0], fanout)]
    for here, there in zip(layers, layers[1:]):
        hit = set()
        for v in here:
            for w in rng.sample(there, outdeg):
                edges.append((v, w))
                hit.add(w)
        edges += [(rng.choice(here), w) for w in there if w not in hit]
    for _, d in sessions:
        edges += [(v, d) for v in rng.sample(layers[-1], fanout)]
    return {
        "nodes": nodes,
        "edges": [{"tail": t, "head": h, "index": 0} for t, h in edges],
        "sessions": [{"source": s, "sink": d} for s, d in sessions],
    }


def deep_chain(length: int) -> dict:
    """Single unicast along one path of `length` edges."""
    nodes = [f"c{i}" for i in range(length + 1)]
    return {
        "nodes": nodes,
        "edges": [{"tail": a, "head": b, "index": 0} for a, b in zip(nodes, nodes[1:])],
        "sessions": [{"source": nodes[0], "sink": nodes[-1]}],
    }


def deadline(base: dict, tau: int, horizon: int, memory: int) -> dict:
    """A deadline instance on the edges of `base` with new tau/horizon/memory."""
    return {
        "edges": [dict(e) for e in base["edges"]],
        "source": base["source"],
        "sink": base["sink"],
        "tau": tau,
        "horizon": horizon,
        "memory": memory,
    }


def relabel(raw: dict, seed: int) -> dict:
    """Isomorphic copy of a network with seeded node names and node order.

    Edge order and session order are kept: they fix the search order, so
    every seed does the same amount of work and verdicts, lambda* and edge
    ids in the known answers stay valid.
    """
    rng = random.Random(seed)
    names = list(raw["nodes"])
    fresh = [f"n{seed % 997}_{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    order = list(names)
    rng.shuffle(order)
    return {
        "nodes": [mapping[v] for v in order],
        "edges": [
            {"tail": mapping[e["tail"]], "head": mapping[e["head"]], "index": e.get("index", 0)}
            for e in raw["edges"]
        ],
        "sessions": [
            {"source": mapping[s["source"]], "sink": mapping[s["sink"]]} for s in raw["sessions"]
        ],
    }


def relabel_deadline(raw: dict, seed: int) -> dict:
    """Deadline instance with seeded node names (edge order kept)."""
    rng = random.Random(seed)
    names = sorted({e[k] for e in raw["edges"] for k in ("tail", "head")})
    fresh = [f"u{seed % 997}_{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    mapping = dict(zip(names, fresh))
    out = dict(raw)
    out["edges"] = [
        {"tail": mapping[e["tail"]], "head": mapping[e["head"]], "delay": e["delay"]}
        for e in raw["edges"]
    ]
    out["source"], out["sink"] = mapping[raw["source"]], mapping[raw["sink"]]
    return out
