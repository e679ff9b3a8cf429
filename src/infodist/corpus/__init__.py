"""Bundled instance corpus (networks, reduction instances, one code)."""

from __future__ import annotations

import json
from pathlib import Path

NETWORKS = ("fig1a", "fig1b", "fig5", "butterfly", "single-edge", "parallel-m")
INSTANCES = ("fig3-index", "fig4-deadline")


def names() -> tuple[str, ...]:
    return NETWORKS + INSTANCES + ("butterfly-xor-code",)


def load(name: str) -> dict:
    name = name.removesuffix(".json")
    with open(Path(__file__).with_name(f"{name}.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)
