import pytest

from infodist import corpus
from infodist.graph import validate_network


@pytest.fixture(scope="session")
def nets():
    return {name: validate_network(corpus.load(name)) for name in corpus.NETWORKS}


# Two sessions through one shared chain: four cut tuples reach the ordering
# check, and only the fourth holds a witness ("yes").
SHARED_CHAIN = {
    "nodes": ["v0", "v1", "v2", "s1", "d1", "s2", "d2"],
    "edges": [["v0", "v1"], ["v1", "v2"], ["s1", "v0"], ["v2", "d1"],
              ["s2", "v2"], ["s2", "v0"], ["v1", "d2"]],
    "sessions": [["s1", "d1"], ["s2", "d2"]],
}

# fig1a edge ids for the named edges of the two-unicast example.
FIG1A = {"e1": 1, "e2": 5, "e3": 11, "e4": 6}

# fig1a printed witness: cut-sets, orderings, paths.
FIG1A_CUTS = (frozenset({1, 5, 11}), frozenset({5, 11}))
FIG1A_PERMS = ((1, 5, 11), (5, 11))
FIG1A_PATHS = (
    ((0, 1, 2), (3, 5, 6, 7), (9, 11, 12)),
    ((4, 5, 6, 8), (10, 11, 13)),
)

# fig1b printed witness (reconstructed per the corpus notes).
FIG1B_CUTS = (frozenset({0, 3, 6}), frozenset({3, 6}), frozenset({13, 15}))
FIG1B_PERMS = ((0, 3, 6), (3, 6), (13, 15))
FIG1B_PATHS = (
    ((0, 1), (2, 3, 4), (5, 6, 7)),
    ((8, 3, 9), (10, 6, 11)),
    ((12, 13, 14), (15,)),
)

# fig5 edge ids: sources a1..a6 = 0..5, middle e1..e7 = 6..12, sinks b1..b6 = 13..18.
FIG5 = {
    **{f"a{i}": i - 1 for i in range(1, 7)},
    **{f"e{i}": 5 + i for i in range(1, 8)},
    **{f"b{i}": 12 + i for i in range(1, 7)},
}
