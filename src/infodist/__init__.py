"""Routing-optimality certificates for multi-unicast networks.

Library surface: graph model and flow primitives (:mod:`infodist.graph`),
the three topological certificates and the decision search
(:mod:`infodist.witnesses`), the exact routing rate-region LP
(:mod:`infodist.rateregion`), scalar linear codes with rank-exact
information measures (:mod:`infodist.codes`), and the index-coding /
deadline reductions (:mod:`infodist.reductions`).
"""

__version__ = "0.1.0"
