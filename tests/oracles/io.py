"""The line-at-a-time edge-list parser.

Each line goes through the dict-of-dicts oracle graph's per-edge API
(:mod:`oracles.graph`): a bare token is ``add_vertex``, ``u v p`` is
``float(p)`` then ``add_edge``.  This is the behaviour
:func:`repro.datasets.io.parse_edge_list` reproduces with chunked
routing and bulk conversion, pinned in ``tests/test_io.py``: same
vertex, edge and neighbour orders and probabilities, and the same error
type, message and line on malformed input.
"""

from __future__ import annotations

from oracles.graph import UncertainGraph
from repro.exceptions import GraphError


def parse_edge_list_scalar(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """The line-at-a-time reference parser."""
    graph = UncertainGraph(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            graph.add_vertex(parts[0])
            continue
        if len(parts) != 3:
            raise GraphError(
                f"{source}:{lineno}: expected 'u v p' or a bare vertex, "
                f"got {raw.rstrip()!r}"
            )
        u, v, p_raw = parts
        try:
            p = float(p_raw)
        except ValueError:
            raise GraphError(
                f"{source}:{lineno}: probability is not a number: {p_raw!r}"
            ) from None
        graph.add_edge(u, v, p)
    return graph
