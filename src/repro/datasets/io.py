"""Edge-list I/O for uncertain graphs.

The on-disk format mirrors the public releases of uncertain-graph
datasets (Flickr/Twitter style): one edge per line, whitespace-separated
``u v p``, ``#`` comments, vertices as arbitrary tokens.  Isolated
vertices can be declared with a single-token line.

Round-trip contract
-------------------
``write_edge_list`` followed by ``read_edge_list`` is *lossless up to
vertex stringification*: probabilities are serialised with ``repr``
(the shortest decimal string that parses back to the exact same
float), so ``float(token)`` recovers the original value bit for bit,
and vertex tokens that the line format cannot represent (empty,
containing whitespace or ``#``) are rejected at write time with a
:class:`~repro.exceptions.GraphError` instead of producing a file the
reader mis-parses.  This contract is what makes content digests
(:func:`dataset_digest`, :func:`graph_digest`) sound cache keys: the
serialisation of a graph is a pure function of its content.
"""

from __future__ import annotations

import hashlib
import itertools
import os

from repro.core.uncertain_graph import UncertainGraph
from repro.exceptions import GraphError


def _serialisable_token(vertex) -> str:
    """Render a vertex as its on-disk token, rejecting unrepresentable ones.

    The line format is whitespace-split with ``#`` starting a comment, so
    a token containing either — or an empty token — would be silently
    mis-parsed (or rejected) on read.  Fail at write time instead.
    """
    token = str(vertex)
    # ``split()`` breaks on exactly the characters ``str.isspace()``
    # accepts: one C-level call rejects empty and whitespace tokens.
    if "#" in token or token.split() != [token]:
        raise GraphError(
            f"vertex {vertex!r} cannot be serialised as an edge-list token: "
            f"tokens must be non-empty and contain no whitespace or '#'"
        )
    return token


def format_edge_list(graph: UncertainGraph, header: bool = True) -> str:
    """Serialise a graph to the edge-list text format.

    This is the exact content :func:`write_edge_list` writes; exposing it
    as a string lets callers (the artifact server, digests) serialise
    without touching disk.  Probabilities use ``repr`` so the write →
    read round trip is bit-identical.

    One line per edge in :meth:`~UncertainGraph.edge_list` order, then
    one per isolated vertex in vertex order.  Each vertex's token is
    rendered and checked once, in the order the lines first mention it,
    so an error names the first unrepresentable vertex of the output.
    """
    edge_list = graph.edge_list()
    touched = dict.fromkeys(itertools.chain.from_iterable(edge_list))
    isolated = [vertex for vertex in graph.vertices() if vertex not in touched]
    tokens = {
        vertex: _serialisable_token(vertex)
        for vertex in itertools.chain(touched, isolated)
    }
    lines = []
    if header:
        lines.append(
            f"# uncertain graph {graph.name!r}: "
            f"{graph.number_of_vertices()} vertices, "
            f"{graph.number_of_edges()} edges\n"
        )
    lines += [
        f"{tokens[u]} {tokens[v]} {p!r}\n"
        for (u, v), p in zip(edge_list, graph.probability_array().tolist())
    ]
    lines += [f"{tokens[vertex]}\n" for vertex in isolated]
    return "".join(lines)


def write_edge_list(graph: UncertainGraph, path: "str | os.PathLike") -> None:
    """Write a graph as ``u v p`` lines (isolated vertices as bare tokens)."""
    content = format_edge_list(graph)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def content_digest(data: bytes) -> str:
    """SHA-256 hex digest of in-memory dataset bytes.

    Callers that must bind a digest to the *exact* content they parse
    (the artifact server) read the file once and feed the same bytes to
    both this function and :func:`parse_edge_list`, closing the
    read/digest race a separate :func:`dataset_digest` call would leave.
    """
    return hashlib.sha256(data).hexdigest()


def dataset_digest(path: "str | os.PathLike") -> str:
    """SHA-256 hex digest of a dataset file's bytes.

    The artifact cache keys on this: two requests naming files with the
    same bytes share cached artifacts, and rewriting a file invalidates
    every entry derived from its old content.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def graph_digest(graph: UncertainGraph) -> str:
    """SHA-256 hex digest of a graph's canonical serialisation.

    Name-independent (the header comment carries the name and is
    excluded), so two graphs with identical vertices/edges/probabilities
    digest identically regardless of how they were labelled.
    """
    content = format_edge_list(graph, header=False)
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


#: Line count above which :func:`parse_edge_list` switches to the
#: chunked fast path (the scalar loop is faster for tiny inputs).
_FAST_PARSE_THRESHOLD = 8192

#: Lines per fast-path chunk: bounds pending-token memory and keeps the
#: bulk float conversions in cache-sized batches.
_FAST_PARSE_CHUNK = 65536


def _parse_edge_list_scalar(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """The line-at-a-time reference parser (see :func:`parse_edge_list`).

    Kept verbatim as the behavioural pin for the fast path: every
    fixture must parse bit-identically through both, including error
    type/message/line for malformed input.
    """
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


def _edge_lineno(lines: list, start: int, edge_index: int) -> int:
    """1-based line number of the ``edge_index``-th edge line in a chunk.

    Error path only: the hot routing loop doesn't track line numbers, so
    a conversion failure re-routes the chunk to locate its line.
    """
    count = -1
    for offset in range(start, len(lines)):
        raw = lines[offset]
        line = raw.split("#", 1)[0] if "#" in raw else raw
        if len(line.split()) == 3:
            count += 1
            if count == edge_index:
                return offset + 1
    raise AssertionError("edge index outside chunk")  # pragma: no cover


def _convert_probabilities(
    tokens: list, range_checked: int, source: str, lines: list, start: int
):
    """Convert pending probability tokens, replaying scalar error order.

    Tokens are converted in line order; the first failure raises exactly
    what the scalar loop would have raised at that line.  Only the first
    ``range_checked`` tokens get the domain check — a trailing token
    whose line failed *after* conversion (a self-loop) is converted but
    not range-checked, because ``add_edge`` checks self-loops first.

    Bulk ``numpy`` conversion handles the common all-numeric case in one
    vectorised pass; any failure falls back to a per-token ``float()``
    scan, which both locates the first bad token and accepts the few
    spellings Python allows but numpy doesn't (e.g. ``1_0``).
    """
    import numpy as np

    from repro.exceptions import ProbabilityError

    try:
        probs = np.asarray(tokens, dtype=np.float64)
    except ValueError:
        probs = np.empty(len(tokens), dtype=np.float64)
        for i, token in enumerate(tokens):
            try:
                value = float(token)
            except ValueError:
                lineno = _edge_lineno(lines, start, i)
                raise GraphError(
                    f"{source}:{lineno}: probability is not a number: "
                    f"{token!r}"
                ) from None
            if i < range_checked and not (0.0 < value <= 1.0):
                raise ProbabilityError(
                    f"edge probability must be in (0, 1], got {value}"
                )
            probs[i] = value
        return probs
    checked = probs[:range_checked]
    bad = ~((checked > 0.0) & (checked <= 1.0))
    if bool(bad.any()):
        value = float(checked[int(np.argmax(bad))])
        raise ProbabilityError(
            f"edge probability must be in (0, 1], got {value}"
        )
    return probs


def _parse_edge_list_fast(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """Chunked fast parser, bit-identical to the scalar reference.

    Lines are routed exactly like the scalar loop (so vertex/edge dict
    insertion order — and hence every downstream edge view — is
    preserved, including bare-vertex interleaving and duplicate-edge
    overwrites), but probability tokens are converted in bulk per chunk
    and adjacency entries are written directly, skipping the per-edge
    method dispatch, probability re-validation, and cache invalidation
    the reference pays on every line.
    """
    graph = UncertainGraph(name=name)
    adj = graph._adj
    lines = text.splitlines()
    for start in range(0, len(lines), _FAST_PARSE_CHUNK):
        chunk = lines[start:start + _FAST_PARSE_CHUNK]
        us: list = []           # edge endpoints, line order
        vs: list = []
        tokens: list = []       # pending probability tokens, line order
        vops: list = []         # (edge position, token) for bare vertices
        us_append, vs_append = us.append, vs.append
        tokens_append = tokens.append
        for offset, raw in enumerate(chunk):
            line = raw.split("#", 1)[0] if "#" in raw else raw
            parts = line.split()
            n_parts = len(parts)
            if n_parts == 3:
                u = parts[0]
                v = parts[1]
                tokens_append(parts[2])
                if u == v:
                    # Scalar order: this line's float() ran before the
                    # self-loop check, earlier lines validated fully.
                    _convert_probabilities(
                        tokens, len(tokens) - 1, source, lines, start
                    )
                    raise GraphError(f"self-loops are not allowed: {u!r}")
                us_append(u)
                vs_append(v)
            elif n_parts == 0:
                continue
            elif n_parts == 1:
                vops.append((len(us), parts[0]))
            else:
                # Earlier float/domain errors outrank this line's
                # structure error in the scalar loop — validate first.
                _convert_probabilities(
                    tokens, len(tokens), source, lines, start
                )
                raise GraphError(
                    f"{source}:{start + offset + 1}: expected 'u v p' or a "
                    f"bare vertex, got {raw.rstrip()!r}"
                )
        # tolist() yields Python floats — the scalar loop stores Python
        # floats too, and repr(np.float64) would break serialisation.
        probs = _convert_probabilities(
            tokens, len(tokens), source, lines, start
        ).tolist()
        if vops:
            # Bare vertices interleave with edges: replay in line order
            # so dict insertion order matches the scalar loop exactly.
            vi = 0
            n_vops = len(vops)
            for eid, p in enumerate(probs):
                while vi < n_vops and vops[vi][0] == eid:
                    token = vops[vi][1]
                    if token not in adj:
                        adj[token] = {}
                    vi += 1
                u = us[eid]
                v = vs[eid]
                row = adj.get(u)
                if row is None:
                    row = adj[u] = {}
                col = adj.get(v)
                if col is None:
                    col = adj[v] = {}
                row[v] = p
                col[u] = p
            while vi < n_vops:
                token = vops[vi][1]
                if token not in adj:
                    adj[token] = {}
                vi += 1
        else:
            for u, v, p in zip(us, vs, probs):
                row = adj.get(u)
                if row is None:
                    row = adj[u] = {}
                col = adj.get(v)
                if col is None:
                    col = adj[v] = {}
                row[v] = p
                col[u] = p
    graph._invalidate_caches()
    return graph


def parse_edge_list(
    text: str, name: str = "", source: str = "<string>", engine: str = "auto"
) -> UncertainGraph:
    """Parse edge-list *text* into an :class:`UncertainGraph`.

    The in-memory counterpart of :func:`read_edge_list` — callers that
    already hold the file's bytes (and have digested them) parse the
    same content instead of re-reading a file that may have changed.
    ``source`` labels error messages.

    ``engine`` selects the implementation: ``"scalar"`` (the
    line-at-a-time reference), ``"fast"`` (chunked bulk conversion), or
    ``"auto"`` (default: fast beyond a line-count threshold).  The two
    engines are bit-identical — same graph, same insertion order, same
    errors — so the knob only exists for testing and benchmarks.

    Raises
    ------
    GraphError
        On malformed lines or out-of-range probabilities.
    """
    if engine not in ("auto", "scalar", "fast"):
        raise ValueError(
            f"engine must be 'auto', 'scalar' or 'fast', got {engine!r}"
        )
    if engine == "auto":
        engine = (
            "fast" if text.count("\n") >= _FAST_PARSE_THRESHOLD else "scalar"
        )
    if engine == "fast":
        return _parse_edge_list_fast(text, name=name, source=source)
    return _parse_edge_list_scalar(text, name=name, source=source)


def read_edge_list(path: "str | os.PathLike", name: str = "") -> UncertainGraph:
    """Parse a ``u v p`` edge list back into an :class:`UncertainGraph`.

    Raises
    ------
    GraphError
        On malformed lines or out-of-range probabilities.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_edge_list(
        text,
        name=name or os.path.basename(os.fspath(path)),
        source=os.fspath(path),
    )
