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

import numpy as np

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


def _edge_lines(pairs, probabilities, tokens: dict) -> list:
    """The ``u v p`` line of each edge: ``tokens`` maps every endpoint to
    its checked token, and ``repr`` writes each probability as the
    shortest string that parses back to the same float."""
    return [
        f"{tokens[u]} {tokens[v]} {p!r}\n"
        for (u, v), p in zip(pairs, probabilities)
    ]


def edge_list_lines(graph: UncertainGraph) -> list:
    """The lines of ``format_edge_list(graph, header=False)``.

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
    lines = _edge_lines(edge_list, graph.probability_array().tolist(), tokens)
    lines += [f"{tokens[vertex]}\n" for vertex in isolated]
    return lines


def patch_edge_list_lines(lines: list, graph: UncertainGraph, eids) -> list:
    """:func:`edge_list_lines` of ``graph`` from those of a graph that
    differs from it only in the probabilities of edges ``eids``.

    Rewrites only the changed edges' lines, so a probability-only delta
    costs O(|delta|) formatting plus one O(m) list copy; ``lines`` is
    left as it was.
    """
    eids = np.asarray(eids, dtype=np.int64).tolist()
    edge_list = graph.edge_list()
    pairs = [edge_list[eid] for eid in eids]
    tokens = {
        vertex: _serialisable_token(vertex)
        for vertex in itertools.chain.from_iterable(pairs)
    }
    probabilities = graph.probability_array()[eids].tolist()
    patched = list(lines)
    for eid, line in zip(eids, _edge_lines(pairs, probabilities, tokens)):
        patched[eid] = line
    return patched


def format_edge_list(graph: UncertainGraph, header: bool = True) -> str:
    """Serialise a graph to the edge-list text format.

    This is the exact content :func:`write_edge_list` writes; exposing it
    as a string lets callers (the artifact server, digests) serialise
    without touching disk.  Probabilities use ``repr`` so the write →
    read round trip is bit-identical.  The lines after the header are
    :func:`edge_list_lines`.
    """
    content = "".join(edge_list_lines(graph))
    if not header:
        return content
    return (
        f"# uncertain graph {graph.name!r}: "
        f"{graph.number_of_vertices()} vertices, "
        f"{graph.number_of_edges()} edges\n"
    ) + content


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


def lines_digest(lines: list) -> str:
    """SHA-256 hex digest of serialised lines joined as UTF-8 text."""
    return content_digest("".join(lines).encode("utf-8"))


def graph_digest(graph: UncertainGraph) -> str:
    """SHA-256 hex digest of a graph's canonical serialisation.

    Name-independent (the header comment carries the name and is
    excluded), so two graphs with identical vertices/edges/probabilities
    digest identically regardless of how they were labelled.  A caller
    that keeps a graph's :func:`edge_list_lines` gets the same digest
    after a probability change from :func:`patch_edge_list_lines` and
    :func:`lines_digest`.
    """
    return lines_digest(edge_list_lines(graph))


#: Lines per parse chunk: bounds pending-token memory and keeps the
#: bulk float conversions in cache-sized batches.
_PARSE_CHUNK = 65536


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
    """Convert pending probability tokens, replaying line-order errors.

    Tokens are converted in line order; the first failure raises exactly
    what reading the lines one at a time raises at that line.  Only the
    first ``range_checked`` tokens get the domain check — a trailing
    token whose line failed *after* conversion (a self-loop) is
    converted but not range-checked, because a graph refuses a
    self-loop before it checks the probability's range (the
    :class:`UncertainGraph` constructor's order).

    Bulk ``numpy`` conversion handles the common all-numeric case in one
    vectorised pass; any failure falls back to a per-token ``float()``
    scan, which both locates the first bad token and accepts the few
    spellings Python allows but numpy doesn't (e.g. ``1_0``).
    """
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


def parse_edge_list(
    text: str, name: str = "", source: str = "<string>"
) -> UncertainGraph:
    """Parse edge-list *text* into an :class:`UncertainGraph`.

    The in-memory counterpart of :func:`read_edge_list` — callers that
    already hold the file's bytes (and have digested them) parse the
    same content instead of re-reading a file that may have changed.
    ``source`` labels error messages.

    The result is the graph that reading the lines one at a time
    builds: vertex ids in first-touch order (bare-vertex lines included),
    a repeated edge keeps its first position and takes its last
    probability, and the first malformed line raises — with the error
    that line-at-a-time parsing gives.  Lines are routed in chunks,
    probability tokens converted in bulk, and labels mapped to ids with
    one dict; the edge rows are then deduplicated and ordered with array
    ops.

    Raises
    ------
    GraphError
        On malformed lines or out-of-range probabilities.
    """
    touched: dict = {}          # vertex tokens in first-touch order
    all_us: list = []
    all_vs: list = []
    prob_chunks: list = []
    lines = text.splitlines()
    for start in range(0, len(lines), _PARSE_CHUNK):
        chunk = lines[start:start + _PARSE_CHUNK]
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
                    # Line order: this line's float() runs before the
                    # self-loop check, earlier lines validate fully.
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
                # structure error — validate them first.
                _convert_probabilities(
                    tokens, len(tokens), source, lines, start
                )
                raise GraphError(
                    f"{source}:{start + offset + 1}: expected 'u v p' or a "
                    f"bare vertex, got {raw.rstrip()!r}"
                )
        prob_chunks.append(
            _convert_probabilities(tokens, len(tokens), source, lines, start)
        )
        # First touches in line order: bare vertices interleave with
        # edges, and an edge touches u before v.
        position = 0
        for edge_position, token in vops:
            touched.update(dict.fromkeys(itertools.chain.from_iterable(
                zip(us[position:edge_position], vs[position:edge_position])
            )))
            touched.setdefault(token)
            position = edge_position
        touched.update(dict.fromkeys(itertools.chain.from_iterable(
            zip(us[position:], vs[position:])
        )))
        all_us += us
        all_vs += vs
    ids = dict(zip(touched, range(len(touched))))
    return UncertainGraph._from_creation_rows(
        list(ids), ids,
        np.fromiter(map(ids.__getitem__, all_us), np.int64, len(all_us)),
        np.fromiter(map(ids.__getitem__, all_vs), np.int64, len(all_vs)),
        np.concatenate(prob_chunks) if prob_chunks else np.empty(0),
        name=name,
    )


def read_edge_list(path: "str | os.PathLike", name: str = "") -> UncertainGraph:
    """Parse a ``u v p`` edge list back into an :class:`UncertainGraph`.

    Raises
    ------
    GraphError
        On a file that is not UTF-8 text (a binary dataset, say), on
        malformed lines or on out-of-range probabilities.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as error:
            raise GraphError(
                f"{os.fspath(path)}: not a UTF-8 edge list ({error.reason} "
                f"at byte {error.start})"
            ) from None
    return parse_edge_list(
        text,
        name=name or os.path.basename(os.fspath(path)),
        source=os.fspath(path),
    )
