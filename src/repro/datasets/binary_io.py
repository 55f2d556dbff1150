"""Compact binary edge-array dataset format (out-of-core I/O).

Layout (little-endian, 64-byte header + three contiguous sections)::

    offset  size  field
    0       4     magic  b"RPBG"
    4       2     format version (currently 1)
    6       2     flags (reserved, 0)
    8       8     vertex count  n   (uint64)
    16      8     edge count    m   (uint64)
    24      1     src  dtype code (1 = int64)
    25      1     dst  dtype code (1 = int64)
    26      1     prob dtype code (2 = float64)
    27      5     reserved (zero)
    32      32    SHA-256 of the payload (raw bytes)
    64      8m    src   int64[m]
    64+8m   8m    dst   int64[m]
    64+16m  8m    prob  float64[m]

The header digest covers exactly the three payload sections, so

- :func:`binary_digest` recovers a content digest in O(header) — the
  artifact server keys its caches on it without hashing gigabytes per
  request, and
- :meth:`BinaryDataset.verify` (or ``read_binary(..., verify=True)``)
  re-hashes the payload against it, detecting any torn write or
  corruption.

``read_binary(path, mmap=True)`` returns ``np.memmap``-backed arrays:
the file is *not* copied into RAM — pages fault in lazily as the
algorithms touch them, and concurrent processes mapping the same file
share the pages read-only.  ``BinaryDataset.graph()`` wraps the arrays
in an :class:`~repro.core.uncertain_graph.UncertainGraph` without a copy
(rows in stored order), which feeds ``SparsificationState`` /
``BackbonePlan`` / ``WorldSampler`` directly and serves every other
algorithm too.

Vertices are dense ids ``0 .. n-1``: the binary format stores topology,
not labels.  ``write_binary`` therefore insists the graph's vertices
*are* ``0 .. n-1`` in indexer order unless ``allow_relabel=True``, in
which case labels are mapped through ``vertex_indexer()`` (the CLI
``convert`` subcommand does this, with a notice).

All structural failures — bad magic, unknown version/dtypes, truncated
or oversized files, digest mismatches — raise
:class:`~repro.exceptions.GraphError`.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from repro.core.uncertain_graph import UncertainGraph, validate_edge_arrays
from repro.exceptions import GraphError

MAGIC = b"RPBG"
VERSION = 1
HEADER_SIZE = 64
_HEADER_STRUCT = struct.Struct("<4sHHQQBBB5s32s")
assert _HEADER_STRUCT.size == HEADER_SIZE

#: dtype codes the header records (room for compressed variants later).
DTYPE_INT64 = 1
DTYPE_FLOAT64 = 2

_BYTES_PER_EDGE = 24  # int64 src + int64 dst + float64 prob


@dataclass(frozen=True)
class BinaryHeader:
    """Decoded header of a binary dataset file."""

    n_vertices: int
    n_edges: int
    digest: str  # sha256 hex of the payload sections
    version: int = VERSION

    @property
    def payload_size(self) -> int:
        return self.n_edges * _BYTES_PER_EDGE

    @property
    def file_size(self) -> int:
        return HEADER_SIZE + self.payload_size


def pack_header(n_vertices: int, n_edges: int, digest: bytes) -> bytes:
    """Encode the 64-byte header (``digest`` is the raw 32-byte hash)."""
    return _HEADER_STRUCT.pack(
        MAGIC, VERSION, 0, n_vertices, n_edges,
        DTYPE_INT64, DTYPE_INT64, DTYPE_FLOAT64, b"\0" * 5, digest,
    )


def parse_header(raw: bytes, source: str = "<bytes>") -> BinaryHeader:
    """Decode and validate a header; raises :class:`GraphError` when malformed."""
    if len(raw) < HEADER_SIZE:
        raise GraphError(
            f"{source}: truncated binary dataset header "
            f"({len(raw)} bytes, need {HEADER_SIZE})"
        )
    (magic, version, _flags, n_vertices, n_edges,
     src_dtype, dst_dtype, prob_dtype, _reserved, digest) = \
        _HEADER_STRUCT.unpack(raw[:HEADER_SIZE])
    if magic != MAGIC:
        raise GraphError(
            f"{source}: not a binary dataset (bad magic {magic!r})"
        )
    if version != VERSION:
        raise GraphError(
            f"{source}: unsupported binary dataset version {version} "
            f"(this build reads version {VERSION})"
        )
    if (src_dtype, dst_dtype, prob_dtype) != \
            (DTYPE_INT64, DTYPE_INT64, DTYPE_FLOAT64):
        raise GraphError(
            f"{source}: unsupported dtype codes "
            f"({src_dtype}, {dst_dtype}, {prob_dtype})"
        )
    return BinaryHeader(
        n_vertices=int(n_vertices), n_edges=int(n_edges),
        digest=digest.hex(), version=int(version),
    )


def is_binary_data(raw: bytes) -> bool:
    """Sniff: do these bytes start a binary dataset?"""
    return raw[:4] == MAGIC


def is_binary_file(path: "str | os.PathLike") -> bool:
    """Sniff a file on disk by its magic (False for unreadable/short files)."""
    try:
        with open(path, "rb") as fh:
            return is_binary_data(fh.read(4))
    except OSError:
        return False


def read_header(path: "str | os.PathLike") -> BinaryHeader:
    """Read and validate a file's header, including the size invariant.

    O(header): reads 64 bytes and one ``stat``.  A file whose size
    disagrees with ``m`` is reported as truncated/corrupt here, before
    any payload access.
    """
    source = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read(HEADER_SIZE)
    except OSError as error:
        raise GraphError(f"cannot read binary dataset {source}: {error}") \
            from error
    header = parse_header(raw, source=source)
    actual = os.path.getsize(path)
    if actual != header.file_size:
        raise GraphError(
            f"{source}: binary dataset truncated or corrupt: "
            f"{actual} bytes on disk, header implies {header.file_size}"
        )
    return header


def binary_digest(path: "str | os.PathLike") -> str:
    """Content digest of a binary dataset in O(header) time.

    Returns the header's payload SHA-256 — the digest
    :func:`write_binary` computed over the sections it wrote.  Callers
    that must *trust* the digest (first registration in the artifact
    server) verify it against the payload once via
    :meth:`BinaryDataset.verify`; afterwards this header read suffices.
    """
    return read_header(path).digest


def _payload_digest(src: np.ndarray, dst: np.ndarray,
                    prob: np.ndarray) -> bytes:
    digest = hashlib.sha256()
    for section in (src, dst, prob):
        digest.update(np.ascontiguousarray(section).data)
    return digest.digest()


class BinaryDataset:
    """A loaded binary dataset: header plus the three edge arrays.

    ``src`` / ``dst`` / ``probabilities`` are ``np.memmap`` views when
    the dataset was opened with ``mmap=True`` (read-only, lazily paged,
    page-shared between processes) and plain arrays otherwise.
    """

    def __init__(
        self,
        header: BinaryHeader,
        src: np.ndarray,
        dst: np.ndarray,
        probabilities: np.ndarray,
        path: "str | None" = None,
        name: str = "",
    ) -> None:
        self.header = header
        self.src = src
        self.dst = dst
        self.probabilities = probabilities
        self.path = path
        self.name = name or (os.path.basename(path) if path else "")

    @property
    def n_vertices(self) -> int:
        return self.header.n_vertices

    @property
    def n_edges(self) -> int:
        return self.header.n_edges

    @property
    def digest(self) -> str:
        """The header's payload SHA-256 (hex) — the cache-key digest."""
        return self.header.digest

    def verify(self) -> None:
        """Re-hash the payload against the header digest.

        Raises :class:`GraphError` on mismatch.  Costs one sequential
        pass over the sections (pages each in once under ``mmap``).
        """
        actual = _payload_digest(self.src, self.dst, self.probabilities).hex()
        if actual != self.header.digest:
            where = self.path or "<memory>"
            raise GraphError(
                f"{where}: binary dataset payload does not match its header "
                f"digest (file corrupt or rewritten): "
                f"header {self.header.digest[:12]}…, payload {actual[:12]}…"
            )

    def graph(self, name: "str | None" = None) -> UncertainGraph:
        """The dataset as an :class:`UncertainGraph` over the arrays.

        No copy and no check (the writer validated, the digest pins the
        bytes): O(1), and out-of-core when mmap-backed.  Vertices are
        ``range(n)`` and rows keep their stored order; the edge list,
        indexer and adjacency are built only if a caller asks.
        """
        return UncertainGraph._from_stored_rows(
            self.n_vertices, self.src, self.dst, self.probabilities,
            name=self.name if name is None else name,
        )


def write_binary_arrays(
    path: "str | os.PathLike",
    n_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    probabilities: np.ndarray,
    validate: bool = True,
) -> BinaryHeader:
    """Write edge arrays as a binary dataset; returns the header written.

    ``validate=True`` runs the array-level well-formedness checks
    (:func:`~repro.core.uncertain_graph.validate_edge_arrays`) first, so
    no malformed file is ever produced with a valid digest.
    """
    src = np.ascontiguousarray(src, dtype="<i8").reshape(-1)
    dst = np.ascontiguousarray(dst, dtype="<i8").reshape(-1)
    prob = np.ascontiguousarray(probabilities, dtype="<f8").reshape(-1)
    if not (len(src) == len(dst) == len(prob)):
        raise GraphError(
            f"edge array lengths disagree: src={len(src)} dst={len(dst)} "
            f"prob={len(prob)}"
        )
    if validate:
        if n_vertices < 0:
            raise GraphError(
                f"vertex count must be non-negative, got {n_vertices}"
            )
        validate_edge_arrays(n_vertices, src, dst, prob)
    digest = _payload_digest(src, dst, prob)
    header = BinaryHeader(
        n_vertices=int(n_vertices), n_edges=len(prob), digest=digest.hex(),
    )
    with open(path, "wb") as fh:
        fh.write(pack_header(header.n_vertices, header.n_edges, digest))
        fh.write(src.data)
        fh.write(dst.data)
        fh.write(prob.data)
    return header


def _label_value(label) -> "int | None":
    """A vertex label's integer value, or ``None`` when it has none.

    Only a non-bool integer or the canonical decimal spelling of one
    (``str(int(s)) == s``) counts: ``"00"``, ``" 1"``, ``1.5``, ``0.0``
    and ``True`` have no integer value here, so storing them is a
    relabel rather than a silent coercion.
    """
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
        return int(label)
    if isinstance(label, str):
        try:
            value = int(label)
        except ValueError:
            return None
        if str(value) == label:
            return value
    return None


def stored_vertex_ids(graph) -> "np.ndarray | None":
    """The id :func:`write_binary` stores for each dense vertex id.

    When the graph's labels are exactly the ints ``0 .. n-1`` (in any
    iteration order, or spelled as the decimal strings a text file
    parses to) each vertex is stored under its own label's value.  Any
    other label set returns ``None``: writing it replaces the labels by
    their dense indexer positions.  A label counts as an int only when
    it is one (not a bool) or is its canonical decimal string, so
    ``"00"``, ``1.5`` or ``True`` never pass as 0, 1 or 1.
    """
    n = graph.number_of_vertices()
    labels = graph.vertices()
    if isinstance(labels, range):  # stored rows: the labels are the ids
        return np.arange(n, dtype=np.int64)
    if not all(type(label) is int for label in labels):
        labels = [_label_value(label) for label in labels]
        if None in labels:
            return None
    # Labels may be the dense ints in scrambled order (e.g. a generator
    # inserting vertices in edge-creation order): map the indexer
    # positions back to the true labels so ids round-trip.
    try:
        ids = np.array(labels, dtype=np.int64)
    except OverflowError:
        return None
    if np.array_equal(np.sort(ids), np.arange(n, dtype=np.int64)):
        return ids
    return None


def write_binary(
    graph,
    path: "str | os.PathLike",
    allow_relabel: bool = False,
) -> BinaryHeader:
    """Write a graph to ``path``.

    The format stores dense integer ids only.  When the graph's labels
    are exactly the ints ``0 .. n-1`` (in any iteration order) they are
    written as-is — a lossless round trip (:func:`stored_vertex_ids`).
    Any other label set is *lossy* (labels are replaced by their dense
    indexer positions) and requires an explicit ``allow_relabel=True``;
    otherwise :class:`GraphError` is raised.
    """
    return write_binary_ids(
        graph, path, stored_vertex_ids(graph), allow_relabel=allow_relabel
    )


def write_binary_ids(
    graph,
    path: "str | os.PathLike",
    ids: "np.ndarray | None",
    allow_relabel: bool = False,
) -> BinaryHeader:
    """:func:`write_binary` with ``ids = stored_vertex_ids(graph)``
    already computed, for a caller that also needs to know whether the
    write relabels (``ids is None``) and should not scan the labels
    twice."""
    if ids is None and not allow_relabel:
        raise GraphError(
            "binary datasets store dense integer vertices 0..n-1; "
            "this graph has other labels — pass allow_relabel=True "
            "to map them through vertex_indexer() (lossy: labels "
            "are dropped)"
        )
    endpoints = graph.edge_index_array()
    src, dst = endpoints[:, 0], endpoints[:, 1]
    if ids is not None:
        src, dst = ids[src], ids[dst]
    return write_binary_arrays(
        path, graph.number_of_vertices(), src, dst,
        graph.probability_array(),
        validate=False,  # edge views of a live graph are well-formed
    )


def read_binary(
    path: "str | os.PathLike",
    mmap: bool = False,
    verify: bool = False,
    name: str = "",
) -> BinaryDataset:
    """Load a binary dataset.

    Parameters
    ----------
    path:
        Dataset file.
    mmap:
        ``True`` returns read-only ``np.memmap`` sections — O(header)
        load time, lazy paging, cross-process page sharing.  ``False``
        reads the sections into RAM (still one bulk ``fromfile`` per
        section, no Python-level loop).
    verify:
        Re-hash the payload against the header digest before returning
        (one sequential pass; raises :class:`GraphError` on mismatch).
    name:
        Optional dataset label (defaults to the file's basename).

    Raises
    ------
    GraphError
        On bad magic, unsupported version/dtypes, size mismatch
        (truncation), or — with ``verify=True`` — digest mismatch.
    """
    header = read_header(path)
    m = header.n_edges
    offsets = (HEADER_SIZE, HEADER_SIZE + 8 * m, HEADER_SIZE + 16 * m)
    if m == 0:
        # mmap cannot map zero bytes; an edgeless dataset is just arrays.
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        prob = np.empty(0, dtype=np.float64)
    elif mmap:
        src = np.memmap(path, dtype="<i8", mode="r", offset=offsets[0],
                        shape=(m,))
        dst = np.memmap(path, dtype="<i8", mode="r", offset=offsets[1],
                        shape=(m,))
        prob = np.memmap(path, dtype="<f8", mode="r", offset=offsets[2],
                         shape=(m,))
    else:
        with open(path, "rb") as fh:
            fh.seek(HEADER_SIZE)
            src = np.fromfile(fh, dtype="<i8", count=m)
            dst = np.fromfile(fh, dtype="<i8", count=m)
            prob = np.fromfile(fh, dtype="<f8", count=m)
        if len(prob) != m:  # pragma: no cover - read_header checks size
            raise GraphError(f"{os.fspath(path)}: binary dataset truncated")
    dataset = BinaryDataset(
        header, src, dst, prob, path=os.fspath(path), name=name,
    )
    if verify:
        dataset.verify()
    return dataset
