"""Binary edge-array dataset format: round trips, digests, corruption.

The contracts under test:

- text ↔ binary round trips are lossless for dense-integer-labelled
  graphs — same vertices, same undirected edges, bit-identical
  probabilities — and serialising a given graph is deterministic
  (same bytes every time, hence stable digests),
- ``mmap=True`` and in-memory loads expose bit-identical arrays,
- the header digest (``binary_digest``, O(header)) equals the payload
  hash, and every structural corruption — bad magic, version, dtypes,
  truncation, payload tampering — raises :class:`GraphError` instead of
  producing a wrong graph.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UncertainGraph
from repro.datasets import (
    binary_digest,
    graph_digest,
    is_binary_file,
    read_binary,
    read_edge_list,
    read_header,
    write_binary,
    write_binary_arrays,
    write_edge_list,
)
from repro.datasets.binary_io import (
    HEADER_SIZE,
    MAGIC,
    _HEADER_STRUCT,
    BinaryHeader,
    is_binary_data,
    pack_header,
    parse_header,
    stored_vertex_ids,
)
from repro.exceptions import GraphError


def dense_graph(n, edges_with_probs, name="g"):
    return UncertainGraph(edges_with_probs, vertices=range(n), name=name)


@pytest.fixture
def sample(tmp_path):
    g = dense_graph(6, [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 1.0),
                        (0, 4, 0.125), (3, 4, 5e-324)])
    path = tmp_path / "g.bin"
    header = write_binary(g, path)
    return g, path, header


probabilities = st.floats(
    min_value=0.0, max_value=1.0, exclude_min=True,
    allow_nan=False, allow_infinity=False,
)


@st.composite
def dense_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(
        st.sampled_from(possible), unique=True, max_size=min(len(possible), 30),
    )) if possible else []
    probs = draw(st.lists(
        probabilities, min_size=len(pairs), max_size=len(pairs),
    ))
    return dense_graph(n, [(u, v, p) for (u, v), p in zip(pairs, probs)])


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(dense_graphs())
    def test_text_binary_round_trip(self, tmp_path_factory, g):
        tmp = tmp_path_factory.mktemp("rt")
        binary = tmp / "g.bin"
        text = tmp / "g.txt"
        header = write_binary(g, binary)
        assert header.n_vertices == g.number_of_vertices()
        assert header.n_edges == g.number_of_edges()

        # binary → graph: identical content, identical digest
        for mmap in (False, True):
            loaded = read_binary(binary, mmap=mmap, verify=True)
            assert loaded.digest == header.digest
            view = loaded.graph()
            assert np.array_equal(view.edge_index_array(),
                                  g.edge_index_array())
            assert np.array_equal(view.probability_array(),
                                  g.probability_array())
            assert graph_digest(view) == graph_digest(g)

        # mmap and in-memory loads expose the same bits
        a = read_binary(binary, mmap=True)
        b = read_binary(binary, mmap=False)
        assert np.array_equal(np.asarray(a.src), b.src)
        assert np.array_equal(np.asarray(a.dst), b.dst)
        assert np.array_equal(np.asarray(a.probabilities), b.probabilities)

        # text → graph → binary: content round trips exactly (labels
        # become numeric strings after the text hop; the dense-set
        # writer maps them back to the same integer ids, and repr keeps
        # every probability bit)
        write_edge_list(g, text)
        reparsed = read_edge_list(text)
        binary2 = tmp / "g2.bin"
        write_binary(reparsed, binary2)
        loaded2 = read_binary(binary2, verify=True)
        assert loaded2.n_vertices == g.number_of_vertices()
        original = {frozenset((u, v)): p for u, v, p in g.edges()}
        restored = {frozenset((int(u), int(v))): p
                    for u, v, p in loaded2.graph().edges()}
        assert restored == original

        # determinism: a given graph always serialises to the same bytes
        binary3 = tmp / "g3.bin"
        write_binary(reparsed, binary3)
        assert binary3.read_bytes() == binary2.read_bytes()
        assert binary_digest(binary3) == binary_digest(binary2)

    def test_empty_graph_round_trip(self, tmp_path):
        g = dense_graph(4, [])
        path = tmp_path / "empty.bin"
        write_binary(g, path)
        for mmap in (False, True):
            loaded = read_binary(path, mmap=mmap, verify=True)
            assert loaded.n_vertices == 4
            assert loaded.n_edges == 0
            assert loaded.graph().number_of_edges() == 0

    def test_mmap_arrays_are_lazy_views(self, sample):
        _g, path, _header = sample
        loaded = read_binary(path, mmap=True)
        assert isinstance(loaded.src, np.memmap)
        assert isinstance(loaded.probabilities, np.memmap)
        with pytest.raises((ValueError, OSError)):
            loaded.src[0] = 99  # read-only mapping

    def test_scrambled_dense_labels_are_lossless(self, tmp_path):
        # Vertices inserted in edge-creation order (the ER generator's
        # shape): the label *set* is dense, the iteration order is not.
        g = UncertainGraph([(3, 1, 0.5), (0, 2, 0.25), (1, 0, 0.75)])
        assert list(g.vertices()) != list(range(4))
        path = tmp_path / "scrambled.bin"
        write_binary(g, path)
        loaded = read_binary(path)
        restored = {frozenset((int(u), int(v))): p
                    for u, v, p in loaded.graph().edges()}
        assert restored == {frozenset(e): p for e, p in
                            [((3, 1), 0.5), ((0, 2), 0.25), ((1, 0), 0.75)]}

    def test_non_dense_labels_require_allow_relabel(self, tmp_path):
        g = UncertainGraph([("a", "b", 0.5), ("b", "c", 0.25)])
        path = tmp_path / "labels.bin"
        with pytest.raises(GraphError, match="allow_relabel"):
            write_binary(g, path)
        write_binary(g, path, allow_relabel=True)
        loaded = read_binary(path, verify=True)
        assert loaded.n_vertices == 3
        assert np.array_equal(loaded.src, [0, 1])
        assert np.array_equal(loaded.dst, [1, 2])

    @pytest.mark.parametrize(
        "labels",
        [["00", "1", "2"], [0.0, 1.5, 2.25], [True, 0]],
        ids=["padded-decimal", "floats", "bool"],
    )
    def test_labels_without_an_int_value_need_allow_relabel(self, tmp_path,
                                                            labels):
        # "00" is not stored as 0, 1.5 not as 1, True not as 1: only a
        # non-bool int or a canonical decimal string keeps its value.
        g = UncertainGraph(
            [(u, v, 0.5) for u, v in zip(labels, labels[1:])]
        )
        assert stored_vertex_ids(g) is None
        path = tmp_path / "labels.bin"
        with pytest.raises(GraphError, match="allow_relabel"):
            write_binary(g, path)
        write_binary(g, path, allow_relabel=True)
        loaded = read_binary(path, verify=True)
        assert np.array_equal(loaded.src, np.arange(len(labels) - 1))
        assert np.array_equal(loaded.dst, np.arange(1, len(labels)))

    def test_int_valued_labels_keep_their_values(self):
        g = UncertainGraph([("2", "0", 0.5), (np.int64(1), "2", 0.25)])
        assert stored_vertex_ids(g).tolist() == [2, 0, 1]

    def test_from_arrays_feeds_state_without_materialising(self, sample):
        from repro.core.backbone import BackbonePlan
        from repro.core.discrepancy import SparsificationState
        from repro.core.grid import gdb_grid
        from repro.sampling import WorldSampler

        g, path, _header = sample
        dataset = read_binary(path, mmap=True)
        view = dataset.graph()
        assert isinstance(view, UncertainGraph)
        assert view.vertices() == range(6)
        state = SparsificationState(view)
        assert state.m == view.number_of_edges()
        reference = SparsificationState(g)
        assert np.array_equal(state.original_degrees,
                              reference.original_degrees)
        assert np.array_equal(state.edge_vertices, reference.edge_vertices)
        # The array-native paths build no label list, identity indexer,
        # edge-list tuples, pair map or adjacency: the rows stay the
        # mapped arrays, and a result graph shares the range labels.
        BackbonePlan(view).backbone(0.9)
        gdb_grid(view, [0.9], [0.25], rng=5, build_graphs=False)
        WorldSampler(view).sample_mask_matrix(4, rng=0)
        state.select_edges(np.array([0, 2]), np.array([0.5, 0.75]))
        result = state.build_graph()
        assert result.vertices() == range(6)
        for graph in (view, result):
            assert isinstance(graph._labels, range)
            assert graph._ids is None
            assert graph._edge_list is None
            assert graph._pairs is None
            assert graph._csr is None
        assert view._src is dataset.src and view._dst is dataset.dst
        assert view.probability_array() is dataset.probabilities


class TestDigest:
    def test_binary_digest_is_header_digest(self, sample):
        _g, path, header = sample
        assert binary_digest(path) == header.digest
        assert read_binary(path).digest == header.digest

    def test_digest_tracks_content(self, tmp_path):
        a = write_binary_arrays(tmp_path / "a.bin", 3, [0, 1], [1, 2],
                                [0.5, 0.25])
        b = write_binary_arrays(tmp_path / "b.bin", 3, [0, 1], [1, 2],
                                [0.5, 0.25])
        c = write_binary_arrays(tmp_path / "c.bin", 3, [0, 1], [1, 2],
                                [0.5, 0.125])
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_sniffing(self, sample, tmp_path):
        _g, path, _header = sample
        assert is_binary_file(path)
        assert is_binary_data(path.read_bytes())
        text = tmp_path / "t.txt"
        text.write_text("a b 0.5\n")
        assert not is_binary_file(text)
        assert not is_binary_file(tmp_path / "missing.bin")


class TestCorruption:
    def test_payload_tampering_detected_by_verify(self, sample):
        _g, path, _header = sample
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        # O(header) reads still succeed — only verify re-hashes.
        read_header(path)
        with pytest.raises(GraphError, match="digest"):
            read_binary(path, verify=True)
        with pytest.raises(GraphError, match="digest"):
            read_binary(path, mmap=True).verify()

    def test_truncated_payload(self, sample):
        _g, path, _header = sample
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(GraphError, match="truncated or corrupt"):
            read_header(path)
        with pytest.raises(GraphError, match="truncated or corrupt"):
            read_binary(path)

    def test_oversized_file(self, sample):
        _g, path, _header = sample
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        with pytest.raises(GraphError, match="truncated or corrupt"):
            read_binary(path)

    def test_truncated_header(self, sample):
        _g, path, _header = sample
        path.write_bytes(path.read_bytes()[:HEADER_SIZE - 10])
        with pytest.raises(GraphError, match="truncated"):
            read_header(path)

    def test_bad_magic(self, sample):
        _g, path, _header = sample
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphError, match="not a binary dataset"):
            read_binary(path)

    def test_unsupported_version(self, tmp_path):
        header = bytearray(pack_header(2, 0, b"\0" * 32))
        struct.pack_into("<H", header, 4, 99)
        path = tmp_path / "v99.bin"
        path.write_bytes(bytes(header))
        with pytest.raises(GraphError, match="version 99"):
            read_header(path)

    def test_unsupported_dtype_codes(self, tmp_path):
        header = bytearray(pack_header(2, 0, b"\0" * 32))
        header[24] = 7
        path = tmp_path / "dtype.bin"
        path.write_bytes(bytes(header))
        with pytest.raises(GraphError, match="dtype"):
            read_header(path)

    def test_parse_header_roundtrip(self):
        raw = pack_header(10, 3, b"\xab" * 32)
        header = parse_header(raw)
        assert header == BinaryHeader(n_vertices=10, n_edges=3,
                                      digest=("ab" * 32))
        assert header.file_size == HEADER_SIZE + 3 * 24
        assert _HEADER_STRUCT.size == HEADER_SIZE
        assert raw[:4] == MAGIC

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read"):
            read_header(tmp_path / "missing.bin")


class TestWriteValidation:
    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(GraphError):
            write_binary_arrays(tmp_path / "bad.bin", 3, [0, 1], [1],
                                [0.5, 0.25])

    def test_malformed_arrays_never_written_with_valid_digest(self, tmp_path):
        # validate=True runs the array checks up front.
        with pytest.raises(Exception):
            write_binary_arrays(tmp_path / "bad.bin", 2, [0], [5], [0.5])

    def test_edge_array_graph_round_trip(self, tmp_path):
        view = UncertainGraph.from_edge_arrays(
            range(4), [[0, 1], [1, 2], [2, 3]], [0.5, 0.25, 1.0]
        )
        path = tmp_path / "view.bin"
        write_binary(view, path)
        loaded = read_binary(path, verify=True).graph()
        assert np.array_equal(loaded.edge_index_array(),
                              view.edge_index_array())
        assert np.array_equal(loaded.probability_array(),
                              view.probability_array())
