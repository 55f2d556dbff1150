"""Edge-list I/O round trips and error handling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.io import parse_edge_list_scalar
from repro.core import UncertainGraph
from repro.core.delta import EdgeDeltaBatch, apply_delta
from repro.datasets import (
    dataset_digest,
    parse_edge_list,
    flickr_like,
    format_edge_list,
    graph_digest,
    read_edge_list,
    write_edge_list,
)
from repro.datasets.io import edge_list_lines, lines_digest, patch_edge_list_lines
from repro.exceptions import GraphError


def test_roundtrip(tmp_path, small_power_law):
    path = tmp_path / "graph.txt"
    write_edge_list(small_power_law, path)
    back = read_edge_list(path)
    # vertex tokens become strings on read
    assert back.number_of_edges() == small_power_law.number_of_edges()
    for u, v, p in small_power_law.edges():
        assert back.probability(str(u), str(v)) == pytest.approx(p, abs=1e-9)


def test_isolated_vertices_roundtrip(tmp_path):
    g = UncertainGraph([(0, 1, 0.5)], vertices=["lonely"])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.number_of_vertices() == 3
    assert "lonely" in back


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n\na b 0.5  # trailing comment\n\nc\n")
    g = read_edge_list(path)
    assert g.number_of_edges() == 1
    assert g.probability("a", "b") == 0.5
    assert "c" in g


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_undecodable_file_rejected_naming_path(tmp_path):
    path = tmp_path / "g.bin"
    path.write_bytes(b"0 1 0.5\n\xc8\xff 2 0.5\n")
    with pytest.raises(GraphError, match="not a UTF-8 edge list") as info:
        read_edge_list(path)
    assert str(path) in str(info.value)


def test_non_numeric_probability_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b xyz\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_out_of_range_probability_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b 1.5\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_name_defaults_to_filename(tmp_path):
    path = tmp_path / "mygraph.txt"
    write_edge_list(UncertainGraph([(0, 1, 0.5)]), path)
    assert read_edge_list(path).name == "mygraph.txt"


def test_precision_preserved(tmp_path):
    g = UncertainGraph([(0, 1, 0.123456789)])
    path = tmp_path / "p.txt"
    write_edge_list(g, path)
    assert read_edge_list(path).probability("0", "1") == pytest.approx(
        0.123456789, abs=1e-9
    )


def test_roundtrip_bit_identical(tmp_path):
    # repr() serialisation: the awkward cases a fixed-precision format
    # loses — 17-significant-digit values, subnormal-adjacent tiny
    # probabilities, and 1 - 2^-53.
    probs = [0.1, 0.3333333333333333, 0.9999999999999999, 5e-324, 0.7 * 0.3]
    g = UncertainGraph([(i, i + 1, p) for i, p in enumerate(probs)])
    path = tmp_path / "exact.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    for i, p in enumerate(probs):
        assert back.probability(str(i), str(i + 1)) == p  # exact, not approx


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0,
                  exclude_min=True, allow_nan=False),
        min_size=1, max_size=30,
    )
)
def test_roundtrip_bit_identical_property(tmp_path_factory, probs):
    g = UncertainGraph([(i, i + 1, p) for i, p in enumerate(probs)])
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    for i, p in enumerate(probs):
        assert back.probability(str(i), str(i + 1)) == p
    # A second round trip is a fixed point: same bytes, same digest.
    path2 = tmp_path_factory.mktemp("io") / "g2.txt"
    write_edge_list(back, path2)
    assert path.read_text().splitlines()[1:] == path2.read_text().splitlines()[1:]
    assert graph_digest(back) == graph_digest(g)


@pytest.mark.parametrize("vertex", ["has space", "tab\tsep", "new\nline",
                                    "comment#start", "#", ""])
def test_unserialisable_edge_token_rejected_at_write(tmp_path, vertex):
    g = UncertainGraph([(vertex, "ok", 0.5)])
    with pytest.raises(GraphError, match="serialis"):
        write_edge_list(g, tmp_path / "bad.txt")


def test_unserialisable_isolated_token_rejected_at_write(tmp_path):
    g = UncertainGraph([("a", "b", 0.5)], vertices=["lone some"])
    with pytest.raises(GraphError, match="serialis"):
        write_edge_list(g, tmp_path / "bad.txt")


def test_unserialisable_token_never_written(tmp_path):
    # The rejection happens before the file is created/overwritten in a
    # mis-parseable state: both directions of the regression.
    path = tmp_path / "g.txt"
    with pytest.raises(GraphError):
        write_edge_list(UncertainGraph([("u v", "w", 0.5)]), path)
    # Had the write gone through, the reader would have seen 4 tokens:
    path.write_text("u v w 0.5\n")
    with pytest.raises(GraphError):
        read_edge_list(path)


def test_hash_token_silently_misparsed_without_write_guard(tmp_path):
    # Documents the read-side failure the write guard prevents: '#'
    # starts a comment, so an unguarded write would silently drop data.
    path = tmp_path / "g.txt"
    path.write_text("a #b 0.5\n")
    g = read_edge_list(path)
    assert g.number_of_edges() == 0  # the line degenerated to a bare vertex


def test_dataset_digest_tracks_content(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("x y 0.5\n")
    b.write_text("x y 0.5\n")
    assert dataset_digest(a) == dataset_digest(b)
    b.write_text("x y 0.25\n")
    assert dataset_digest(a) != dataset_digest(b)


def test_graph_digest_name_independent(small_power_law):
    renamed = small_power_law.copy(name="something else entirely")
    assert graph_digest(renamed) == graph_digest(small_power_law)
    p = float(small_power_law.probability_array()[0])
    mutated = apply_delta(
        small_power_law, EdgeDeltaBatch(update_eids=[0], update_ps=[p / 2]),
        in_place=False,
    ).graph
    assert graph_digest(mutated) != graph_digest(small_power_law)


def test_format_edge_list_matches_file(tmp_path, small_sparse):
    path = tmp_path / "g.txt"
    write_edge_list(small_sparse, path)
    assert path.read_text() == format_edge_list(small_sparse)


_tokens = st.sampled_from(["a", "b", "c", "d", "e", "1", "2", "é"])
_prob_tokens = st.one_of(
    st.floats(min_value=1e-6, max_value=1.0).map(repr),
    st.sampled_from(["0.0", "2.0", "-0.5", "nan", "inf", "xx", "1_0", "1e-3",
                     ".5", "1"]),
)
_text_lines = st.one_of(
    st.tuples(_tokens, _tokens, _prob_tokens).map(" ".join),
    _tokens,
    st.sampled_from(["", "   ", "# comment", "a b 0.5 # trailing",
                     "a b", "a b 0.5 extra", "\t c  d  0.25 "]),
)


class TestParseEngineParity:
    """The chunked parser is pinned to the line-at-a-time oracle
    (``oracles.io.parse_edge_list_scalar``, which adds each line through
    the dict oracle graph's per-edge API).

    Same graph (vertices, edges, insertion order, Python-float
    probabilities), same serialisation, and the same exception type /
    message / line number on every malformed input.
    """

    @staticmethod
    def both(text):
        return (parse_edge_list_scalar(text, source="f"),
                parse_edge_list(text, source="f"))

    def assert_identical(self, text):
        scalar, fast = self.both(text)
        assert list(scalar.vertices()) == list(fast.vertices())
        assert list(scalar.edges()) == list(fast.edges())
        assert scalar.edge_index_array().tobytes() == \
            fast.edge_index_array().tobytes()
        assert [list(scalar.neighbors(v).items()) for v in scalar] == \
            [list(fast.neighbors(v).items()) for v in fast]
        assert format_edge_list(scalar) == format_edge_list(fast)
        for _u, _v, p in fast.edges():
            assert type(p) is float  # repr(np.float64) would break writes

    def assert_same_error(self, text):
        errors = []
        for parse in (parse_edge_list_scalar, parse_edge_list):
            with pytest.raises(Exception) as excinfo:
                parse(text, source="f")
            errors.append(excinfo.value)
        scalar_error, fast_error = errors
        assert type(scalar_error) is type(fast_error)
        assert str(scalar_error) == str(fast_error)

    def test_fixture_files_identical(self, small_power_law, small_sparse):
        for g in (small_power_law, small_sparse):
            self.assert_identical(format_edge_list(g))

    def test_structure_variants_identical(self):
        self.assert_identical(
            "# header\n\nv0\na b 0.5\nv1\n  c   d  0.25  # trailing\n"
            "a b 0.75\nv0\n\n# tail\n"
        )
        self.assert_identical("")
        self.assert_identical("x\ny\nz\n")

    def test_repr_floats_identical(self):
        probs = [0.1, 0.3333333333333333, 0.9999999999999999, 5e-324,
                 0.7 * 0.3, 1.0]
        text = "".join(f"u{i} w{i} {p!r}\n" for i, p in enumerate(probs))
        scalar, fast = self.both(text)
        for i, p in enumerate(probs):
            assert fast.probability(f"u{i}", f"w{i}") == p  # exact
        assert list(scalar.edges()) == list(fast.edges())

    def test_large_input_identical(self):
        # Big enough that the parser runs multiple full chunks.
        import random

        rng = random.Random(11)
        lines = []
        for i in range(3000):
            roll = rng.random()
            if roll < 0.02:
                lines.append(f"iso{i}")
            elif roll < 0.04:
                lines.append("# comment")
            else:
                lines.append(
                    f"n{rng.randrange(400)} m{rng.randrange(400)} "
                    f"{rng.random()!r}"
                )
        self.assert_identical("\n".join(lines) + "\n")

    @pytest.mark.parametrize("text", [
        "a b 0.5\nc d\n",                      # structure error
        "a b 0.5\nc d xx\ne f 0.2\n",          # non-numeric probability
        "a b 0.5\nc d 2.0\n",                  # out of range
        "a b 0.0\n",                           # zero probability
        "a b 0.5\nc c 0.2\n",                  # self-loop
        "a b zz\nc c 0.2\n",                   # parse error beats self-loop
        "a b 3.0\nc c 0.2\n",                  # range error beats self-loop
        "a a 0.5\n",                           # self-loop on first line
        "a b 1_0\n",                           # float() accepts, range fails
        "a b nan\n",                           # converts, domain rejects
        "a b 0.5\nc d 0.3 extra\n",            # four tokens
        "a b xx\nc d yy\n",                    # first bad token wins
    ])
    def test_error_parity(self, text):
        self.assert_same_error(text)

    def test_error_parity_beyond_first_chunk(self):
        from repro.datasets.io import _PARSE_CHUNK

        prefix = "a b 0.5\n" * (_PARSE_CHUNK + 7)
        self.assert_same_error(prefix + "bad line with four tokens\n")
        self.assert_same_error(prefix + "c d not-a-number\n")

    @settings(max_examples=120, deadline=None)
    @given(lines=st.lists(_text_lines, max_size=40), big=st.booleans())
    def test_random_texts_match_line_at_a_time(self, lines, big):
        """Random texts below 8,192 lines: the same graph, or the same
        error type, message and line."""
        if big:  # push the random lines past a few thousand edge lines
            lines = ["f0 f1 0.5"] * 5000 + lines + ["f2 f3 0.25"] * 3000
        text = "\n".join(lines)
        try:
            scalar = parse_edge_list_scalar(text, source="f")
        except Exception as error:  # noqa: BLE001 - any error must match
            with pytest.raises(type(error)) as excinfo:
                parse_edge_list(text, source="f")
            assert str(excinfo.value) == str(error)
            return
        fast = parse_edge_list(text, source="f")
        assert list(fast.vertices()) == list(scalar.vertices())
        assert fast.edge_list() == scalar.edge_list()
        assert fast.probability_array().tobytes() == \
            scalar.probability_array().tobytes()
        assert format_edge_list(fast) == format_edge_list(scalar)


# -- format_edge_list against the per-edge writer it replaced ---------------

def _reference_token(vertex):
    token = str(vertex)
    if not token or "#" in token or any(ch.isspace() for ch in token):
        raise GraphError(
            f"vertex {vertex!r} cannot be serialised as an edge-list token: "
            f"tokens must be non-empty and contain no whitespace or '#'"
        )
    return token


def reference_format_edge_list(graph, header=True):
    """The per-edge loop ``format_edge_list`` used to run: the oracle."""
    lines = []
    if header:
        lines.append(
            f"# uncertain graph {graph.name!r}: "
            f"{graph.number_of_vertices()} vertices, "
            f"{graph.number_of_edges()} edges\n"
        )
    touched = set()
    for u, v, p in graph.edges():
        lines.append(f"{_reference_token(u)} {_reference_token(v)} {p!r}\n")
        touched.add(u)
        touched.add(v)
    for vertex in graph.vertices():
        if vertex not in touched:
            lines.append(f"{_reference_token(vertex)}\n")
    return "".join(lines)


def _outcome(formatter, graph, header):
    try:
        return formatter(graph, header=header)
    except GraphError as error:
        return ("GraphError", str(error))


_probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                           allow_nan=False)
_good_labels = st.one_of(
    st.integers(-40, 40),
    st.text(alphabet="abz09_-.é中", min_size=1, max_size=3),
)
# Spaces, tabs, '#' and the empty string cannot be written as tokens;
# '\x1c' is whitespace to str.isspace() though not to most eyes.
_any_labels = st.one_of(
    _good_labels,
    st.text(alphabet="ab #\t\x1c　", max_size=3),
)


@st.composite
def _uncertain_graphs(draw, labels=_good_labels):
    """Graphs with int and string labels, isolated vertices, both edge
    orientations and any insertion order (rows are not canonical)."""
    pool = draw(st.lists(labels, min_size=2, max_size=10, unique=True))
    vertices = draw(st.lists(st.sampled_from(pool), unique=True))
    edges = draw(st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool), _probabilities)
        .filter(lambda e: e[0] != e[1]),
        max_size=25,
    ))
    return UncertainGraph(edges, vertices=vertices,
                          name=draw(st.text(max_size=4)))


class TestFormatEdgeListOracle:
    """``format_edge_list`` writes the old per-edge loop's bytes."""

    @settings(max_examples=120, deadline=None)
    @given(graph=_uncertain_graphs(), header=st.booleans())
    def test_matches_reference(self, graph, header):
        assert format_edge_list(graph, header=header) == \
            reference_format_edge_list(graph, header=header)
        assert graph_digest(graph) == hashlib.sha256(
            reference_format_edge_list(graph, header=False).encode("utf-8")
        ).hexdigest()

    @settings(max_examples=80, deadline=None)
    @given(graph=_uncertain_graphs(), data=st.data())
    def test_matches_reference_after_mutations(self, graph, data):
        graph.probability_array()  # warm caches: updates keep them
        for _ in range(data.draw(st.integers(1, 6))):
            m = graph.number_of_edges()
            n = graph.number_of_vertices()
            eids = data.draw(st.lists(
                st.integers(0, max(m - 1, 0)), unique=True, max_size=min(m, 5)))
            split = data.draw(st.integers(0, len(eids)))
            existing = {tuple(sorted(row))
                        for row in graph.edge_index_array().tolist()}
            free = [(a, b) for a in range(n) for b in range(a + 1, n)
                    if (a, b) not in existing]
            inserts = data.draw(st.lists(st.sampled_from(free), unique=True,
                                         max_size=3)) if free else []
            batch = EdgeDeltaBatch(
                update_eids=eids[:split],
                update_ps=[data.draw(_probabilities) for _ in eids[:split]],
                delete_eids=eids[split:],
                insert_endpoints=inserts,
                insert_ps=[data.draw(_probabilities) for _ in inserts],
            )
            graph = apply_delta(graph, batch,
                                in_place=data.draw(st.booleans())).graph
            assert format_edge_list(graph) == reference_format_edge_list(graph)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_edge_array_graph_matches_reference(self, data):
        """A graph over stored edge rows (the binary loader's wrapping:
        any orientation, any order) serialises like the reference."""
        n = data.draw(st.integers(0, 12))
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0))),
            max_size=20, unique_by=lambda e: (min(e), max(e)),
        ))
        pairs = [(u, v) for u, v in pairs if u != v]
        probs = [data.draw(_probabilities) for _ in pairs]
        graph = UncertainGraph._from_stored_rows(
            n,
            np.array([u for u, _ in pairs], dtype=np.int64),
            np.array([v for _, v in pairs], dtype=np.int64),
            np.array(probs, dtype=np.float64),
            name="arrays",
        )
        assert format_edge_list(graph) == reference_format_edge_list(graph)

    @settings(max_examples=150, deadline=None)
    @given(graph=_uncertain_graphs(labels=_any_labels), header=st.booleans())
    def test_same_error_names_the_same_vertex(self, graph, header):
        assert _outcome(format_edge_list, graph, header) == \
            _outcome(reference_format_edge_list, graph, header)

    def test_first_encountered_bad_vertex_is_named(self):
        # Vertex order puts "x y" before "p q"; the lines meet "p q" first.
        graph = UncertainGraph([("ok", "p q", 0.5), ("ok", "x y", 0.5)],
                               vertices=["ok", "x y"])
        with pytest.raises(GraphError, match="'p q'"):
            format_edge_list(graph)
        isolated_last = UncertainGraph([("a", "b", 0.5)], vertices=["c d"])
        with pytest.raises(GraphError, match="'c d'"):
            format_edge_list(isolated_last)


class TestPatchedLines:
    """Lines kept from a full pass and patched after a probability
    change are the lines, and give the digest, of a new full pass."""

    @settings(max_examples=80, deadline=None)
    @given(graph=_uncertain_graphs(), data=st.data())
    def test_patch_equals_full_pass(self, graph, data):
        lines = edge_list_lines(graph)
        assert "".join(lines) == format_edge_list(graph, header=False)
        for _ in range(data.draw(st.integers(1, 4))):
            m = graph.number_of_edges()
            eids = data.draw(st.lists(
                st.integers(0, max(m - 1, 0)), unique=True,
                max_size=min(m, 6),
            ))
            graph = apply_delta(graph, EdgeDeltaBatch(
                update_eids=np.array(eids, dtype=np.int64),
                update_ps=[data.draw(_probabilities) for _ in eids],
            ), in_place=False).graph
            kept = list(lines)
            patched = patch_edge_list_lines(lines, graph, eids)
            assert lines == kept  # the caller's lines are left alone
            assert patched == edge_list_lines(graph)
            assert lines_digest(patched) == graph_digest(graph)
            lines = patched

    def test_lines_digest_is_graph_digest(self, small_power_law):
        lines = edge_list_lines(small_power_law)
        assert lines_digest(lines) == graph_digest(small_power_law)
        assert lines_digest(lines) == hashlib.sha256(
            format_edge_list(small_power_law, header=False).encode("utf-8")
        ).hexdigest()
