"""CLI: every subcommand, on text and binary datasets."""

import pytest

from repro.cli import main
from repro.datasets import read_edge_list, twitter_like, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(twitter_like(n=60, avg_degree=10, seed=1), path)
    return path


def test_sparsify_writes_output(graph_file, tmp_path, capsys):
    out = tmp_path / "sparse.txt"
    code = main([
        "sparsify", str(graph_file), str(out),
        "--alpha", "0.4", "--variant", "GDB^A", "--seed", "0",
    ])
    assert code == 0
    sparsified = read_edge_list(out)
    original = read_edge_list(graph_file)
    assert sparsified.number_of_edges() == round(0.4 * original.number_of_edges())
    assert "H ratio" in capsys.readouterr().out


def test_sparsify_default_variant(graph_file, tmp_path):
    out = tmp_path / "sparse.txt"
    assert main(["sparsify", str(graph_file), str(out), "--alpha", "0.3"]) == 0


def test_sparsify_engine_flag_rejects_unknown(graph_file, tmp_path, capsys):
    # No subcommand has an --engine flag: every value is refused.
    for argv in (
        ["sparsify", str(graph_file), str(tmp_path / "x.txt"), "--alpha", "0.4"],
        ["grid", str(graph_file), "--alphas", "0.4", "--h-values", "0.05"],
        ["drift", str(graph_file), "--alpha", "0.4"],
    ):
        for engine in ("warp", "vector", "loop"):
            with pytest.raises(SystemExit):
                main(argv + ["--engine", engine])
            assert "--engine" in capsys.readouterr().err


def test_sparsify_has_no_lp_solver_flag(graph_file, tmp_path, capsys):
    # HiGHS is the only LP solver: the flag is an argparse error.
    for solver in ("highs", "pdp"):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sparsify", str(graph_file), str(tmp_path / "x.txt"),
                "--alpha", "0.4", "--variant", "LP", "--lp-solver", solver,
            ])
        assert exit_info.value.code == 2
        assert "--lp-solver" in capsys.readouterr().err


def test_sparsify_bad_variant_fails(graph_file, tmp_path, capsys):
    out = tmp_path / "sparse.txt"
    with pytest.raises(ValueError):
        main([
            "sparsify", str(graph_file), str(out),
            "--alpha", "0.4", "--variant", "NOPE",
        ])


class TestBackbonePlanFlag:
    """``sparsify`` shares the graph's backbone plan across an
    ``--alpha`` ladder for GDB/EMD/LP/NI variants; there is no flag to
    turn it off."""

    def test_plan_output_identical_to_direct(self, graph_file, tmp_path):
        # The CLI's shared plan gives the library's single-call output.
        from repro.core import sparsify

        for variant in ("GDB^A-t", "EMD^R", "LP-t", "NI", "SP", "RANDOM"):
            out = tmp_path / f"cli-{variant}.txt"
            assert main([
                "sparsify", str(graph_file), str(out), "--alpha", "0.4",
                "--variant", variant, "--seed", "3",
            ]) == 0
            direct = tmp_path / f"lib-{variant}.txt"
            write_edge_list(
                sparsify(read_edge_list(graph_file), 0.4, variant=variant,
                         rng=3),
                direct,
            )
            assert out.read_text() == direct.read_text(), variant

    def test_flag_is_gone(self, graph_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "sparsify", str(graph_file), str(tmp_path / "out.txt"),
                "--alpha", "0.4", "--backbone-plan",
            ])
        assert "--backbone-plan" in capsys.readouterr().err

    def test_alpha_ladder_with_template(self, graph_file, tmp_path, capsys):
        template = tmp_path / "out-{alpha}.txt"
        code = main([
            "sparsify", str(graph_file), str(template),
            "--alpha", "0.3,0.5", "--variant", "GDB^A-t", "--seed", "3",
        ])
        assert code == 0
        original = read_edge_list(graph_file)
        for alpha in (0.3, 0.5):
            out = tmp_path / f"out-{alpha:g}.txt"
            assert read_edge_list(out).number_of_edges() == round(
                alpha * original.number_of_edges()
            )
        assert capsys.readouterr().out.count("H ratio") == 2

    def test_ladder_outputs_match_per_alpha_runs(self, graph_file, tmp_path):
        for variant in ("GDB^A-t", "EMD^R-t", "NI", "ER"):
            template = tmp_path / "ladder-{alpha}.txt"
            main([
                "sparsify", str(graph_file), str(template),
                "--alpha", "0.3,0.5", "--variant", variant, "--seed", "5",
            ])
            for alpha in ("0.3", "0.5"):
                single = tmp_path / f"single-{alpha}.txt"
                main([
                    "sparsify", str(graph_file), str(single),
                    "--alpha", alpha, "--variant", variant, "--seed", "5",
                ])
                ladder = tmp_path / f"ladder-{alpha}.txt"
                assert ladder.read_text() == single.read_text(), variant

    def test_multi_alpha_requires_template(self, graph_file, tmp_path, capsys):
        assert main([
            "sparsify", str(graph_file), str(tmp_path / "out.txt"),
            "--alpha", "0.3,0.5",
        ]) == 1
        assert "{alpha}" in capsys.readouterr().err

    def test_bad_alpha_list(self, graph_file, tmp_path, capsys):
        assert main([
            "sparsify", str(graph_file), str(tmp_path / "out.txt"),
            "--alpha", "0.2,oops",
        ]) == 1
        assert "invalid --alpha" in capsys.readouterr().err

    def test_plan_accepted_for_ni(self, graph_file, tmp_path, capsys):
        out = tmp_path / "out-ni.txt"
        assert main([
            "sparsify", str(graph_file), str(out),
            "--alpha", "0.4", "--variant", "NI", "--seed", "3",
        ]) == 0
        assert out.exists()


def test_info(graph_file, capsys):
    assert main(["info", str(graph_file)]) == 0
    output = capsys.readouterr().out
    assert "vertices:" in output
    assert "entropy (bits):" in output


def test_info_missing_file_returns_error(tmp_path, capsys):
    assert main(["info", str(tmp_path / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_compare(graph_file, tmp_path, capsys):
    out = tmp_path / "sparse.txt"
    main(["sparsify", str(graph_file), str(out), "--alpha", "0.4", "--seed", "1"])
    capsys.readouterr()
    assert main(["compare", str(graph_file), str(out)]) == 0
    output = capsys.readouterr().out
    assert "degree MAE" in output
    assert "relative entropy" in output


def test_variants_lists_all(capsys):
    assert main(["variants"]) == 0
    output = capsys.readouterr().out
    assert "EMD^R-t" in output
    assert "NI" in output


def test_no_command_exits():
    with pytest.raises(SystemExit):
        main([])


class TestGenerate:
    @pytest.mark.parametrize("family", ["flickr", "twitter", "grid", "er"])
    def test_families(self, family, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["generate", family, str(out), "--n", "50", "--seed", "1"]) == 0
        graph = read_edge_list(out)
        assert graph.number_of_edges() > 0
        assert "wrote" in capsys.readouterr().out

    def test_custom_avg_degree(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "er", str(out), "--n", "40", "--avg-degree", "10",
              "--seed", "2"])
        assert read_edge_list(out).number_of_edges() == 200

    def test_deterministic_seed(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", "twitter", str(a), "--n", "40", "--seed", "9"])
        main(["generate", "twitter", str(b), "--n", "40", "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestEstimate:
    @pytest.mark.parametrize(
        "query", ["reliability", "distance", "pagerank", "clustering",
                  "connectivity"],
    )
    def test_queries(self, query, graph_file, capsys):
        code = main([
            "estimate", str(graph_file), "--query", query,
            "--samples", "30", "--pairs", "10",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "scalar estimate:" in output
        assert "CI width" in output
        assert "evaluation:" not in output

    def test_no_batch_flag_removed(self, graph_file, capsys):
        with pytest.raises(SystemExit):
            main(["estimate", str(graph_file), "--samples", "10", "--no-batch"])
        assert "--no-batch" in capsys.readouterr().err

    def test_reliability_on_deterministic_path(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("a b 1.0\nb c 1.0\n")
        main(["estimate", str(path), "--query", "reliability",
              "--samples", "20", "--pairs", "3"])
        output = capsys.readouterr().out
        assert "scalar estimate:  1.000000" in output

    def test_weighted_distance(self, graph_file, capsys):
        code = main([
            "estimate", str(graph_file), "--query", "distance", "--weighted",
            "--samples", "30", "--pairs", "10",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "distance (weighted -log p)" in output
        assert "scalar estimate:" in output

    def test_weighted_distance_on_certain_path_is_zero(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("a b 1.0\nb c 1.0\n")
        main(["estimate", str(path), "--query", "distance", "--weighted",
              "--samples", "20", "--pairs", "3"])
        output = capsys.readouterr().out
        assert "scalar estimate:  0.000000" in output

    def test_weighted_rejected_for_other_queries(self, graph_file, capsys):
        assert main([
            "estimate", str(graph_file), "--query", "pagerank", "--weighted",
        ]) == 1
        assert "--weighted only applies" in capsys.readouterr().err

    def test_bad_batch_bytes_env_is_a_clean_error(
        self, graph_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BATCH_BYTES", "64MB")
        assert main(["estimate", str(graph_file), "--samples", "10"]) == 1
        assert "REPRO_BATCH_BYTES" in capsys.readouterr().err


class TestDrift:
    def test_compare_rebuild_selections_match_every_batch(
        self, tmp_path, capsys
    ):
        path = tmp_path / "flickr.txt"
        main(["generate", "flickr", str(path), "--n", "120", "--seed", "3"])
        capsys.readouterr()
        code = main([
            "drift", str(path), "--alpha", "0.3", "--batches", "3",
            "--edge-fraction", "0.02", "--insert-rate", "0.01",
            "--delete-rate", "0.01", "--seed", "11", "--compare-rebuild",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.split()[0] == "batch")
        assert lines[start].split()[-2:] == ["same", "sel"]
        rows = [line.split() for line in lines[start + 1:start + 4]]
        assert [row[0] for row in rows] == ["0", "1", "2"]
        for row in rows:
            assert row[-1] == "yes"
            # One-sided: maintenance never converges worse than a rebuild.
            assert float(row[-2]) <= 1e-6


class TestDiagnose:
    def test_diagnose_output(self, graph_file, tmp_path, capsys):
        out = tmp_path / "sparse.txt"
        main(["sparsify", str(graph_file), str(out), "--alpha", "0.4",
              "--seed", "0"])
        capsys.readouterr()
        assert main(["diagnose", str(graph_file), str(out)]) == 0
        output = capsys.readouterr().out
        assert "saturated edges" in output
        assert "entropy ratio" in output

    def test_diagnose_missing_file(self, graph_file, tmp_path, capsys):
        assert main(["diagnose", str(graph_file),
                     str(tmp_path / "none.txt")]) == 1
        assert "error:" in capsys.readouterr().err


class TestConvert:
    def test_text_to_binary_and_back(self, graph_file, tmp_path, capsys):
        from repro.datasets import is_binary_file

        binary = tmp_path / "graph.bin"
        assert main(["convert", str(graph_file), str(binary)]) == 0
        assert is_binary_file(binary)
        assert "digest" in capsys.readouterr().out

        text = tmp_path / "back.txt"
        assert main(["convert", str(binary), str(text)]) == 0
        assert "digest verified" in capsys.readouterr().out
        original = read_edge_list(graph_file)
        back = read_edge_list(text)
        assert back.number_of_edges() == original.number_of_edges()
        restored = {frozenset((int(u), int(v))): p for u, v, p in back.edges()}
        assert restored == {frozenset((int(u), int(v))): p
                            for u, v, p in original.edges()}

    def test_format_flags_are_gone(self, graph_file, tmp_path, capsys):
        # The binary magic decides the format of every input.
        for argv, flag in (
            (["sparsify", str(graph_file), str(tmp_path / "o.txt"),
              "--alpha", "0.4", "--format", "text"], "--format"),
            (["estimate", str(graph_file), "--format", "text"], "--format"),
            (["grid", str(graph_file), "--alphas", "0.4", "--h-values",
              "0.05", "--format", "text"], "--format"),
            (["convert", str(graph_file), str(tmp_path / "o.bin"),
              "--to", "binary"], "--to"),
        ):
            with pytest.raises(SystemExit):
                main(argv)
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("relabel", [False, True])
    def test_labels_scanned_once(self, graph_file, tmp_path, capsys,
                                 monkeypatch, relabel):
        from repro.datasets import binary_io, write_binary

        source = graph_file
        if relabel:
            source = tmp_path / "named.txt"
            source.write_text("alice bob 0.5\nbob carol 0.25\n")
        reference = tmp_path / "reference.bin"
        write_binary(read_edge_list(source), reference, allow_relabel=True)
        calls = []
        scan = binary_io.stored_vertex_ids
        monkeypatch.setattr(binary_io, "stored_vertex_ids",
                            lambda graph: calls.append(1) or scan(graph))
        binary = tmp_path / "graph.bin"
        assert main(["convert", str(source), str(binary),
                     "--allow-relabel"]) == 0
        assert len(calls) == 1
        assert binary.read_bytes() == reference.read_bytes()
        out = capsys.readouterr().out
        assert ("relabelled" in out) == relabel

    def test_non_dense_labels_need_allow_relabel(self, tmp_path, capsys):
        source = tmp_path / "named.txt"
        source.write_text("alice bob 0.5\nbob carol 0.25\n")
        binary = tmp_path / "named.bin"
        assert main(["convert", str(source), str(binary)]) != 0
        assert "allow_relabel" in capsys.readouterr().err
        assert main(["convert", str(source), str(binary),
                     "--allow-relabel"]) == 0
        assert "relabelled" in capsys.readouterr().out

    def test_padded_labels_are_relabelled_not_coerced(self, tmp_path, capsys):
        # "00" is a label of its own, not the id 0.
        from repro.datasets import read_binary

        source = tmp_path / "padded.txt"
        source.write_text("00 1 0.5\n1 2 0.25\n")
        binary = tmp_path / "padded.bin"
        assert main(["convert", str(source), str(binary)]) != 0
        assert "allow_relabel" in capsys.readouterr().err
        assert main(["convert", str(source), str(binary),
                     "--allow-relabel"]) == 0
        assert "relabelled" in capsys.readouterr().out
        stored = read_binary(binary)
        assert stored.src.tolist() == [0, 1] and stored.dst.tolist() == [1, 2]

    def test_dense_text_labels_are_not_relabelled(self, graph_file, tmp_path,
                                                  capsys):
        # A text file's labels parse as the strings "0".."n-1"; each is
        # stored under its own integer, so the note must not claim a
        # relabelling, with or without --allow-relabel.
        from repro.datasets import read_binary

        original = read_edge_list(graph_file)
        for extra in ([], ["--allow-relabel"]):
            binary = tmp_path / f"graph{len(extra)}.bin"
            assert main(["convert", str(graph_file), str(binary)] + extra) == 0
            assert "relabelled" not in capsys.readouterr().out
            stored = read_binary(binary).graph()
            assert {frozenset(e[:2]): e[2] for e in stored.edges()} == {
                frozenset((int(u), int(v))): p for u, v, p in original.edges()
            }


class TestGrid:
    args = ["--alphas", "0.3,0.5", "--h-values", "0.1,0.4", "--seed", "2"]

    def test_table_output(self, graph_file, capsys):
        assert main(["grid", str(graph_file)] + self.args) == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert out.count("\n") == 5  # header + 4 cells

    def test_json_matches_library(self, graph_file, tmp_path, capsys):
        import json

        from repro.core import gdb_grid, objective_rows

        out = tmp_path / "rows.json"
        assert main(["grid", str(graph_file)] + self.args +
                    ["--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        expected = objective_rows(gdb_grid(
            read_edge_list(graph_file), [0.3, 0.5], [0.1, 0.4],
            rng=2, build_graphs=False,
        ))
        assert rows == expected

    def test_binary_input_matches_library(self, graph_file, tmp_path,
                                          capsys):
        import json

        from repro.core import gdb_grid, objective_rows
        from repro.datasets import read_binary

        binary = tmp_path / "graph.bin"
        assert main(["convert", str(graph_file), str(binary)]) == 0
        out = tmp_path / "rows.json"
        assert main(["grid", str(binary)] + self.args +
                    ["--output", str(out)]) == 0
        expected = objective_rows(gdb_grid(
            read_binary(binary, mmap=True).graph(), [0.3, 0.5], [0.1, 0.4],
            rng=2, build_graphs=False,
        ))
        assert json.loads(out.read_text()) == expected

    def test_bad_h_values_rejected(self, graph_file, capsys):
        code = main(["grid", str(graph_file), "--alphas", "0.3",
                     "--h-values", "nope"])
        assert code != 0
        assert "--h-values" in capsys.readouterr().err


class TestBinaryInputs:
    @pytest.fixture
    def binary_file(self, graph_file, tmp_path):
        path = tmp_path / "graph.bin"
        assert main(["convert", str(graph_file), str(path)]) == 0
        return path

    def test_sparsify_gdb_from_binary(self, binary_file, tmp_path, capsys):
        out = tmp_path / "sparse.txt"
        code = main(["sparsify", str(binary_file), str(out),
                     "--alpha", "0.4", "--variant", "GDB^A", "--seed", "0"])
        assert code == 0
        assert out.exists()

    def test_every_variant_runs_on_binary(self, binary_file, tmp_path,
                                          capsys):
        """Binary inputs are the same graph type as text ones: every
        variant runs and writes what the library computes on them."""
        from repro.core import available_variants, sparsify
        from repro.datasets import format_edge_list, read_binary

        graph = read_binary(binary_file, mmap=True).graph()
        for variant in available_variants():
            out = tmp_path / "o.txt"
            code = main(["sparsify", str(binary_file), str(out),
                         "--alpha", "0.4", "--variant", variant,
                         "--seed", "0"])
            assert code == 0, variant
            expected = sparsify(graph, 0.4, variant=variant, rng=0)
            assert out.read_text() == format_edge_list(expected), variant

    def test_estimate_from_binary(self, binary_file, capsys):
        code = main(["estimate", str(binary_file), "--query", "connectivity",
                     "--samples", "20", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out

    def test_info_from_binary(self, graph_file, binary_file, capsys):
        assert main(["info", str(graph_file)]) == 0
        text_lines = capsys.readouterr().out.splitlines()
        assert main(["info", str(binary_file)]) == 0
        binary_lines = capsys.readouterr().out.splitlines()
        assert binary_lines[:3] == text_lines[:3]  # vertices, edges, density

    @pytest.fixture
    def binary_pair(self, binary_file, tmp_path):
        """The binary dataset and a binary sparsifier of it."""
        from repro.core import sparsify
        from repro.datasets import read_binary, write_binary

        graph = read_binary(binary_file, mmap=True).graph()
        sparse = tmp_path / "sparse.bin"
        write_binary(sparsify(graph, 0.4, rng=1), sparse)
        return binary_file, sparse

    def test_compare_from_binary(self, binary_pair, capsys):
        assert main(["compare"] + [str(p) for p in binary_pair]) == 0
        output = capsys.readouterr().out
        assert "degree MAE" in output
        assert "relative entropy" in output

    def test_diagnose_from_binary(self, binary_pair, capsys):
        assert main(["diagnose"] + [str(p) for p in binary_pair]) == 0
        assert "saturated edges" in capsys.readouterr().out

    def test_drift_from_binary(self, binary_file, capsys):
        code = main([
            "drift", str(binary_file), "--alpha", "0.3", "--batches", "2",
            "--edge-fraction", "0.02", "--insert-rate", "0.01",
            "--delete-rate", "0.01", "--seed", "11", "--compare-rebuild",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[-3:-1]
        assert [row.split()[-1] for row in rows] == ["yes", "yes"]

    @pytest.mark.parametrize("command", ["info", "compare", "diagnose", "drift"])
    def test_undecodable_file_is_a_clean_error(self, graph_file, tmp_path,
                                               command, capsys):
        # Neither a binary dataset nor UTF-8 text: one error line naming
        # the file, no traceback.
        junk = tmp_path / "junk.dat"
        junk.write_bytes(b"RPBX\xc8\xff\x00 not text")
        argv = {
            "info": ["info", str(junk)],
            "compare": ["compare", str(graph_file), str(junk)],
            "diagnose": ["diagnose", str(graph_file), str(junk)],
            "drift": ["drift", str(junk), "--alpha", "0.3"],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(junk) in err
        assert "UTF-8" in err and len(err.splitlines()) == 1
