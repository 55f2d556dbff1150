"""Variant parsing and the unified sparsify() front-end."""

import re

import numpy as np
import pytest

from oracles.emd import reference_emd
from oracles.gdb import loop_refine
from repro.core import (
    EMDConfig,
    GDBConfig,
    SparsificationState,
    available_variants,
    build_backbone,
    check_budget,
    emd,
    gdb,
    lp_assign_probabilities,
    lp_sparsify,
    parse_variant,
    sparsify,
    target_edge_count,
)


class TestParse:
    def test_simple_methods(self):
        assert parse_variant("GDB").method == "gdb"
        assert parse_variant("EMD").method == "emd"
        assert parse_variant("LP").method == "lp"
        assert parse_variant("NI").method == "ni"
        assert parse_variant("SP").method == "sp"
        assert parse_variant("SS").method == "sp"  # paper uses both names
        assert parse_variant("RANDOM").method == "random"

    def test_discrepancy_superscripts(self):
        assert parse_variant("GDB^A").relative is False
        assert parse_variant("GDB^R").relative is True
        assert parse_variant("EMD").relative is False  # default absolute

    def test_k_subscripts(self):
        assert parse_variant("GDB^A_2").k == 2
        assert parse_variant("GDB^A_5").k == 5
        assert parse_variant("GDB^A_n").k == "n"
        assert parse_variant("GDB^A").k == 1

    @pytest.mark.parametrize("spelling, canonical", [
        ("GDB^A_N", "GDB^A_n"),
        ("GDB^A_N-t", "GDB^A_n-t"),
        ("gdb^a_N", "GDB^A_n"),
        ("gdb^r_N-T", "GDB^R_n-t"),
    ])
    def test_n_subscript_in_either_case(self, spelling, canonical):
        spec = parse_variant(spelling)
        assert spec.k == "n"
        assert spec.canonical_name == canonical
        assert spec == parse_variant(canonical)

    def test_backbone_suffix(self):
        assert parse_variant("EMD^R-t").bgi_backbone is True
        assert parse_variant("EMD^R").bgi_backbone is False

    def test_case_insensitive(self):
        spec = parse_variant("emd^r-t")
        assert spec.method == "emd" and spec.relative and spec.bgi_backbone

    def test_canonical_name_roundtrip(self):
        for name in ("GDB^A", "GDB^R-t", "GDB^A_2", "GDB^A_n", "EMD^R-t"):
            assert parse_variant(name).canonical_name == name

    @pytest.mark.parametrize("bad", [
        "", "XYZ", "GDB^Q", "GDB_", "GDB--t",
        # Notation the method does not read.
        "LP^R", "LP^R-t", "LP_2", "LP^A_n", "EMD^A_2", "EMD_n", "NI^R",
        "NI_2", "NI-t", "SP^A", "SS-t", "ER_5", "RANDOM^R", "RANDOM-t",
        # The n subscript reads the same in either case.
        "EMD^A_N", "EMD_N", "emd^r_N-t", "LP^A_N", "NI_N",
    ])
    def test_invalid_variants(self, bad):
        with pytest.raises(ValueError):
            parse_variant(bad)

    @pytest.mark.parametrize("bad", ["EMD^A_N", "EMD^A_n", "emd^r_N-t"])
    def test_emd_n_subscript_is_unread_notation(self, bad):
        with pytest.raises(ValueError, match="does not read"):
            parse_variant(bad)


class TestDispatch:
    @pytest.mark.parametrize(
        "variant",
        ["GDB^A", "GDB^R-t", "GDB^A_2", "GDB^A_n", "EMD^A", "EMD^R-t",
         "LP", "LP-t", "NI", "SP", "RANDOM"],
    )
    def test_every_variant_meets_budget(self, small_power_law, variant):
        sparsified = sparsify(small_power_law, 0.4, variant=variant, rng=0)
        assert check_budget(small_power_law, sparsified, 0.4)
        assert set(sparsified.vertices()) == set(small_power_law.vertices())

    def test_emd_with_k_rejected(self, small_power_law):
        with pytest.raises(ValueError):
            sparsify(small_power_law, 0.4, variant="EMD^A_2")

    def test_alpha_out_of_range(self, small_power_law):
        with pytest.raises(ValueError):
            sparsify(small_power_law, 1.5, variant="GDB^A")

    def test_name_override(self, small_power_law):
        out = sparsify(small_power_law, 0.4, variant="GDB^A", rng=0, name="custom")
        assert out.name == "custom"

    def test_default_name_mentions_variant(self, small_power_law):
        out = sparsify(small_power_law, 0.4, variant="GDB^A", rng=0)
        assert "GDB^A" in out.name

    def test_available_variants_all_parse(self):
        for variant in available_variants():
            parse_variant(variant)

    def test_deterministic_with_seed(self, small_power_law):
        a = sparsify(small_power_law, 0.3, variant="EMD^R-t", rng=5)
        b = sparsify(small_power_law, 0.3, variant="EMD^R-t", rng=5)
        assert a.isomorphic_probabilities(b)


class TestEngineKnob:
    """One implementation per sparsifier: no ``engine`` to pick, and the
    scalar references (``tests/oracles/``) reach the same selection."""

    @pytest.mark.parametrize(
        "variant", ["GDB^A", "GDB^R-t", "GDB^A_2", "GDB^A_n", "EMD^R-t"]
    )
    def test_loop_engine_meets_budget_too(self, small_power_law, variant):
        """The reference loop on the variant's seed backbone keeps the
        budget and the edge set ``sparsify`` returns; where the fast path
        keeps the reference's edge order (EMD, and GDB with k >= 2) it
        returns the very same graph."""
        spec = parse_variant(variant)
        method = "bgi" if spec.bgi_backbone else "random"
        ids = build_backbone(small_power_law, 0.4, method=method, rng=0)
        if spec.method == "emd":
            loop = reference_emd(
                small_power_law, ids, EMDConfig(relative=spec.relative)
            )
        else:
            state = SparsificationState(small_power_law)
            state.select_edges(ids)
            loop_refine(state, GDBConfig(k=spec.k, relative=spec.relative))
            loop = state.build_graph()
        assert check_budget(small_power_law, loop, 0.4)
        sparsified = sparsify(small_power_law, 0.4, variant=variant, rng=0)
        assert set(loop.edge_list()) == set(sparsified.edge_list())
        if spec.method == "emd" or spec.k != 1:
            assert loop.isomorphic_probabilities(sparsified, tol=0.0)

    def test_invalid_engine_rejected(self, small_power_law):
        for engine in ("fast", "vector", "loop"):
            with pytest.raises(TypeError, match="engine"):
                sparsify(small_power_law, 0.4, variant="GDB^A", rng=0,
                         engine=engine)

    def test_fused_not_a_public_engine(self, small_power_law):
        # The M-phase's sequential solve is its own choice, not a sparsify() knob.
        with pytest.raises(TypeError, match="engine"):
            sparsify(small_power_law, 0.4, variant="GDB^A", rng=0, engine="fused")


class TestBackboneIds:
    """A caller's backbone ids are checked where ``gdb``, ``emd`` and
    ``lp_sparsify`` (and ``lp_assign_probabilities``) receive them."""

    FACADES = {
        "gdb": lambda g, ids: gdb(g, backbone_ids=ids),
        "emd": lambda g, ids: emd(g, backbone_ids=ids),
        "lp": lambda g, ids: lp_sparsify(g, backbone_ids=ids),
        "lp_assign": lp_assign_probabilities,
    }

    @pytest.mark.parametrize("facade", sorted(FACADES))
    @pytest.mark.parametrize("ids, message", [
        pytest.param([-1, 0], "backbone id -1 is out of range for {m} edges",
                     id="negative"),
        pytest.param([0.5, 1], "backbone id 0.5 is not an integer",
                     id="fraction"),
        pytest.param(["0", 1], "backbone id '0' is not an integer",
                     id="string"),
        pytest.param([True, False], "backbone id True is not an integer",
                     id="bool"),
        pytest.param([3, "m"], "backbone id {m} is out of range for {m} edges",
                     id="past-the-end"),
        pytest.param([4, 0, 7, 0], "backbone id 0 is duplicated", id="repeat"),
        pytest.param([[0, 1]], "1-d sequence", id="nested"),
    ])
    def test_bad_ids_refused(self, small_power_law, facade, ids, message):
        m = small_power_law.number_of_edges()
        ids = [m if i == "m" else i for i in ids]
        with pytest.raises(ValueError, match=re.escape(message.format(m=m))):
            self.FACADES[facade](small_power_law, ids)

    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_integer_ids_in_any_form(self, small_power_law, facade):
        """Another integer dtype and integral floats name the same
        backbone as the builder's int64 array."""
        ids = build_backbone(small_power_law, 0.4, rng=0)
        run = self.FACADES[facade]
        expected = run(small_power_law, ids)
        for same in (ids.astype(np.int32), [float(i) for i in ids]):
            result = run(small_power_law, same)
            if facade == "lp_assign":
                assert result.tobytes() == expected.tobytes()
            else:
                assert result.edge_list() == expected.edge_list()


def test_check_budget_detects_mismatch(small_power_law):
    sparsified = sparsify(small_power_law, 0.4, variant="GDB^A", rng=0)
    assert check_budget(small_power_law, sparsified, 0.4)
    assert not check_budget(small_power_law, sparsified, 0.7)
    assert target_edge_count(10, 0.5) == 5
