"""Tests for the dataset generators and update workloads."""

import pytest

from repro.atg.publisher import publish_store
from repro.core.updater import XMLViewUpdater
from repro.errors import ReproError
from repro.ops import DeleteOp, InsertOp, ReplaceOp, op_from_json
from repro.workloads import build_chain, named_workload
from repro.workloads.bom import build_bom
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


class TestRegistrar:
    def test_instance_shape(self):
        _, db = build_registrar()
        assert len(db.table("course")) == 5
        assert len(db.table("prereq")) == 2
        assert len(db.table("enroll")) == 4

    def test_unpopulated(self):
        _, db = build_registrar(populate=False)
        assert db.size() == 0


class TestSyntheticGenerator:
    def test_deterministic(self, small_synthetic):
        again = build_synthetic(SyntheticConfig(n_c=120, seed=3))
        for name in ("C", "F", "H"):
            assert sorted(small_synthetic.db.rows(name)) == sorted(
                again.db.rows(name)
            )

    def test_sizes_per_paper(self, small_synthetic):
        db = small_synthetic.db
        n = small_synthetic.config.n_c
        assert len(db.table("C")) == n
        assert len(db.table("F")) == n  # |F| = |C|
        # |H| ≈ 3|C| minus bottom layer (leaves have no outgoing edges).
        assert len(db.table("H")) > n

    def test_h_is_acyclic_by_construction(self, small_synthetic):
        for h1, h2 in small_synthetic.db.rows("H"):
            assert h1 < h2  # paper: h1 < h2

    def test_pass_rate_controls_filter(self, small_synthetic):
        ds = small_synthetic
        n = ds.config.n_c
        assert 0.5 * n < len(ds.passing) < n

    def test_seed_changes_data(self):
        a = build_synthetic(SyntheticConfig(n_c=60, seed=1))
        b = build_synthetic(SyntheticConfig(n_c=60, seed=2))
        assert sorted(a.db.rows("H")) != sorted(b.db.rows("H"))

    def test_published_view_respects_filter(self, small_synthetic):
        ds = small_synthetic
        store = publish_store(ds.atg, ds.db)
        published = {
            store.sem_of(n)[0]
            for n in store.nodes()
            if store.type_of(n) == "cnode"
        }
        assert published <= ds.passing

    def test_sharing_present(self, small_synthetic):
        ds = small_synthetic
        store = publish_store(ds.atg, ds.db)
        cnodes = [n for n in store.nodes() if store.type_of(n) == "cnode"]
        shared = sum(1 for n in cnodes if store.in_degree(n) > 1)
        assert shared > 0

    def test_tiny_config_clamps_layers(self):
        config = SyntheticConfig(n_c=6)
        assert config.layers <= 3
        build_synthetic(config)  # must not crash


class TestWorkloads:
    @pytest.mark.parametrize("cls", ["W1", "W2", "W3"])
    def test_delete_workload_shapes(self, small_synthetic, cls):
        ops = make_workload(small_synthetic, "delete", cls, count=5)
        assert 0 < len(ops) <= 5
        for op in ops:
            assert isinstance(op, DeleteOp) and op.kind == "delete"
            if cls == "W1":
                assert "//" in op.path
            if cls == "W3":
                assert "sub/cnode" in op.path  # structural filter

    @pytest.mark.parametrize("cls", ["W1", "W2", "W3"])
    def test_insert_workload_shapes(self, small_synthetic, cls):
        ops = make_workload(small_synthetic, "insert", cls, count=5)
        for op in ops:
            assert isinstance(op, InsertOp) and op.kind == "insert"
            assert op.path.endswith("/sub")
            assert op.element == "cnode"
            assert op.sem

    @pytest.mark.parametrize("cls", ["W1", "W2", "W3"])
    def test_replace_workload_shapes(self, small_synthetic, cls):
        ops = make_workload(small_synthetic, "replace", cls, count=5)
        for op in ops:
            assert isinstance(op, ReplaceOp) and op.kind == "replace"
            assert not op.path.endswith("/sub")  # replaces the cnode itself
            assert op.element == "cnode"
            assert op.sem

    def test_workload_ops_serialize(self, small_synthetic):
        for kind in ("delete", "insert", "replace"):
            for op in make_workload(small_synthetic, kind, "W2", count=3):
                assert op_from_json(op.to_json()) == op

    def test_deterministic(self, small_synthetic):
        a = make_workload(small_synthetic, "delete", "W1", count=5, seed=9)
        b = make_workload(small_synthetic, "delete", "W1", count=5, seed=9)
        assert a == b

    def test_unknown_class_rejected(self, small_synthetic):
        with pytest.raises(ValueError):
            make_workload(small_synthetic, "delete", "W9")

    def test_unknown_kind_rejected(self, small_synthetic):
        with pytest.raises(ValueError):
            make_workload(small_synthetic, "upsert", "W1")

    def test_delete_workloads_select_nodes(self, synthetic_updater):
        updater, dataset = synthetic_updater
        for cls in ("W1", "W2", "W3"):
            ops = make_workload(dataset, "delete", cls, count=3)
            for op in ops:
                result = updater.evaluate_xpath(op.path)
                assert result.targets, f"{cls} path selects nothing: {op.path}"


class TestBOM:
    def test_structure(self):
        atg, db = build_bom()
        assert len(db.table("part")) > 10
        updater = XMLViewUpdater(atg, db)
        assert updater.check_consistency() == []

    def test_catalog_lists_assemblies_only(self):
        atg, db = build_bom()
        store = publish_store(atg, db)
        roots = store.children_of(store.root_id)
        for node in roots:
            pid = store.sem_of(node)[0]
            assert db.table("part").get((pid,))[2] == "assembly"


class TestNamedWorkload:
    @pytest.mark.parametrize(
        "name", ["registrar", "bom", "synthetic:60", "synthetic:60:5", "chain:20"]
    )
    def test_known_names_resolve(self, name):
        atg, db = named_workload(name)
        assert db.size() > 0
        assert atg.dtd.root

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError, match="unknown workload"):
            named_workload("nope")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ReproError, match="bad numeric"):
            named_workload("synthetic:tiny")

    @pytest.mark.parametrize(
        "name", ["synthetic:1", "synthetic:0", "synthetic:-3", "chain:0", "chain:-2"]
    )
    def test_unbuildable_size_rejected(self, name):
        with pytest.raises(ReproError, match=">= "):
            named_workload(name)

    def test_builders_reject_unbuildable_sizes(self):
        with pytest.raises(ReproError, match="n_c >= 2"):
            SyntheticConfig(n_c=1)
        with pytest.raises(ReproError, match="depth >= 1"):
            build_chain(depth=0)
        assert build_synthetic(SyntheticConfig(n_c=2)).db.size() > 0
        assert build_chain(depth=1)[1].size() == 1

    def test_one_synthetic_name_parser(self):
        from repro.workloads import synthetic_config

        assert synthetic_config("synthetic") == SyntheticConfig(n_c=300, seed=42)
        assert synthetic_config("synthetic:60:5") == SyntheticConfig(n_c=60, seed=5)
        for name in ("bom", "synthetic:1:2:3"):
            with pytest.raises(ReproError, match="not a synthetic workload"):
                synthetic_config(name)
        with pytest.raises(ReproError, match="bad numeric"):
            synthetic_config("synthetic:abc")
