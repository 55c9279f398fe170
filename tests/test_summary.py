from __future__ import annotations

import pytest

from semdiff.summary import PartitionKey, PartitionKeyError, summarize


class TestPartitionKey:
    def test_class_set_sorts_and_dedupes(self):
        k = PartitionKey.class_set(["Manager", "Employee", "Manager"])
        assert k.names == ("Employee", "Manager")
        assert k.kind == "class-set"

    def test_action_set_sorts_and_dedupes(self):
        k = PartitionKey.action_set(("b", "a", "b"))
        assert k.names == ("a", "b")

    def test_action_list_keeps_order_and_repeats(self):
        k = PartitionKey.action_list(("b", "a", "b"))
        assert k.names == ("b", "a", "b")

    def test_direct_construction_rejects_non_canonical_sets(self):
        with pytest.raises(PartitionKeyError):
            PartitionKey("class-set", ("B", "A"))
        with pytest.raises(PartitionKeyError):
            PartitionKey("action-set", ("a", "a"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(PartitionKeyError, match="unknown partition kind"):
            PartitionKey("trace-set", ("a",))

    @pytest.mark.parametrize("bad", ["", "a,b"])
    def test_names_must_be_nonempty_and_comma_free(self, bad):
        # commas would make payloads ambiguous
        with pytest.raises(PartitionKeyError):
            PartitionKey("action-list", (bad,))

    def test_payload_is_canonical_and_orders_entries(self):
        ks = [PartitionKey.class_set(ns) for ns in (["B"], ["A", "B"], ["A"])]
        assert sorted(ks, key=lambda k: k.payload) == [ks[2], ks[1], ks[0]]

    def test_keys_hash_and_compare_by_value(self):
        a = PartitionKey.action_list(("x", "y"))
        b = PartitionKey.action_list(("x", "y"))
        assert a == b and hash(a) == hash(b)
        assert a != PartitionKey.action_set(("x", "y"))


def test_summarize_keeps_first_witness_per_key():
    wits = ["b1", "a1", "b2", "a2", "c1"]
    rep = summarize(wits, lambda w: PartitionKey.class_set([w[0].upper()]),
                    partition_kind="class-set")
    assert [e.key.names for e in rep.entries] == [("A",), ("B",), ("C",)]
    assert [e.representative for e in rep.entries] == ["a1", "b1", "c1"]
    assert len(rep) == 3


def test_summarize_annotation_callback():
    rep = summarize(["aa", "b"], lambda w: PartitionKey.class_set([w[0].upper()]),
                    partition_kind="class-set",
                    annotate=lambda w: f"{len(w)} char(s)")
    assert [e.annotation for e in rep.entries] == ["2 char(s)", "1 char(s)"]


def test_summarize_empty_stream():
    rep = summarize([], lambda w: PartitionKey.class_set(["X"]),
                    partition_kind="class-set")
    assert rep.entries == []


def test_summarize_rejects_mismatched_kind():
    with pytest.raises(PartitionKeyError, match="does not match report kind"):
        summarize(["a"], lambda w: PartitionKey.action_set(["a"]),
                  partition_kind="class-set")
