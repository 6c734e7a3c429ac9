import pytest
from hypothesis import given, settings, strategies as st

from asrlab.entities import (
    EntityAlignment,
    EntitySpan,
    align_entities,
    pn_score,
    read_entity_file,
)
from tests import entity_oracles


def span(filler, etype="Person", start=0, end=None):
    return EntitySpan(filler=filler, type=etype, start=start, end=end if end is not None else start + len(filler))


def test_span_validation():
    with pytest.raises(ValueError):
        EntitySpan(filler="x", type="Person", start=5, end=5)
    with pytest.raises(ValueError):
        EntitySpan(filler="  ", type="Person", start=0, end=2)


def test_similar_fillers_same_type_match():
    out = align_entities([span("Nicolas Cage")], [span("Ridiculous Cage")], sim_threshold=0.5)
    assert len(out.matched) == 1
    assert not out.unmatched_gold and not out.unmatched_pred


def test_missing_prediction_is_deletion():
    out = align_entities([span("Paris", "GPE")], [])
    assert out.matched == []
    assert [s.filler for s in out.unmatched_gold] == ["Paris"]


def test_type_mismatch_unmatches_both():
    out = align_entities([span("Paris", "GPE")], [span("Paris", "Person")])
    assert out.matched == []
    assert len(out.unmatched_gold) == 1 and len(out.unmatched_pred) == 1


def test_below_threshold_unmatches_both():
    out = align_entities([span("Nicolas Cage")], [span("Ridiculous Cage")], sim_threshold=0.9)
    assert out.matched == []
    assert len(out.unmatched_gold) == 1 and len(out.unmatched_pred) == 1


def test_unsupported_types_dropped_before_alignment():
    out = align_entities([span("Tuesday", "Date")], [span("Tuesday", "Date")])
    assert out.matched == [] and out.unmatched_gold == [] and out.unmatched_pred == []


def test_exact_fillers_casefolded():
    out = align_entities([span("LONDON", "GPE")], [span("london", "GPE")])
    assert len(out.matched) == 1


def test_order_preserving_mix():
    gold = [span("Alice"), span("Microsoft", "Organization", start=10), span("Paris", "GPE", start=30)]
    pred = [span("Alice"), span("Paris", "GPE", start=30)]
    out = align_entities(gold, pred)
    assert [(g.filler, p.filler) for g, p in out.matched] == [("Alice", "Alice"), ("Paris", "Paris")]
    assert [s.filler for s in out.unmatched_gold] == ["Microsoft"]


_types = st.sampled_from(["Person", "Organization", "GPE", "LOC"])
_names = st.sampled_from(["alice", "bob", "carol", "dave", "acme corp", "paris", "london", "rome"])


def _spans(draw_names, draw_types):
    spans = []
    pos = 0
    for name, etype in zip(draw_names, draw_types):
        spans.append(EntitySpan(filler=name, type=etype, start=pos, end=pos + len(name)))
        pos += len(name) + 1
    return spans


@settings(max_examples=300)
@given(
    st.lists(_names, max_size=6),
    st.lists(_types, min_size=6, max_size=6),
    st.lists(_names, max_size=6),
    st.lists(_types, min_size=6, max_size=6),
    st.floats(0.0, 1.0),
)
def test_alignment_partitions_inputs(gn, gt, pn, pt, threshold):
    gold = _spans(gn, gt)
    pred = _spans(pn, pt)
    out = align_entities(gold, pred, threshold)
    matched_gold = [g for g, _ in out.matched]
    matched_pred = [p for _, p in out.matched]
    # every span appears in exactly one bucket, nothing lost or duplicated
    assert len(matched_gold) + len(out.unmatched_gold) == len(gold)
    assert len(matched_pred) + len(out.unmatched_pred) == len(pred)
    assert {id(s) for s in matched_gold + out.unmatched_gold} == {id(s) for s in gold}
    assert {id(s) for s in matched_pred + out.unmatched_pred} == {id(s) for s in pred}


_oracle_spans = st.lists(
    st.builds(
        lambda filler, etype, start, width: EntitySpan(filler=filler, type=etype, start=start, end=start + width),
        st.sampled_from(["alice", "Alice", "ALICE", "alicia", "bob", "acme corp", "Acme Corp", "paris", "parish"]),
        st.sampled_from(["Person", "Organization", "GPE", "LOC", "Date"]),
        st.integers(0, 40),
        st.integers(1, 3),
    ),
    max_size=10,
)


@settings(max_examples=500)
@given(_oracle_spans, _oracle_spans, st.floats(0.0, 1.0))
def test_alignment_matches_opcode_oracle(gold, pred, threshold):
    want = entity_oracles.align_entities(gold, pred, threshold)
    got = align_entities(gold, pred, threshold)
    assert got == want
    # the very span objects, in the same order
    for bucket in ("matched", "unmatched_gold", "unmatched_pred"):
        assert [id(x) for x in _flat(getattr(got, bucket))] == [id(x) for x in _flat(getattr(want, bucket))]


def _flat(items):
    return [s for item in items for s in (item if isinstance(item, tuple) else (item,))]


def test_pn_score_identical_pair_zero():
    out = align_entities([span("Paris", "GPE")], [span("Paris", "GPE")])
    assert pn_score(out, "jaro_distance") == 0.0
    assert pn_score(out, "pair_wer") == 0.0


def test_pn_score_pure_deletion():
    out = align_entities([span("Paris", "GPE")], [])
    assert pn_score(out, "jaro_distance") == 100.0
    assert pn_score(out, "pair_wer") == 100.0


def test_pn_score_pair_wer_half():
    out = align_entities([span("Nicolas Cage")], [span("Ridiculous Cage")], sim_threshold=0.5)
    assert pn_score(out, "pair_wer") == 50.0


def test_pn_score_no_entities_is_none():
    assert pn_score(EntityAlignment()) is None


def test_pn_score_mixed_slots():
    # one perfect match plus one deleted gold entity over max(2, 1) = 2 slots
    out = align_entities(
        [span("Paris", "GPE"), span("Bob", "Person", start=10)],
        [span("Paris", "GPE")],
    )
    assert len(out.matched) == 1 and len(out.unmatched_gold) == 1
    assert pn_score(out, "jaro_distance") == pytest.approx(50.0)


def test_pn_score_unknown_metric():
    out = align_entities([span("Paris", "GPE")], [span("Paris", "GPE")])
    with pytest.raises(ValueError):
        pn_score(out, "levenshtein")


def test_read_entity_file(tmp_path):
    path = tmp_path / "ents.tsv"
    path.write_text(
        "f1\t0\t12\tPerson\tNicolas Cage\n"
        "f1\t20\t25\tGPE\tParis\n"
        "f2\t3\t6\tLOC\tAlps\n",
        encoding="utf-8",
    )
    spans = read_entity_file(str(path))
    assert set(spans) == {"f1", "f2"}
    assert [s.filler for s in spans["f1"]] == ["Nicolas Cage", "Paris"]
    assert spans["f2"][0].type == "LOC"


def test_read_entity_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("f1\t0\t5\tPerson\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_entity_file(str(path))
