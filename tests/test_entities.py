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


@pytest.mark.parametrize("start,end", [(-5, 3), (-1, 0), (1.0, 2), (0, 2.5), ("1", "2"), (None, 3)])
def test_span_refuses_negative_or_non_integer_offsets(start, end):
    # alignment sorts spans by (start, end), so such an offset would reorder them
    with pytest.raises(ValueError, match="offsets must be integers >= 0"):
        EntitySpan(filler="x", type="Person", start=start, end=end)


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


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"), 5.0, -0.1, 1.000001])
def test_sim_threshold_outside_unit_interval_is_refused(threshold):
    # Jaro-Winkler similarity lies in [0, 1]: such a threshold would match every pair or none
    with pytest.raises(ValueError, match="sim_threshold must lie in \\[0, 1\\]"):
        align_entities([span("Paris", "GPE")], [span("Paris", "GPE")], sim_threshold=threshold)


def test_sim_threshold_bounds_are_allowed():
    assert len(align_entities([span("Paris", "GPE")], [span("Paris", "GPE")], sim_threshold=1.0).matched) == 1
    assert len(align_entities([span("Paris", "GPE")], [span("Lyon", "GPE")], sim_threshold=0.0).matched) == 1


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


_fillers = st.sampled_from(["alice", "Alice", "ALICE", "bob", "acme corp", "Acme Corp", "paris"])
_types_or_dropped = st.sampled_from(["Person", "Organization", "GPE", "LOC", "Date"])


@settings(max_examples=300)
@given(st.lists(st.tuples(_fillers, _types_or_dropped, _types_or_dropped, st.booleans()), max_size=8),
       st.floats(0.0, 1.0))
def test_alignment_of_equal_filler_lists_matches_the_oracle(rows, threshold):
    # gold and pred name the same entities in the same order, each side in its own case and with
    # its own type; such lists, empty ones included, skip the sequence matcher when they agree
    gold = [EntitySpan(f, g, 2 * i, 2 * i + 1) for i, (f, g, _, _) in enumerate(rows)]
    pred = [EntitySpan(f.swapcase() if flip else f, p, 2 * i, 2 * i + 1) for i, (f, _, p, flip) in enumerate(rows)]
    for g, p in ((gold, pred), (pred, gold), (gold, list(gold)), ([], []), (gold, []), ([], pred)):
        want = entity_oracles.align_entities(g, p, threshold)
        got = align_entities(g, p, threshold)
        assert got == want
        for bucket in ("matched", "unmatched_gold", "unmatched_pred"):
            assert [id(x) for x in _flat(getattr(got, bucket))] == [id(x) for x in _flat(getattr(want, bucket))]


def _flat(items):
    return [s for item in items for s in (item if isinstance(item, tuple) else (item,))]


def test_pn_score_identical_pair_zero():
    out = align_entities([span("Paris", "GPE")], [span("Paris", "GPE")])
    assert pn_score(out) == (0.0, 0.0)


def test_pn_score_pure_deletion():
    out = align_entities([span("Paris", "GPE")], [])
    assert pn_score(out) == (100.0, 100.0)


def test_pn_score_pair_wer_half():
    out = align_entities([span("Nicolas Cage")], [span("Ridiculous Cage")], sim_threshold=0.5)
    assert pn_score(out)[1] == 50.0


def test_pn_score_no_entities_is_none():
    assert pn_score(EntityAlignment()) is None


def test_pn_score_mixed_slots():
    # one perfect match plus one deleted gold entity over max(2, 1) = 2 slots
    out = align_entities(
        [span("Paris", "GPE"), span("Bob", "Person", start=10)],
        [span("Paris", "GPE")],
    )
    assert len(out.matched) == 1 and len(out.unmatched_gold) == 1
    assert pn_score(out) == pytest.approx((50.0, 50.0))


_score_fillers = st.sampled_from(["Nicolas Cage", "nicolas  CAGE", "Ridiculous Cage", "Straße", "STRASSE"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12).filter(str.strip)
_score_spans = st.builds(span, _score_fillers)


def _two_calls(align):
    """The old pn_score's two calls, or None as the new one returns it for no entities."""
    want = entity_oracles.pn_score(align, "jaro_distance"), entity_oracles.pn_score(align, "pair_wer")
    return None if want == (None, None) else want


@settings(max_examples=400)
@given(st.lists(st.tuples(_score_spans, _score_spans), max_size=6),
       st.lists(_score_spans, max_size=5), st.lists(_score_spans, max_size=5))
def test_pn_score_matches_the_two_call_oracle(matched, unmatched_gold, unmatched_pred):
    # built directly, the alignment may pair spans however dissimilar; both results must be the same floats
    align = EntityAlignment(matched, unmatched_gold, unmatched_pred)
    assert pn_score(align) == _two_calls(align)
    for gold, pred in ((unmatched_gold, unmatched_pred), ([g for g, _ in matched], [p for _, p in matched])):
        aligned = align_entities(gold, pred, 0.0)
        assert pn_score(aligned) == _two_calls(aligned)


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


@pytest.mark.parametrize("field", [1, 2])
@pytest.mark.parametrize("offset", ["-5", "1_0", " 7", "7 ", "\u0663", "+3", "", "1.0", "\uff17"])
def test_read_entity_file_refuses_offsets_that_are_not_ascii_digits(tmp_path, field, offset):
    path = tmp_path / "ents.tsv"
    fields = ["f1", "3", "9", "GPE", "Paris"]
    fields[field] = offset
    path.write_text("f1\t0\t5\tPerson\tAlice\n" + "\t".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_entity_file(str(path))
    assert str(exc.value) == f"{path}:2: invalid literal for an offset, which takes ASCII digits only: {offset!r}"


def test_read_entity_file_takes_leading_zeros(tmp_path):
    path = tmp_path / "ents.tsv"
    path.write_text("f1\t007\t012\tGPE\tParis\n", encoding="utf-8")
    assert [(s.start, s.end) for s in read_entity_file(str(path))["f1"]] == [(7, 12)]


def test_read_entity_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("f1\t0\t5\tPerson\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_entity_file(str(path))
