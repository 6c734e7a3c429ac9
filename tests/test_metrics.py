import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asrlab.metrics import (
    EmptyReferenceError,
    EvalRow,
    build_report,
    jaro_winkler,
    weighted_average,
    wer,
)
from asrlab.textnorm import normalize
from tests.metrics_oracles import word_align


# --- independent oracles -----------------------------------------------------

def exhaustive_edit_distance(ref, hyp):
    """Plain recursion over all alignments; no DP table shared with the implementation."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    pair_cost = 0 if ref[0] == hyp[0] else 1
    return min(
        pair_cost + exhaustive_edit_distance(ref[1:], hyp[1:]),
        1 + exhaustive_edit_distance(ref[1:], hyp),  # deletion
        1 + exhaustive_edit_distance(ref, hyp[1:]),  # insertion
    )


def reference_jaro(a, b):
    """Textbook Jaro similarity, kept separate from the library implementation."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    used = [False] * len(b)
    ma, mb = [], []
    for i, ch in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            if not used[j] and b[j] == ch:
                used[j] = True
                ma.append(ch)
                break
    for j, ch in enumerate(b):
        if used[j]:
            mb.append(ch)
    if not ma:
        return 0.0
    m = len(ma)
    t = sum(x != y for x, y in zip(ma, mb)) / 2
    return (m / len(a) + m / len(b) + (m - t) / m) / 3


# --- word_align / wer --------------------------------------------------------

def test_align_substitution_case():
    a = word_align(["nicolas", "cage"], ["ridiculous", "cage"])
    assert (a.substitutions, a.insertions, a.deletions) == (1, 0, 0)


def test_align_identity():
    a = word_align(["x", "y"], ["x", "y"])
    assert (a.substitutions, a.insertions, a.deletions, a.hits) == (0, 0, 0, 2)


def test_align_deletion():
    a = word_align(["a", "b", "c"], ["a", "c"])
    assert (a.deletions, a.substitutions, a.insertions) == (1, 0, 0)


@settings(max_examples=500)
@given(
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=5),
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=5),
)
def test_align_cost_matches_exhaustive_oracle(ref, hyp):
    align = word_align(ref, hyp)
    assert align.errors == exhaustive_edit_distance(ref, hyp)
    # count invariants
    assert align.substitutions + align.deletions + align.hits == len(ref)
    assert align.substitutions + align.insertions + align.hits == len(hyp)
    # pairs reproduce both sequences
    assert [r for r, _ in align.pairs if r is not None] == ref
    assert [h for _, h in align.pairs if h is not None] == hyp


def test_wer_contraction_raw_vs_normalized():
    ref, hyp = "there's", "there is"
    assert wer(ref.split(), hyp.split()) == 2.0
    assert wer(normalize(ref).split(), normalize(hyp).split()) == 0.0


def test_wer_half():
    assert wer(["nicolas", "cage"], ["ridiculous", "cage"]) == 0.5


def test_wer_empty_reference_is_an_error():
    with pytest.raises(EmptyReferenceError):
        wer([], ["a"])


@given(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6),
    st.lists(st.sampled_from(["a", "b", "c"]), max_size=6),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=0, max_size=3),
)
def test_wer_insertion_growth_bounded(ref, hyp, extra):
    # splicing k extra words into hyp raises the error count by at most k
    base = word_align(ref, hyp).errors
    spliced = hyp[: len(hyp) // 2] + extra + hyp[len(hyp) // 2 :]
    assert word_align(ref, spliced).errors <= base + len(extra)
    assert wer(ref, ref) == 0.0


# --- wer's bit-vector count against the word_align DP ----------------------

WORDS = st.sampled_from(["a", "b", "c", "d"])


def word_lists(lo: int, hi: int):
    # draw the length first, so lengths spread over [lo, hi] instead of clustering near lo
    return st.integers(lo, hi).flatmap(lambda n: st.lists(WORDS, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(word_lists(1, 80), word_lists(0, 80))
def test_wer_count_matches_word_align(ref, hyp):
    # lengths cross the 64-bit limb boundary; a 4-word vocabulary repeats tokens
    assert wer(ref, hyp) == word_align(ref, hyp).errors / len(ref)


# --- the shared-ends trim in front of the bit-vector loop --------------------

RUNS = st.lists(st.sampled_from(["a", "a", "a", "b"]), max_size=6)  # runs of "a" let prefix and suffix overlap


@settings(max_examples=400, deadline=None)
@given(RUNS, RUNS, RUNS, RUNS, st.sampled_from(["both", "equal", "ref_longer", "hyp_longer", "no_hyp"]))
def test_wer_with_shared_ends_matches_word_align(prefix, ref_mid, hyp_mid, suffix, shape):
    if shape == "equal":
        hyp_mid = ref_mid
    elif shape == "ref_longer":  # hyp is a prefix, suffix or part of ref
        hyp_mid = []
    elif shape == "hyp_longer":
        ref_mid = []
    ref = prefix + ref_mid + suffix
    hyp = [] if shape == "no_hyp" else prefix + hyp_mid + suffix
    if ref:
        assert wer(ref, hyp) == word_align(ref, hyp).errors / len(ref)


@pytest.mark.parametrize("ref,hyp,errors", [
    ("a a a", "a a", 1), ("a a", "a a a", 1), ("a a a a", "a", 3), ("a", "a a a a", 3),
    ("a b a", "a a", 1), ("a a", "a b a", 1), ("a b", "a b", 0), ("a b c", "", 3), ("a b a", "a b a b a", 2),
])
def test_wer_when_prefix_and_suffix_could_overlap(ref, hyp, errors):
    ref, hyp = ref.split(), hyp.split()
    assert word_align(ref, hyp).errors == errors
    assert wer(ref, hyp) == errors / len(ref)


def test_wer_one_word_reference():
    assert wer(["a"], ["a"]) == 0.0
    assert wer(["a"], ["b"]) == 1.0
    assert wer(["a"], ["b", "a", "c"]) == 2.0
    assert wer(["a"], ["b", "c", "d"]) == 3.0


def test_wer_empty_hypothesis_counts_every_deletion():
    assert wer(["a", "b", "a"], []) == 1.0


@pytest.mark.parametrize("n,m", [(3, 7), (7, 3), (5, 5), (70, 1)])
def test_wer_disjoint_vocabularies(n, m):
    assert wer(["r"] * n, ["h"] * m) == max(n, m) / n


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_wer_at_limb_boundaries(n):
    rng = np.random.default_rng(n)
    ref = [str(w) for w in rng.integers(0, 6, n)]
    hyps = [
        ref,
        ref[1:],                                   # first word deleted
        ref[:-1],                                  # last word deleted
        ref + ["x"],                               # word inserted after the last
        ref[:-1] + ["x"],                          # last word substituted
        [str(w) for w in rng.integers(0, 6, n + 3)],
    ]
    for hyp in hyps:
        assert wer(ref, hyp) == word_align(ref, hyp).errors / n
    assert wer(ref, ref[1:]) == wer(ref, ref[:-1]) == wer(ref, ref + ["x"]) == 1 / n


def test_wer_long_form_known_substitutions():
    # each out-of-vocabulary word costs at least one edit, so k substitutions score exactly k/n
    n, k = 10_000, 7
    rng = np.random.default_rng(0)
    ref = [f"w{w}" for w in rng.integers(0, 200, n)]
    hyp = list(ref)
    for pos in range(700, n, n // k)[:k]:
        hyp[pos] = "oov"
    assert wer(ref, hyp) == k / n


# --- jaro_winkler ------------------------------------------------------------

def test_jw_martha():
    assert jaro_winkler("martha", "marhta") == pytest.approx(0.9611, abs=1e-4)


def test_jw_identity_and_disjoint():
    assert jaro_winkler("abc", "abc") == 1.0
    assert jaro_winkler("abc", "xyz") == 0.0


def test_jw_empty_conventions():
    assert jaro_winkler("", "") == 1.0
    assert jaro_winkler("x", "") == 0.0
    assert jaro_winkler("", "x") == 0.0


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8))
def test_jw_symmetric_and_bounded(a, b):
    assert jaro_winkler(a, b) == pytest.approx(jaro_winkler(b, a), abs=1e-12)
    assert 0.0 <= jaro_winkler(a, b) <= 1.0
    assert (jaro_winkler(a, b) == 1.0) == (a == b)


@given(st.text(alphabet="abcd", min_size=1, max_size=8), st.text(alphabet="abcd", min_size=1, max_size=8))
def test_jw_boost_never_decreases_jaro(a, b):
    j = reference_jaro(a, b)
    jw = jaro_winkler(a, b)
    assert jw >= j - 1e-12
    # and the boost follows the stated formula exactly
    prefix = 0
    for x, y in zip(a, b):
        if x != y or prefix == 4:
            break
        prefix += 1
    if j > 0:
        assert jw == pytest.approx(j + prefix * 0.1 * (1 - j), abs=1e-12)


# --- weighted_average / report -------------------------------------------

def test_weighted_average_hand_value():
    assert weighted_average([0.2, 0.1], [10.0, 30.0]) == pytest.approx(0.125)


def test_weighted_average_equal_lengths_is_mean():
    assert weighted_average([0.3, 0.5, 0.1], [7.0, 7.0, 7.0]) == pytest.approx(0.3)


def test_weighted_average_single():
    assert weighted_average([0.42], [3.0]) == pytest.approx(0.42)


def test_weighted_average_errors():
    with pytest.raises(ValueError):
        weighted_average([0.1], [1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_average([0.1, 0.2], [1.0, 0.0])
    with pytest.raises(ValueError):
        weighted_average([], [])
    for length in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            weighted_average([0.5, 0.2], [length, 1.0])


@given(
    st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.1, 50, allow_nan=False),
)
def test_weighted_average_scale_invariant(scores, factor):
    lengths = [1.0 + i for i in range(len(scores))]
    a = weighted_average(scores, lengths)
    b = weighted_average(scores, [length * factor for length in lengths])
    assert a == pytest.approx(b, rel=1e-9)


def test_build_report_aggregates_and_none_exclusion():
    rows = [
        EvalRow("f1", 10.0, 0.2, pn_jaro=10.0, pn_wer=None),
        EvalRow("f2", 30.0, 0.1, pn_jaro=None, pn_wer=None),
    ]
    aggregates = build_report(rows)
    assert aggregates["wer"] == pytest.approx(0.125)
    assert aggregates["pn_jaro"] == pytest.approx(10.0)  # only f1 contributes
    assert aggregates["pn_wer"] is None
    # aggregates recomputable from rows with weights summing to one
    weights = np.array([10.0, 30.0]) / 40.0
    assert weights.sum() == pytest.approx(1.0)
    assert float(weights @ np.array([0.2, 0.1])) == pytest.approx(aggregates["wer"])


def test_build_report_without_wer():
    # proper-noun-only rows (ppn-score) leave wer unset; it aggregates like a PN metric
    aggregates = build_report([EvalRow("f1", 1.0, pn_jaro=20.0), EvalRow("f2", 3.0, pn_jaro=40.0)])
    assert aggregates == {"wer": None, "pn_jaro": pytest.approx(35.0), "pn_wer": None}
