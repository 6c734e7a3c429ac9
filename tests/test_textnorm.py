import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from asrlab.textnorm import DEFAULT_RULES, NormRuleSet, load_rules, normalize, tokenize_words
from tests import textnorm_oracles as oracles


def test_contraction_and_punctuation():
    assert normalize("There's a cat.") == "there is a cat"


def test_empty_input():
    assert normalize("") == ""


def test_filler_removal():
    assert normalize("ummm there is") == "there is"


def test_hyphenated_filler_survives_stripping():
    assert normalize("mm-hmm okay") == "okay"


def test_curly_apostrophe_folded():
    assert normalize("There’s a cat") == "there is a cat"


def test_possessive_apostrophe_kept():
    assert normalize("the cat's toy") == "the cat's toy"


def test_whitespace_collapse_and_strip():
    assert normalize("  a \t b\n c  ") == "a b c"


def test_default_table_size():
    # documented default: roughly ninety contractions, nine fillers
    assert 80 <= len(DEFAULT_RULES.contractions) <= 100
    assert len(DEFAULT_RULES.fillers) == 9


def test_rule_set_rejects_uppercase_keys():
    with pytest.raises(ValueError):
        NormRuleSet(contractions={"Don't": "do not"})
    with pytest.raises(ValueError):
        NormRuleSet(fillers=frozenset({"UM"}))


def test_rule_set_rejects_expansion_that_normalizes_differently():
    # "Foo!" would become "um, yes", and that again "yes"
    with pytest.raises(ValueError, match="'foo'"):
        NormRuleSet(contractions={"foo": "um, yes"}, fillers=frozenset({"um"}))
    with pytest.raises(ValueError):
        NormRuleSet(contractions={"gonna": "going to", "to": "toward"})
    assert NormRuleSet(contractions={"foo": "yes"}, fillers=frozenset({"um"})).contractions == {"foo": "yes"}


_VOCAB = ["a", "b", "c'd", "e-f", "um"]


@settings(max_examples=200)
@given(
    st.dictionaries(st.sampled_from(_VOCAB), st.lists(st.sampled_from(_VOCAB + ["x,", "Y"]), max_size=3).map(" ".join)),
    st.frozensets(st.sampled_from(_VOCAB)),
    st.lists(st.sampled_from(_VOCAB + ["A", "c’d", ",", "-", "'"]), max_size=12),
)
def test_every_accepted_rule_set_is_idempotent(contractions, fillers, words):
    try:
        rules = NormRuleSet(contractions=contractions, fillers=fillers)
    except ValueError:
        return
    once = normalize(" ".join(words), rules)
    assert normalize(once, rules) == once


# arbitrary Unicode, weighted towards what the punctuation step decides on:
# apostrophes and hyphens (look-alikes too) at text edges and doubled, next to
# letters, digits, "_", combining marks and other punctuation
_EDGY = st.sampled_from(
    ["'", "-", "''", "--", "'-", "’", "ʼ", "‘", "ŉ", "_", "7", "²", "a", "É", "\u0301", "ß", "İ", ".", "—", "¿", " ", "um"]
)


@settings(max_examples=500)
@given(st.lists(st.one_of(st.text(max_size=4), _EDGY), max_size=16).map("".join))
def test_normalize_matches_the_character_loop(text):
    assert normalize(text) == oracles.normalize(text)


@pytest.mark.parametrize("text", ["ŉ", "'ŉ'", "don’t-", "-'a'-", "a''b", "x--y", "_'_", "1-2", "é\u0301-b"])
def test_normalize_matches_the_character_loop_on_edge_cases(text):
    assert normalize(text) == oracles.normalize(text)


def test_apostrophes_fold_before_casefold():
    # "ŉ" casefolds to U+02BC + "n"; folding afterwards would split it into "'n"
    assert normalize("ŉ") == "ʼn"


def test_regex_alphanumeric_class_is_isalnum():
    alnum = re.compile(r"[^\W_]")
    assert all(
        bool(alnum.match(ch)) == ch.isalnum() for ch in map(chr, range(sys.maxunicode + 1))
    )


def test_tokenize_examples():
    assert tokenize_words("there is a cat") == ["there", "is", "a", "cat"]
    assert tokenize_words("") == []
    assert tokenize_words("a  b") == ["a", "b"]


# text() covers arbitrary unicode including punctuation, controls, surroga-like chars
@settings(max_examples=400)
@given(st.text(max_size=60))
def test_idempotence(text):
    once = normalize(text)
    assert normalize(once) == once


@given(st.text(max_size=60))
def test_determinism(text):
    assert normalize(text) == normalize(text)


@given(st.text(max_size=60))
def test_tokenize_join_round_trip(text):
    norm = normalize(text)
    assert " ".join(tokenize_words(norm)) == norm
    assert all(tok and not any(c.isspace() for c in tok) for tok in tokenize_words(norm))


def test_expansions_contain_no_contractions():
    for value in DEFAULT_RULES.contractions.values():
        for word in value.split():
            assert word not in DEFAULT_RULES.contractions


def test_load_rules(tmp_path):
    path = tmp_path / "custom.rules"
    path.write_text(
        "# custom rule file\n"
        "[contractions]\n"
        "gonna\tgoing to\n"
        "Won't\twill not\n"
        "\n"
        "[fillers]\n"
        "hmm\n"
        "Like\n",
        encoding="utf-8",
    )
    rules = load_rules(str(path))
    assert rules.contractions == {"gonna": "going to", "won't": "will not"}
    assert rules.fillers == frozenset({"hmm", "like"})
    assert normalize("Gonna win, like, hmm won't we", rules) == "going to win will not we"


def test_load_rules_rejects_headerless_content(tmp_path):
    path = tmp_path / "bad.rules"
    path.write_text("gonna\tgoing to\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_rules(str(path))


def test_load_rules_rejects_expansion_that_is_not_normalized(tmp_path):
    path = tmp_path / "unstable.rules"
    path.write_text("[contractions]\nfoo\tum, yes\n[fillers]\num\n", encoding="utf-8")
    with pytest.raises(ValueError, match="'um, yes'"):
        load_rules(str(path))


def test_load_rules_rejects_missing_tab(tmp_path):
    path = tmp_path / "bad2.rules"
    path.write_text("[contractions]\ngonna going to\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_rules(str(path))
