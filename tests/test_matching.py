from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citeaudit.matching import (
    MatchThresholds,
    author_similarity,
    best_candidate,
    build_vocab,
    content_tokens,
    levenshtein,
    normalize_title,
    profile_match,
    title_plausibility,
    title_similarity,
    title_tokens,
)
from citeaudit.model import FieldMatch, normalize_name
from tests.conftest import make_citation, make_record
from tests.oracles import edit_distance_matrix, edit_similarity, jaccard

short_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" -"),
    max_size=40,
)


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "", 3),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("abc", "abd", 1),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected
        assert edit_distance_matrix(a, b) == expected

    @given(a=short_text, b=short_text)
    def test_matches_full_matrix_oracle(self, a, b):
        assert levenshtein(a, b) == edit_distance_matrix(a, b)

    @given(a=short_text, b=short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(a=short_text, b=short_text, prefix=short_text, suffix=short_text)
    def test_shared_ends_match_full_matrix_oracle(self, a, b, prefix, suffix):
        # Random pairs rarely share an end; these always do, and the shared
        # part may run into the edited middle.
        a, b = prefix + a + suffix, prefix + b + suffix
        assert levenshtein(a, b) == edit_distance_matrix(a, b)

    # Lengths on both sides of 32, 64, 128 and 256 bits: a bit-vector column
    # cut to a fixed width first goes wrong there.
    WORD_EDGES = (0, 1, 2, 31, 32, 63, 64, 65, 127, 128, 129, 255, 256, 300)
    ALPHABETS = (
        "ab",
        "abcdefghijklmnopqrstuvwxyz0123456789 ",
        "aeiouéèêëåäöøßæœ ",
        "a\u0301\u00e9\u4e2d\u6587\U0001d49c\U0001f600 ",
    )

    def _long_pairs(self):
        rng = random.Random(20011999)
        pairs = []
        for alphabet in self.ALPHABETS:
            for length in self.WORD_EDGES:
                a = "".join(rng.choice(alphabet) for _ in range(length))
                # One unrelated partner and one a few edits away, so both
                # large and small distances are covered.
                other = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
                edited = list(a)
                for _ in range(rng.randint(0, 8)):
                    op = rng.randrange(3)
                    pos = rng.randint(0, len(edited))
                    if op == 0:
                        edited.insert(pos, rng.choice(alphabet))
                    elif edited and pos < len(edited):
                        if op == 1:
                            del edited[pos]
                        else:
                            edited[pos] = rng.choice(alphabet)
                pairs.append((a, other))
                pairs.append((a, "".join(edited)))
        return pairs

    def test_long_and_non_ascii_match_full_matrix_oracle(self):
        for a, b in self._long_pairs():
            assert levenshtein(a, b) == edit_distance_matrix(a, b), (a, b)

    def test_long_and_non_ascii_symmetric(self):
        for a, b in self._long_pairs():
            assert levenshtein(a, b) == levenshtein(b, a)


class TestTitleSimilarity:
    def test_identical_is_one(self):
        assert title_similarity("Deep learning", "Deep learning") == 1.0

    def test_case_and_punctuation_ignored(self):
        assert title_similarity("Deep Learning!", "deep learning") == 1.0

    def test_both_empty_is_one(self):
        assert title_similarity("", "") == 1.0

    def test_one_empty_is_zero(self):
        assert title_similarity("Deep learning", "") == 0.0

    def test_blend_takes_the_larger_component(self):
        a = "A benchmark model for power system stability controls"
        b = "Fundamentals of power systems modelling in the presence of converter-interfaced generation"
        na, nb = normalize_title(a), normalize_title(b)
        expected = max(jaccard(set(na.split()), set(nb.split())), edit_similarity(na, nb))
        assert title_similarity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_titles_score_low(self):
        assert title_similarity("alpha beta gamma", "delta epsilon zeta") < 0.6

    @given(a=short_text, b=short_text)
    def test_bounded_and_symmetric(self, a, b):
        s = title_similarity(a, b)
        assert 0.0 <= s <= 1.0
        assert s == title_similarity(b, a)

    @given(a=short_text, b=short_text)
    def test_never_below_either_component(self, a, b):
        na, nb = normalize_title(a), normalize_title(b)
        s = title_similarity(a, b)
        assert s >= jaccard(set(na.split()) - {""}, set(nb.split()) - {""}) - 1e-12
        assert s >= edit_similarity(na, nb) - 1e-12


class TestAuthorSimilarity:
    def _names(self, *raw):
        return tuple(normalize_name(r) for r in raw)

    def test_identical_lists(self):
        a = self._names("Ada Lovelace", "Charles Babbage")
        assert author_similarity(a, a) == 1.0

    def test_initial_matches_full_given_name(self):
        claimed = self._names("D. Kingma", "J. Ba")
        record = self._names("Diederik P. Kingma", "Jimmy Ba")
        assert author_similarity(claimed, record) == 1.0

    def test_a_bare_surname_is_compatible_with_any_initials(self):
        claimed = self._names("Kingma")
        record = self._names("Diederik Kingma")
        assert author_similarity(claimed, record) == 1.0
        assert author_similarity(record, claimed) == 1.0

    def test_surname_only_scores_half(self):
        claimed = self._names("Q. Kingma")
        record = self._names("Diederik Kingma")
        assert author_similarity(claimed, record) == 0.5

    def test_four_of_five_with_two_strangers(self):
        claimed = self._names("Z. Sprague", "X. Ye", "K. Richardson", "G. Durrett")
        record = self._names(
            "Zayne Sprague", "Xi Ye", "Kaj Bostrom", "Swarat Chaudhuri", "Greg Durrett"
        )
        assert author_similarity(claimed, record) == pytest.approx(0.6)

    def test_one_dropped_one_added(self):
        claimed = self._names(
            "M. Paolone", "T. Gaunt", "X. Guillaud", "M. Liserre", "S. Meliopoulos",
            "A. Monti", "T. Van Cutsem", "J. Martinez", "C. Vournas",
        )
        record = self._names(
            "M. Paolone", "T. Gaunt", "X. Guillaud", "M. Liserre", "S. Meliopoulos",
            "A. Monti", "T. Van Cutsem", "V. Vittal", "C. Vournas",
        )
        assert author_similarity(claimed, record) == pytest.approx(8 / 9)

    def test_placeholders_never_align(self):
        claimed = self._names("Firstname Lastname", "Others")
        record = self._names("Firstname Lastname", "Ada Lovelace")
        assert author_similarity(claimed, record) == 0.0

    def test_each_record_author_used_once(self):
        claimed = self._names("A. Smith", "B. Smith")
        record = self._names("Alice Smith")
        assert author_similarity(claimed, record) <= 0.5

    def test_empty_claimed_list(self):
        assert author_similarity((), self._names("Ada Lovelace")) == 0.0

    def test_both_empty(self):
        assert author_similarity((), ()) == 1.0


class TestThresholds:
    def test_defaults_satisfy_ordering(self):
        t = MatchThresholds()
        assert 0 < t.title_strong <= 1
        assert 0 < t.author_strong <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"title_strong": 0.0},
            {"title_strong": 1.2},
            {"author_strong": 0.0},
            {"author_strong": 1.5},
            {"year_slack": -1},
        ],
    )
    def test_invalid_combinations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MatchThresholds(**kwargs)

    def test_holds_only_what_profile_match_reads(self):
        names = [f.name for f in fields(MatchThresholds)]
        assert names == ["title_strong", "author_strong", "year_slack"]


class TestProfileMatch:
    def test_all_fields_agree(self):
        c = make_citation(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            year=2015,
        )
        r = make_record(
            authors=("Yann LeCun", "Yoshua Bengio", "Geoffrey Hinton"),
            title="Deep learning",
            venue="Nature",
            year=2015,
        )
        p = profile_match(c, r, MatchThresholds())
        assert p.core_all_match()

    def test_year_slack_of_one(self):
        c = make_citation(year=2015)
        r = make_record(year=2014)
        assert profile_match(c, r, MatchThresholds()).year_match is FieldMatch.MATCH

    def test_year_off_by_two_mismatches(self):
        c = make_citation(year=2016)
        r = make_record(year=2014)
        assert profile_match(c, r, MatchThresholds()).year_match is FieldMatch.MISMATCH

    def test_missing_year_is_missing_not_match(self):
        c = make_citation(year=None)
        p = profile_match(c, make_record(year=2014), MatchThresholds())
        assert p.year_match is FieldMatch.MISSING
        assert not p.core_all_match()

    def test_record_without_year_is_missing_not_match(self):
        p = profile_match(make_citation(year=2014), make_record(year=None), MatchThresholds())
        assert p.year_match is FieldMatch.MISSING
        assert not p.core_all_match()

    def test_pages_dash_styles_equal(self):
        claimed = replace(make_citation(), pages="436--444")
        r = make_record(pages="436-444")
        assert profile_match(claimed, r, MatchThresholds()).pages_match is FieldMatch.MATCH

    def test_pages_differ(self):
        claimed = replace(make_citation(), pages="106812")
        r = make_record(pages="106811")
        assert profile_match(claimed, r, MatchThresholds()).pages_match is FieldMatch.MISMATCH

    def test_missing_pages_is_missing(self):
        p = profile_match(make_citation(), make_record(pages="1-2"), MatchThresholds())
        assert p.pages_match is FieldMatch.MISSING


class TestBestCandidate:
    @staticmethod
    def _scored(c, records):
        return [(r, profile_match(c, r, MatchThresholds())) for r in records]

    def test_empty_pool_is_none(self):
        assert best_candidate([]) is None

    def test_picks_highest_title_similarity(self):
        c = make_citation(title="Deep learning for tabular data")
        far = make_record(title="Unrelated topic entirely elsewhere")
        near = make_record(title="Deep learning for tabular data analysis")
        record, profile = best_candidate(self._scored(c, (far, near)))
        assert record is near
        assert profile.title_similarity > 0.5

    def test_title_tie_broken_by_authors(self):
        c = make_citation(title="Same title", authors=("Ada Lovelace",))
        other = make_record(title="Same title", authors=("Charles Babbage",))
        same = make_record(title="Same title", authors=("Ada Lovelace",))
        record, _ = best_candidate(self._scored(c, (other, same)))
        assert record is same

    def test_full_tie_keeps_provider_order(self):
        c = make_citation(title="Same title", authors=("Ada Lovelace",))
        first = make_record(title="Same title", authors=("Ada Lovelace",))
        second = make_record(title="Same title", authors=("Ada Lovelace",))
        scored = self._scored(c, (first, second))
        assert best_candidate(scored)[0] is first
        assert best_candidate(scored[::-1])[0] is second


class TestVocab:
    def test_build_vocab_requires_two_occurrences(self):
        vocab = build_vocab(["deep learning rocks", "deep learning rolls"])
        assert "deep" in vocab and "learning" in vocab
        assert "rocks" not in vocab

    def test_build_vocab_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            build_vocab([])

    def test_plausibility_full_coverage(self):
        vocab = frozenset({"deep", "learning", "methods"})
        assert title_plausibility("Deep learning methods", vocab) == 1.0

    def test_plausibility_partial(self):
        vocab = frozenset({"deep", "learning"})
        value = title_plausibility("Deep learning zorbulation", vocab)
        assert value == pytest.approx(2 / 3)

    def test_plausibility_empty_title_is_zero(self):
        assert title_plausibility("", frozenset({"deep"})) == 0.0

    def test_content_tokens_drop_stopwords_and_short(self):
        tokens = content_tokens("The effect of a GPT-2 model")
        assert "the" not in tokens and "of" not in tokens and "a" not in tokens
        assert "gpt" in tokens and "model" in tokens

    def test_title_tokens_preserve_stopwords(self):
        assert "the" in title_tokens("The effect")
