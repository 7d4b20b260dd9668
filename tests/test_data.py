"""Tests for corpus ingestion: tokenizer, vocabulary, parsers, split, embeddings."""

from __future__ import annotations

import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcrf.data import (
    AspectInstance,
    CorpusFormatError,
    Vocabulary,
    char_span_to_token_span,
    label_counts,
    load_embeddings,
    parse_corpus,
    split_train_dev,
    tokenize,
)

XML_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<sentences>
  <sentence id="s1">
    <text>The battery life is great, the screen is dim.</text>
    <aspectTerms>
      <aspectTerm term="battery life" polarity="positive" from="4" to="16"/>
      <aspectTerm term="screen" polarity="negative" from="31" to="37"/>
    </aspectTerms>
  </sentence>
  <sentence id="s2">
    <text>Service was fine.</text>
    <aspectTerms>
      <aspectTerm term="Service" polarity="conflict" from="0" to="7"/>
    </aspectTerms>
  </sentence>
  <sentence id="s3">
    <text>No aspects here.</text>
  </sentence>
</sentences>
"""


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        tokens, _ = tokenize("The screen is dim, sadly!")
        assert tokens == ["the", "screen", "is", "dim", ",", "sadly", "!"]

    def test_spans_index_original_text(self):
        text = "Great Wi-Fi!"
        tokens, spans = tokenize(text)
        assert tokens == ["great", "wi", "-", "fi", "!"]
        for tok, (s, e) in zip(tokens, spans):
            assert text[s:e].lower() == tok

    def test_empty_text(self):
        tokens, spans = tokenize("")
        assert tokens == [] and spans == []

    def test_every_non_space_char_covered(self):
        text = "a-b  c..d"
        _, spans = tokenize(text)
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        expected = {k for k, ch in enumerate(text) if not ch.isspace()}
        assert covered == expected

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_spans_partition_non_space_characters(self, text):
        # every non-space character lies in exactly one token span, and a
        # token's own span maps back to that token alone
        tokens, spans = tokenize(text)
        owners = [0] * len(text)
        for s, e in spans:
            for k in range(s, e):
                owners[k] += 1
        assert owners == [0 if ch.isspace() else 1 for ch in text]
        for k, (tok, (s, e)) in enumerate(zip(tokens, spans)):
            assert text[s:e].lower() == tok
            assert char_span_to_token_span(spans, s, e) == (k, k)


class TestCharSpanToTokenSpan:
    def setup_method(self):
        self.text = "The battery life is great."
        _, self.spans = tokenize(self.text)

    def test_exact_single_token(self):
        # "battery" occupies chars 4..11
        assert char_span_to_token_span(self.spans, 4, 11) == (1, 1)

    def test_multi_token_span(self):
        # "battery life" chars 4..16
        assert char_span_to_token_span(self.spans, 4, 16) == (1, 2)

    def test_partial_overlap_counts(self):
        # chars 9..14 clip the tail of "battery" and head of "life"
        assert char_span_to_token_span(self.spans, 9, 14) == (1, 2)

    def test_inside_one_token(self):
        assert char_span_to_token_span(self.spans, 5, 7) == (1, 1)

    def test_no_overlap_returns_none(self):
        # chars 3..4 cover only the space before "battery"
        assert char_span_to_token_span(self.spans, 3, 4) is None


class TestVocabulary:
    def test_special_ids_fixed(self):
        vocab = Vocabulary()
        assert vocab.pad_id == 0 and vocab.unk_id == 1
        assert vocab.token(0) == "<pad>" and vocab.token(1) == "<unk>"
        assert len(vocab) == 2

    def test_add_is_idempotent(self):
        vocab = Vocabulary()
        first = vocab.add("pizza")
        assert vocab.add("pizza") == first
        assert len(vocab) == 3

    def test_lookup_unknown_maps_to_unk(self):
        vocab = Vocabulary()
        vocab.add("pizza")
        assert vocab.lookup("pizza") == 2
        assert vocab.lookup("sushi") == vocab.unk_id

    def test_from_tokens_round_trip(self):
        vocab = Vocabulary()
        for tok in ["alpha", "beta", "gamma"]:
            vocab.add(tok)
        clone = Vocabulary.from_tokens(vocab.tokens)
        assert clone.tokens == vocab.tokens
        assert clone.content_hash() == vocab.content_hash()

    def test_from_tokens_requires_specials(self):
        with pytest.raises(CorpusFormatError):
            Vocabulary.from_tokens(["alpha", "beta"])

    def test_content_hash_tracks_content(self):
        a, b = Vocabulary(), Vocabulary()
        a.add("x")
        assert a.content_hash() != b.content_hash()
        b.add("x")
        assert a.content_hash() == b.content_hash()


class TestAspectInstance:
    def test_valid_instance(self):
        inst = AspectInstance((5, 6, 7), 1, 2, "positive", "raw")
        assert inst.length == 3

    def test_span_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AspectInstance((5, 6), 1, 2, "positive", "raw")
        with pytest.raises(ValueError):
            AspectInstance((5, 6), 1, 0, "positive", "raw")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            AspectInstance((5,), 0, 0, "mixed", "raw")


class TestParseXml:
    def test_instances_and_report(self, tmp_path):
        path = tmp_path / "corpus.xml"
        path.write_text(XML_DOC, encoding="utf-8")
        instances, vocab, report = parse_corpus(path)
        assert len(instances) == 2
        assert report.sentences == 3
        assert report.aspect_terms == 3
        assert report.kept == 2
        assert report.dropped_conflict == 1
        first = instances[0]
        assert first.label == "positive"
        assert vocab.token(first.token_ids[first.aspect_start]) == "battery"
        assert vocab.token(first.token_ids[first.aspect_end]) == "life"

    def test_malformed_xml_names_position(self, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_text("<sentences><sentence>", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line"):
            parse_corpus(path)

    def test_missing_offset_attribute(self, tmp_path):
        path = tmp_path / "corpus.xml"
        path.write_text(
            '<sentences><sentence id="s"><text>ok food</text>'
            '<aspectTerms><aspectTerm term="food" polarity="positive" from="3"/>'
            "</aspectTerms></sentence></sentences>",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="missing"):
            parse_corpus(path)

    def test_non_integer_offset_names_sentence(self, tmp_path):
        path = tmp_path / "corpus.xml"
        path.write_text(
            '<sentences><sentence id="s7"><text>ok food</text>'
            '<aspectTerms><aspectTerm term="food" polarity="positive" from="four" to="7"/>'
            "</aspectTerms></sentence></sentences>",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="sentence s7 has a non-integer offset"):
            parse_corpus(path)

    def test_unknown_polarity_rejected(self, tmp_path):
        path = tmp_path / "corpus.xml"
        path.write_text(
            '<sentences><sentence id="s"><text>ok food</text>'
            '<aspectTerms><aspectTerm term="food" polarity="angry" from="3" to="7"/>'
            "</aspectTerms></sentence></sentences>",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="polarity"):
            parse_corpus(path)


class TestParseJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"text": "Great pizza.", "aspect_char_start": 6, "aspect_char_end": 11, "label": "positive"}\n'
            "\n"
            '{"text": "The menu was plain.", "aspect_char_start": 4, "aspect_char_end": 8, "label": "neutral"}\n',
            encoding="utf-8",
        )
        instances, vocab, report = parse_corpus(path)
        assert [inst.label for inst in instances] == ["positive", "neutral"]
        assert report.kept == 2
        menu = instances[1]
        assert vocab.token(menu.token_ids[menu.aspect_start]) == "menu"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"text": "ok pizza", "aspect_char_start": 3, "aspect_char_end": 8, "label": "positive"}\n'
            "{oops\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="line 2"):
            parse_corpus(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok", "label": "positive"}\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            parse_corpus(path)

    def test_non_integer_offset_names_line(self, tmp_path):
        # floats would be truncated, bools and digit strings read as numbers
        path = tmp_path / "corpus.jsonl"
        for start, end in (('"x"', "8"), ("3.9", "8"), ("3", "8.0"), ("4.9", "9.2"),
                           ("true", "8"), ("3", '"8"'), ("false", "true"), ("null", "8")):
            path.write_text(
                '{"text": "ok pizza", "aspect_char_start": 3, "aspect_char_end": 8, "label": "positive"}\n'
                f'{{"text": "ok pizza", "aspect_char_start": {start}, "aspect_char_end": {end}, '
                '"label": "positive"}\n',
                encoding="utf-8",
            )
            with pytest.raises(CorpusFormatError, match=re.escape(f"{path}: line 2 has a non-integer aspect offset")):
                parse_corpus(path)

    def test_unaligned_span_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"text": "ab", "aspect_char_start": 50, "aspect_char_end": 60, "label": "positive"}\n',
            encoding="utf-8",
        )
        instances, _, report = parse_corpus(path)
        assert instances == []
        assert report.dropped_unaligned == 1

    def test_frozen_vocab_maps_unseen_to_unk(self, tmp_path):
        train = tmp_path / "train.jsonl"
        train.write_text(
            '{"text": "good pizza", "aspect_char_start": 5, "aspect_char_end": 10, "label": "positive"}\n',
            encoding="utf-8",
        )
        test = tmp_path / "test.jsonl"
        test.write_text(
            '{"text": "good sushi", "aspect_char_start": 5, "aspect_char_end": 10, "label": "positive"}\n',
            encoding="utf-8",
        )
        _, vocab, _ = parse_corpus(train)
        size_before = len(vocab)
        instances, vocab2, _ = parse_corpus(test, vocab=vocab, grow_vocab=False)
        assert vocab2 is vocab and len(vocab) == size_before
        assert instances[0].token_ids[1] == vocab.unk_id

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_corpus(tmp_path / "nope.jsonl")

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="format"):
            parse_corpus(path, fmt="csv")


def make_instances(n):
    return [AspectInstance((2, 3), 0, 0, "positive", f"t{k}") for k in range(n)]


class TestSplit:
    def test_sizes_floor_n_over_six(self):
        for n in (6, 11, 12, 600):
            train, dev = split_train_dev(make_instances(n), seed=0)
            assert len(dev) == n // 6
            assert len(train) + len(dev) == n

    def test_small_corpus_warns_and_keeps_one(self):
        with pytest.warns(UserWarning, match="holding out 1"):
            train, dev = split_train_dev(make_instances(4), seed=0)
        assert len(dev) == 1 and len(train) == 3

    def test_deterministic_and_disjoint(self):
        instances = make_instances(60)
        t1, d1 = split_train_dev(instances, seed=5)
        t2, d2 = split_train_dev(instances, seed=5)
        assert [i.raw_text for i in t1] == [i.raw_text for i in t2]
        assert [i.raw_text for i in d1] == [i.raw_text for i in d2]
        assert set(i.raw_text for i in t1).isdisjoint(i.raw_text for i in d1)
        t3, _ = split_train_dev(instances, seed=6)
        assert [i.raw_text for i in t3] != [i.raw_text for i in t1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_train_dev([], seed=0)

    def test_label_counts(self):
        instances = [
            AspectInstance((2,), 0, 0, label, "t")
            for label in ["positive", "positive", "negative"]
        ]
        counts = label_counts(instances)
        assert counts == {"positive": 2, "neutral": 0, "negative": 1}


class TestLoadEmbeddings:
    def write_vectors(self, path, rows, dim=4):
        lines = [tok + " " + " ".join(str(v) for v in vec) for tok, vec in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert all(len(vec) == dim for _, vec in rows)

    def test_found_rows_copied_exactly(self, tmp_path):
        vocab = Vocabulary()
        vocab.add("pizza")
        vocab.add("menu")
        path = tmp_path / "vecs.txt"
        self.write_vectors(path, [("pizza", [0.25, -1.5, 3.0, 0.125]), ("unused", [9, 9, 9, 9])])
        emb = load_embeddings(path, vocab, np.random.default_rng(0), dim=4)
        npt.assert_array_equal(emb.matrix[2], [0.25, -1.5, 3.0, 0.125])
        assert emb.pretrained[2] and not emb.pretrained[3]
        assert emb.coverage == 0.5

    def test_random_rows_in_range_pad_zero(self, tmp_path):
        vocab = Vocabulary()
        vocab.add("menu")
        path = tmp_path / "vecs.txt"
        self.write_vectors(path, [("other", [1, 2, 3, 4])])
        emb = load_embeddings(path, vocab, np.random.default_rng(3), dim=4)
        npt.assert_array_equal(emb.matrix[vocab.pad_id], 0.0)
        assert np.all(np.abs(emb.matrix[1:]) <= 0.1)

    def test_deterministic_regardless_of_file_order(self, tmp_path):
        vocab = Vocabulary()
        for tok in ["a", "b", "c"]:
            vocab.add(tok)
        rows = [("a", [1, 1, 1, 1]), ("c", [2, 2, 2, 2])]
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        self.write_vectors(p1, rows)
        self.write_vectors(p2, rows[::-1])
        e1 = load_embeddings(p1, vocab, np.random.default_rng(7), dim=4)
        e2 = load_embeddings(p2, vocab, np.random.default_rng(7), dim=4)
        npt.assert_array_equal(e1.matrix, e2.matrix)

    def test_wrong_width_names_line(self, tmp_path):
        vocab = Vocabulary()
        path = tmp_path / "vecs.txt"
        path.write_text("tok 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_embeddings(path, vocab, np.random.default_rng(0), dim=4)

    @pytest.mark.parametrize(
        "line,message",
        [("pizza abc 0.1 0.2 0.3", "non-numeric"), ("pizza nan 0.1 0.2 0.3", "non-finite"),
         ("pizza 0.1 -inf 0.2 0.3", "non-finite"), ("pizza 0.1 0.2 1e999 0.3", "non-finite")],
    )
    def test_bad_value_names_line(self, tmp_path, line, message):
        vocab = Vocabulary()
        vocab.add("pizza")
        path = tmp_path / "vecs.txt"
        path.write_text("menu 1 2 3 4\n" + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=f"vecs.txt: line 2 has a {message} value"):
            load_embeddings(path, vocab, np.random.default_rng(0), dim=4)
