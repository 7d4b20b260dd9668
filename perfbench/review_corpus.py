"""Restaurant-review-shaped corpus and embedding file, generated from a seed.

The real SemEval-2014 restaurants corpus and GloVe vectors are not in the
repository, so this writes a stand-in with the same shape: about 3.6k aspect
instances in SemEval XML, a vocabulary of several thousand types, sentence
lengths with a tail past 50 tokens, and a 300-d text embedding file that
covers most, not all, of the vocabulary plus rows for words the corpus never
uses. Sentences keep ``aspectcrf.synthetic``'s clause structure (labels still
follow the clause's opinion word); pseudo-word fillers drawn from a Zipf-like
lexicon are inserted between tokens to grow the vocabulary and the lengths.
"""

from __future__ import annotations

import itertools
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from aspectcrf import synthetic

INSTANCES = 3600
CLAUSES = (2, 3)
LEXICON_SIZE = 20000
ZIPF_SHIFT = 2.7
# fillers per sentence ~ lognormal: median e^1.35 = 3.9, about 1% above 31
FILLER_LOG_MEAN = 1.35
FILLER_LOG_SIGMA = 0.9
MAX_FILLERS = 80
EMBEDDING_DIM = 300
COVERAGE = 0.93
UNUSED_VECTORS = 500

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "sh", "br", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")


def pseudo_lexicon(size: int, rng: np.random.Generator) -> list[str]:
    """``size`` distinct lowercase letter-only words of two to four syllables."""
    words: list[str] = []
    seen = set(synthetic.OPENERS + synthetic.FILLERS + synthetic.VERBS + synthetic.LINKS)
    while len(words) < size:
        # draw in blocks; duplicates are skipped, so loop until enough are new
        lengths = rng.integers(2, 5, size=size)
        onsets = rng.integers(len(_ONSETS), size=(size, 4))
        vowels = rng.integers(len(_VOWELS), size=(size, 4))
        for n, ons, vows in zip(lengths, onsets, vowels):
            word = "".join(_ONSETS[o] + _VOWELS[v] for o, v in zip(ons[:n], vows[:n]))
            if word not in seen and len(words) < size:
                seen.add(word)
                words.append(word)
    return words


def _token_index(tokens: list[str]) -> dict[int, int]:
    """Character offset of each token start in the space-joined text -> token index."""
    starts = itertools.accumulate((len(t) + 1 for t in tokens[:-1]), initial=0)
    return {offset: k for k, offset in enumerate(starts)}


def review_sentences(n_instances: int, rng: np.random.Generator) -> tuple[list[dict], list[str]]:
    """Sentences as {"tokens": [...], "aspects": [(first, last, label), ...]}, plus the lexicon."""
    records = synthetic.generate_records(n_instances, rng, *CLAUSES)
    lexicon = pseudo_lexicon(LEXICON_SIZE, rng)
    cdf = np.cumsum(1.0 / (np.arange(LEXICON_SIZE) + ZIPF_SHIFT))
    cdf /= cdf[-1]
    sentences = []
    for text, group in itertools.groupby(records, key=lambda r: r["text"]):
        tokens = text.split(" ")
        first_of = _token_index(tokens)
        aspects = []
        for rec in group:
            first = first_of[rec["aspect_char_start"]]
            last = first + len(text[rec["aspect_char_start"]:rec["aspect_char_end"]].split(" ")) - 1
            aspects.append((first, last, rec["label"]))
        count = min(MAX_FILLERS, int(rng.lognormal(FILLER_LOG_MEAN, FILLER_LOG_SIGMA)))
        slots = rng.integers(0, len(tokens) + 1, size=count)
        words = np.minimum(np.searchsorted(cdf, rng.random(count), side="right"), LEXICON_SIZE - 1)
        # never split a multi-word aspect: a slot inside one moves to its start
        for k, slot in enumerate(slots):
            for first, last, _ in aspects:
                if first < slot <= last:
                    slots[k] = first
        order = np.argsort(slots, kind="stable")
        inserted_before = np.searchsorted(np.sort(slots), np.arange(len(tokens)), side="right")
        grown = list(tokens)
        for k in order[::-1]:
            grown.insert(int(slots[k]), lexicon[words[k]])
        shifted = [(f + int(inserted_before[f]), l + int(inserted_before[l]), lab) for f, l, lab in aspects]
        sentences.append({"tokens": grown, "aspects": shifted})
    return sentences, lexicon


def _char_span(tokens: list[str], first: int, last: int) -> tuple[int, int]:
    start = sum(len(t) + 1 for t in tokens[:first])
    return start, start + len(" ".join(tokens[first:last + 1]))


def write_corpus_xml(path: Path, sentences: list[dict]) -> None:
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<sentences>"]
    for sid, sent in enumerate(sentences):
        tokens = sent["tokens"]
        lines.append(f'  <sentence id="{sid}">')
        lines.append(f"    <text>{escape(' '.join(tokens))}</text>")
        lines.append("    <aspectTerms>")
        for first, last, label in sent["aspects"]:
            start, end = _char_span(tokens, first, last)
            term = " ".join(tokens[first:last + 1])
            lines.append(f'      <aspectTerm term={quoteattr(term)} polarity="{label}" from="{start}" to="{end}"/>')
        lines.append("    </aspectTerms>")
        lines.append("  </sentence>")
    lines.append("</sentences>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embeddings(path: Path, sentences: list[dict], lexicon: list[str], rng: np.random.Generator) -> None:
    """One ``word v1 .. v300`` line per covered corpus word plus unused words, shuffled."""
    used = sorted({tok for sent in sentences for tok in sent["tokens"]})
    covered = [w for w, keep in zip(used, rng.random(len(used)) < COVERAGE) if keep]
    used_set = set(used)
    unused = [w for w in lexicon if w not in used_set][:UNUSED_VECTORS]
    words = covered + unused
    order = rng.permutation(len(words))
    vectors = rng.normal(0.0, 0.3, size=(len(words), EMBEDDING_DIM))
    row_format = " ".join(["%.5f"] * EMBEDDING_DIM)
    with open(path, "w", encoding="utf-8") as fh:
        for k in order:
            fh.write(words[k] + " " + row_format % tuple(vectors[k]) + "\n")


def write_review_corpus(directory: Path, seed: int, n_instances: int = INSTANCES) -> tuple[Path, Path]:
    """Write ``reviews.xml`` and ``vectors.txt`` under ``directory``; same seed, same bytes."""
    rng = np.random.default_rng(seed)
    sentences, lexicon = review_sentences(n_instances, rng)
    corpus_path = directory / "reviews.xml"
    vectors_path = directory / "vectors.txt"
    write_corpus_xml(corpus_path, sentences)
    write_embeddings(vectors_path, sentences, lexicon, rng)
    return corpus_path, vectors_path
