"""Corpus ingestion: tokenization, vocabulary, parsing, splits, embeddings.

Two corpus formats are supported. The XML format follows the SemEval ABSA
layout (``sentence`` elements carrying ``aspectTerm`` children with character
offsets and a polarity attribute). The JSONL format is a flat fixture
equivalent: one object per line with fields ``text``, ``aspect_char_start``,
``aspect_char_end``, ``label``.

Aspects labeled "conflict" are dropped and counted; every surviving instance
is one (sentence, aspect) pair with the aspect located as a token span.
"""

from __future__ import annotations

import hashlib
import json
import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LABELS = ("positive", "neutral", "negative")
LABEL_TO_ID = {name: k for k, name in enumerate(LABELS)}

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# lowercase + whitespace/punctuation split; every non-space character lands
# in exactly one token, so character spans always overlap some token
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
TOKENIZER_RULE = r"lowercased; tokens match \w+|[^\w\s] on the original text"


class CorpusFormatError(ValueError):
    """A corpus or embedding file violates its declared format."""


def tokenize(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Split text into lowercased tokens plus their original character spans."""
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group().lower())
        spans.append((m.start(), m.end()))
    return tokens, spans


def char_span_to_token_span(
    spans: list[tuple[int, int]], start: int, end: int
) -> tuple[int, int] | None:
    """Map a character interval [start, end) to the inclusive token range overlapping it."""
    hits = [k for k, (s, e) in enumerate(spans) if s < end and e > start]
    if not hits:
        return None
    return hits[0], hits[-1]


class Vocabulary:
    """Token/id bijection with fixed padding and unknown entries."""

    NUM_SPECIAL = 2

    def __init__(self):
        self._token_to_id = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN]

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def add(self, token: str) -> int:
        tid = self._token_to_id.get(token)
        if tid is None:
            tid = len(self._id_to_token)
            self._token_to_id[token] = tid
            self._id_to_token.append(token)
        return tid

    def lookup(self, token: str) -> int:
        return self._token_to_id.get(token, 1)

    def token(self, tid: int) -> str:
        return self._id_to_token[tid]

    @property
    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    def content_hash(self) -> str:
        blob = "\n".join(self._id_to_token).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        vocab = cls()
        if tokens[: cls.NUM_SPECIAL] != [PAD_TOKEN, UNK_TOKEN]:
            raise CorpusFormatError("vocabulary blob missing special entries")
        for tok in tokens[cls.NUM_SPECIAL:]:
            vocab.add(tok)
        return vocab


@dataclass(frozen=True)
class AspectInstance:
    """One (sentence, aspect) pair ready for the model."""

    token_ids: tuple[int, ...]
    aspect_start: int  # i, 0-based
    aspect_end: int  # j, 0-based inclusive
    label: str
    raw_text: str

    def __post_init__(self):
        n = len(self.token_ids)
        if not (0 <= self.aspect_start <= self.aspect_end < n):
            raise ValueError(
                f"aspect span [{self.aspect_start}, {self.aspect_end}] "
                f"out of range for {n} tokens"
            )
        if self.label not in LABELS:
            raise ValueError(f"unknown polarity {self.label!r}")

    @property
    def length(self) -> int:
        return len(self.token_ids)


@dataclass
class DropReport:
    """Bookkeeping from one parse: what was kept and why things were dropped."""

    sentences: int = 0
    aspect_terms: int = 0
    kept: int = 0
    dropped_conflict: int = 0
    dropped_unaligned: int = 0
    tokenizer: str = TOKENIZER_RULE

    def __str__(self) -> str:
        return (
            f"{self.sentences} sentences, {self.aspect_terms} aspect terms: "
            f"kept {self.kept}, dropped {self.dropped_conflict} conflict "
            f"+ {self.dropped_unaligned} unalignable ({self.tokenizer})"
        )


def _make_instance(
    text: str,
    char_start: int,
    char_end: int,
    polarity: str,
    vocab: Vocabulary,
    grow_vocab: bool,
    report: DropReport,
    where: str,
    last: dict[str, list],
) -> AspectInstance | None:
    """One instance, or None when dropped.

    A sentence's aspect terms come one after another, so ``last`` keeps the
    previous text as {text: [tokens, spans, ids]}; ids are filled in when an
    instance of it is kept, so the vocabulary grows as with fresh tokenizing.
    """
    report.aspect_terms += 1
    if polarity == "conflict":
        report.dropped_conflict += 1
        return None
    if polarity not in LABELS:
        raise CorpusFormatError(f"{where}: unknown polarity {polarity!r}")
    entry = last.get(text)
    if entry is None:
        last.clear()
        entry = last[text] = [*tokenize(text), None]
    tokens, spans, ids = entry
    span = char_span_to_token_span(spans, char_start, char_end)
    if span is None or not tokens:
        report.dropped_unaligned += 1
        return None
    if ids is None:
        ids = entry[2] = tuple(vocab.add(t) if grow_vocab else vocab.lookup(t) for t in tokens)
    report.kept += 1
    return AspectInstance(ids, span[0], span[1], polarity, text)


def _xml_offset(value: str) -> int:
    # int() would also take signs, spaces, underscores and non-ASCII digits
    if not value.isascii() or not value.isdigit():
        raise ValueError(f"offsets must be ASCII digits, got {value!r}")
    return int(value)


def _parse_semeval_xml(path: Path, vocab, grow_vocab, report) -> list[AspectInstance]:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        line, col = exc.position
        raise CorpusFormatError(f"{path}: malformed XML at line {line}, column {col}") from exc
    instances = []
    last: dict[str, list] = {}
    for sentence in root.iter("sentence"):
        text_el = sentence.find("text")
        if text_el is None or text_el.text is None:
            continue
        report.sentences += 1
        text = text_el.text
        for term in sentence.iter("aspectTerm"):
            try:
                start = _xml_offset(term.attrib["from"])
                end = _xml_offset(term.attrib["to"])
                polarity = term.attrib["polarity"]
            except KeyError as exc:
                raise CorpusFormatError(
                    f"{path}: aspectTerm in sentence "
                    f"{sentence.attrib.get('id', '?')} missing {exc}"
                ) from exc
            except ValueError as exc:
                raise CorpusFormatError(
                    f"{path}: aspectTerm in sentence "
                    f"{sentence.attrib.get('id', '?')} has a non-integer offset: {exc}"
                ) from exc
            inst = _make_instance(
                text, start, end, polarity, vocab, grow_vocab, report,
                f"{path} sentence {sentence.attrib.get('id', '?')}", last,
            )
            if inst is not None:
                instances.append(inst)
    return instances


def _utf8_lines(fh, path: Path):
    """Number the lines of a text file opened as UTF-8; bytes that do not decode are a CorpusFormatError."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # the error's byte position counts from the reader's buffer, not the file
        raise CorpusFormatError(f"{path}: not valid UTF-8 text ({exc.reason})") from exc


def _parse_jsonl(path: Path, vocab, grow_vocab, report) -> list[AspectInstance]:
    instances = []
    last: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _utf8_lines(fh, path):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(
                    f"{path}: malformed JSON at line {lineno}, column {exc.colno}"
                ) from exc
            try:
                text = rec["text"]
                start = rec["aspect_char_start"]
                end = rec["aspect_char_end"]
                polarity = rec["label"]
            except (KeyError, TypeError) as exc:
                raise CorpusFormatError(f"{path}: line {lineno} missing field {exc}") from exc
            for offset in (start, end):
                # non-negative JSON integers only: a float would be truncated, a
                # bool read as 0/1 and a negative offset aligned with token 0
                if type(offset) is not int or offset < 0:
                    raise CorpusFormatError(f"{path}: line {lineno} has a non-integer aspect offset: {offset!r}")
            report.sentences += 1
            inst = _make_instance(
                text, start, end, polarity, vocab, grow_vocab, report,
                f"{path} line {lineno}", last,
            )
            if inst is not None:
                instances.append(inst)
    return instances


def parse_corpus(
    path: str | Path,
    vocab: Vocabulary | None = None,
    grow_vocab: bool = True,
) -> tuple[list[AspectInstance], Vocabulary, DropReport]:
    """Parse a corpus file into aspect instances.

    A ``.xml`` suffix, in any case, means SemEval XML; any other file is JSONL.
    Token ids come from ``vocab`` (created fresh when None); with
    ``grow_vocab`` False unseen tokens map to the unknown id instead of
    extending the vocabulary, which is what evaluation on a fixed checkpoint
    needs.
    """
    path = Path(path)
    if vocab is None:
        vocab = Vocabulary()
    report = DropReport()
    parse = _parse_semeval_xml if path.suffix.lower() == ".xml" else _parse_jsonl
    instances = parse(path, vocab, grow_vocab, report)
    return instances, vocab, report


def label_counts(instances: list[AspectInstance]) -> dict[str, int]:
    counts = {name: 0 for name in LABELS}
    for inst in instances:
        counts[inst.label] += 1
    return counts


def split_train_dev(
    instances: list[AspectInstance], seed: int
) -> tuple[list[AspectInstance], list[AspectInstance]]:
    """Hold out floor(N/6) instances, sampled without replacement, as dev."""
    n = len(instances)
    if n == 0:
        raise ValueError("cannot split an empty instance list")
    dev_size = n // 6
    if n < 6:
        warnings.warn(f"only {n} instances; holding out 1 for dev", stacklevel=2)
        dev_size = 1
    rng = np.random.default_rng(seed)
    dev_idx = set(rng.choice(n, size=dev_size, replace=False).tolist())
    train = [inst for k, inst in enumerate(instances) if k not in dev_idx]
    dev = [inst for k, inst in enumerate(instances) if k in dev_idx]
    return train, dev


@dataclass
class EmbeddingMatrix:
    """Word vectors per vocabulary row plus per-row provenance."""

    matrix: np.ndarray  # |V| x dim, float64
    pretrained: np.ndarray  # |V| bool; False = randomly initialized
    coverage: float = field(init=False)

    def __post_init__(self):
        if self.matrix.shape[0] != self.pretrained.shape[0]:
            raise ValueError("provenance flags must cover every row")
        denom = self.matrix.shape[0] - Vocabulary.NUM_SPECIAL
        self.coverage = float(self.pretrained.sum()) / denom if denom > 0 else 0.0


# a token that ends in a space and a number: the line holds more than dim values
_NUMBER_END = re.compile(r" [-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|(?i:nan|inf(?:inity)?))$")


def load_embeddings(
    path: str | Path,
    vocab: Vocabulary,
    rng: np.random.Generator,
    dim: int = 300,
) -> EmbeddingMatrix:
    """Read a text embedding file (token + ``dim`` floats per line).

    The last ``dim`` space-separated fields of a line are its vector and
    everything before them is its token, so a token may hold spaces; trailing
    whitespace is ignored. A line fails when it has fewer fields, or when its
    token's last word is a number: that line holds more than ``dim`` values.

    Vocabulary rows found in the file are copied bit-for-bit and must be
    finite numbers (only those rows are parsed); all others are
    sampled uniform in [-0.1, 0.1] (padding row zeroed). The random rows are
    drawn in one block before the file is read, so the result is deterministic
    for a given rng regardless of file ordering.
    """
    path = Path(path)
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    matrix[vocab.pad_id] = 0.0
    pretrained = np.zeros(len(vocab), dtype=bool)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in _utf8_lines(fh, path):
            line = line.rstrip()
            parts = line.rsplit(" ", dim)
            if len(parts) < 2:
                continue
            token = parts[0]
            if len(parts) != dim + 1 or _NUMBER_END.search(token):
                raise CorpusFormatError(
                    f"{path}: line {lineno} has {line.count(' ')} values, expected {dim}"
                )
            if token in vocab:
                try:
                    row = np.array([float(v) for v in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise CorpusFormatError(f"{path}: line {lineno} has a non-numeric value: {exc}") from exc
                if not np.isfinite(row).all():
                    raise CorpusFormatError(f"{path}: line {lineno} has a non-finite value")
                tid = vocab.lookup(token)
                matrix[tid] = row
                pretrained[tid] = True
    return EmbeddingMatrix(matrix=matrix, pretrained=pretrained)
