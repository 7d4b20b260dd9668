"""Versioned binary checkpoint container.

Layout (all integers little-endian u32 unless noted):

    magic   b"ACRF"
    version
    config  length-prefixed canonical JSON, embedded verbatim
    meta    length-prefixed JSON (max_sentence_len, dev metrics, label order,
            vocabulary hash, embedding provenance mask)
    vocab   length-prefixed UTF-8 blob, one token per line
    count   number of tensors
    tensor* length-prefixed name, ndim, dims, raw float64 little-endian data

Raw float64 bytes round-trip bit-exactly, which is what makes save/load/
forward reproducibility checkable at equality rather than tolerance.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .data import LABELS, CorpusFormatError, Vocabulary
from .model import ModelParams, init_params

MAGIC = b"ACRF"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """The file is not a readable checkpoint of this format version."""


def _write_block(out: bytearray, payload: bytes) -> None:
    out += struct.pack("<I", len(payload))
    out += payload


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("checkpoint truncated")
        piece = self.blob[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def block(self) -> bytes:
        return self.take(self.u32())

    def text(self, what: str) -> str:
        """A block decoded as UTF-8."""
        try:
            return self.block().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"checkpoint {what} is not valid UTF-8: {exc}") from exc


def build_meta(
    max_len: int,
    dev_accuracy: float,
    dev_macro_f1: float,
    best_epoch: int,
    vocab: Vocabulary,
    pretrained_mask: np.ndarray,
) -> dict:
    return {
        "best_epoch": best_epoch,
        "dev_metrics": {"accuracy": dev_accuracy, "macro_f1": dev_macro_f1},
        "format_version": FORMAT_VERSION,
        "label_order": list(LABELS),
        "max_sentence_len": max_len,
        "pretrained_mask": "".join("1" if flag else "0" for flag in pretrained_mask),
        "vocab_sha256": vocab.content_hash(),
    }


def serialize(params: ModelParams, config: RunConfig, vocab: Vocabulary, meta: dict) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    _write_block(out, config.to_canonical_json().encode("utf-8"))
    _write_block(out, json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    _write_block(out, "\n".join(vocab.tokens).encode("utf-8"))
    named = params.named_tensors()
    out += struct.pack("<I", len(named))
    for name, tensor in named.items():
        _write_block(out, name.encode("utf-8"))
        out += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            out += struct.pack("<I", dim)
        out += tensor.data.astype("<f8").tobytes()
    return bytes(out)


@dataclass
class Loaded:
    params: ModelParams
    config: RunConfig
    vocab: Vocabulary
    meta: dict

    @property
    def max_len(self) -> int:
        return self.meta["max_sentence_len"]


def deserialize(blob: bytes) -> Loaded:
    reader = _Reader(blob)
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic bytes; not a checkpoint file")
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        config = RunConfig.from_json(reader.text("config"))
        meta = json.loads(reader.text("meta"))
        vocab = Vocabulary.from_tokens(reader.text("vocabulary").split("\n"))
    except (ConfigError, json.JSONDecodeError, CorpusFormatError) as exc:
        raise CheckpointError(f"checkpoint header rejected: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta must be a JSON object")
    max_len, mask_text = meta.get("max_sentence_len"), meta.get("pretrained_mask", "")
    if type(max_len) is not int or max_len < 1 or not isinstance(mask_text, str):
        raise CheckpointError("checkpoint meta needs a positive int max_sentence_len and a string pretrained_mask")
    stored_hash = meta.get("vocab_sha256", "")
    if vocab.content_hash() != stored_hash:
        raise CheckpointError(
            f"vocabulary hash mismatch: checkpoint declares {stored_hash}, "
            f"content hashes to {vocab.content_hash()}"
        )

    # rebuild the parameter skeleton, then overwrite every tensor by name
    params = init_params(config, len(vocab), np.random.default_rng(0))
    named = params.named_tensors()
    count = reader.u32()
    seen = set()
    for _ in range(count):
        name = reader.text("tensor name")
        ndim = reader.u32()
        dims = tuple(reader.u32() for _ in range(ndim))
        size = int(np.prod(dims)) if dims else 1
        raw = reader.take(8 * size)
        if name not in named:
            raise CheckpointError(f"checkpoint tensor {name!r} has no slot in this config")
        target = named[name]
        if target.shape != dims:
            raise CheckpointError(f"tensor {name!r} shape {dims} != expected {target.shape}")
        values = np.frombuffer(raw, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.isfinite(values).all():
            raise CheckpointError(f"checkpoint tensor {name!r} holds non-finite values")
        target.data = values
        seen.add(name)
    trailing = len(blob) - reader.pos
    if trailing:
        raise CheckpointError(f"checkpoint has {trailing} unexpected bytes after its last tensor")
    missing = set(named) - seen
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {sorted(missing)}")
    params.pretrained_mask = np.array([ch == "1" for ch in mask_text], dtype=bool)
    return Loaded(params=params, config=config, vocab=vocab, meta=meta)


def save_checkpoint(path: str | Path, params: ModelParams, config: RunConfig,
                    vocab: Vocabulary, meta: dict) -> None:
    """Write atomically: the target only ever holds a complete checkpoint."""
    path = Path(path)
    blob = serialize(params, config, vocab, meta)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Loaded:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    return deserialize(path.read_bytes())
