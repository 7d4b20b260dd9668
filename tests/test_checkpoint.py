"""Tests for the binary checkpoint container."""

from __future__ import annotations

import functools
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcrf.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    _Reader,
    build_meta,
    deserialize,
    load_checkpoint,
    save_checkpoint,
    serialize,
)
from aspectcrf.config import RunConfig
from aspectcrf.data import AspectInstance, Vocabulary
from aspectcrf.model import init_params, predict_instance


def with_block(blob: bytes, which: int, payload: bytes) -> bytes:
    """Replace the config (0), meta (1) or vocabulary (2) block of a blob."""
    pos = 8  # magic + version
    for _ in range(which):
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
    end = pos + 4 + struct.unpack_from("<I", blob, pos)[0]
    return blob[:pos] + struct.pack("<I", len(payload)) + payload + blob[end:]


def make_fixture(seed=0, **overrides):
    cfg = RunConfig(hidden_size=32, batch_size=64, dropout=0.3, d_as=50,
                    crf_heads=2, embedding_dim=8, **overrides)
    vocab = Vocabulary()
    for tok in ["the", "pizza", "was", "great", "."]:
        vocab.add(tok)
    params = init_params(cfg, len(vocab), np.random.default_rng(seed))
    params.pretrained_mask = np.array([False, False, True, False, True, False, False])
    meta = build_meta(12, 0.75, 0.5, 3, vocab, params.pretrained_mask)
    return params, cfg, vocab, meta


class TestRoundTrip:
    def test_all_tensors_bit_identical(self):
        params, cfg, vocab, meta = make_fixture()
        loaded = deserialize(serialize(params, cfg, vocab, meta))
        original = params.named_tensors()
        restored = loaded.params.named_tensors()
        assert set(original) == set(restored)
        for name, t in original.items():
            npt.assert_array_equal(restored[name].data, t.data)

    def test_config_json_verbatim(self):
        params, cfg, vocab, meta = make_fixture(seed=2, gamma=3)
        loaded = deserialize(serialize(params, cfg, vocab, meta))
        assert loaded.config == cfg
        assert loaded.config.to_canonical_json() == cfg.to_canonical_json()

    def test_meta_and_vocab_survive(self):
        params, cfg, vocab, meta = make_fixture()
        loaded = deserialize(serialize(params, cfg, vocab, meta))
        assert loaded.vocab.tokens == vocab.tokens
        assert loaded.max_len == 12
        assert loaded.meta["dev_metrics"] == {"accuracy": 0.75, "macro_f1": 0.5}
        assert loaded.meta["label_order"] == ["positive", "neutral", "negative"]
        npt.assert_array_equal(loaded.params.pretrained_mask, params.pretrained_mask)

    def test_file_round_trip_atomic_write(self, tmp_path):
        params, cfg, vocab, meta = make_fixture()
        path = tmp_path / "model.acrf"
        save_checkpoint(path, params, cfg, vocab, meta)
        assert path.exists()
        assert not path.with_name("model.acrf.tmp").exists()
        loaded = load_checkpoint(path)
        npt.assert_array_equal(loaded.params.embedding.data, params.embedding.data)

    def test_serialized_bytes_deterministic(self):
        a = serialize(*make_fixture())
        b = serialize(*make_fixture())
        assert a == b


# make_fixture()'s config block as written while RunConfig still had the
# four fields since retired, each at the one value still implemented
PARENT_CONFIG_JSON = (
    '{"batch_size":64,"corpus_format":"","crf_heads":2,"d_as":50,"dropout":0.3,'
    '"embedding_dim":8,"embeddings_path":"","embeddings_trainable":true,"gamma":2,'
    '"gru_layers":1,"hidden_size":32,"lr":0.008,"max_epochs":100,'
    '"no_aspect_indicator":false,"no_decay":false,"no_structured_attention":false,'
    '"patience":10,"seed":0,"selection_metric":"accuracy","share_transitions":false,'
    '"test_path":"","train_path":""}'
)


class TestLegacyConfigBlock:
    def test_loads_and_predicts_bit_identically(self):
        params, cfg, vocab, meta = make_fixture()
        legacy = deserialize(with_block(serialize(params, cfg, vocab, meta), 0,
                                        PARENT_CONFIG_JSON.encode("utf-8")))
        assert legacy.config == cfg
        restored = legacy.params.named_tensors()
        for name, t in params.named_tensors().items():
            assert restored[name].data.tobytes() == t.data.tobytes()
        inst = AspectInstance((2, 3, 4, 5, 6), 1, 1, "positive", "the pizza was great .")
        want = predict_instance(params, inst, cfg, legacy.max_len)
        got = predict_instance(legacy.params, inst, legacy.config, legacy.max_len)
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert np.array(got.head_marginals).tobytes() == np.array(want.head_marginals).tobytes()

    @pytest.mark.parametrize(
        "field,kept,other",
        [("share_transitions", "false", "true"), ("embeddings_trainable", "true", "false")],
    )
    def test_other_variant_refused(self, field, kept, other):
        blob = serialize(*make_fixture())
        spliced = PARENT_CONFIG_JSON.replace(f'"{field}":{kept}', f'"{field}":{other}')
        with pytest.raises(CheckpointError, match=field):
            deserialize(with_block(blob, 0, spliced.encode("utf-8")))


class TestRejection:
    def test_bad_magic(self):
        blob = serialize(*make_fixture())
        with pytest.raises(CheckpointError, match="magic"):
            deserialize(b"XXXX" + blob[4:])

    def test_unsupported_version(self):
        blob = serialize(*make_fixture())
        bad = MAGIC + struct.pack("<I", FORMAT_VERSION + 1) + blob[8:]
        with pytest.raises(CheckpointError, match="version"):
            deserialize(bad)

    def test_truncated_blob(self):
        blob = serialize(*make_fixture())
        with pytest.raises(CheckpointError, match="truncated"):
            deserialize(blob[: len(blob) // 2])

    @pytest.mark.parametrize("extra", [b"\x00", b"garbage"], ids=["one-byte", "garbage"])
    def test_trailing_bytes(self, extra):
        blob = serialize(*make_fixture())
        with pytest.raises(CheckpointError, match=f"{len(extra)} unexpected bytes after its last tensor"):
            deserialize(blob + extra)

    def test_vocab_hash_mismatch_names_both_hashes(self):
        params, cfg, vocab, meta = make_fixture()
        meta = dict(meta, vocab_sha256="0" * 64)
        with pytest.raises(CheckpointError, match="0{8}.*hashes to"):
            deserialize(serialize(params, cfg, vocab, meta))

    @pytest.mark.parametrize("which,what", [(0, "config"), (1, "meta"), (2, "vocabulary")])
    def test_non_utf8_block(self, which, what):
        blob = with_block(serialize(*make_fixture()), which, b"\xff\xfe{}")
        with pytest.raises(CheckpointError, match=f"{what} is not valid UTF-8"):
            deserialize(blob)

    @pytest.mark.parametrize(
        "payload,message",
        [
            (b'{"max_sentence_len": 12', "header rejected: Expecting"),
            (b"[1, 2]", "must be a JSON object"),
            (b'{"max_sentence_len": "12"}', "max_sentence_len"),
            (b'{"max_sentence_len": 12, "pretrained_mask": 101}', "pretrained_mask"),
        ],
    )
    def test_malformed_meta(self, payload, message):
        blob = with_block(serialize(*make_fixture()), 1, payload)
        with pytest.raises(CheckpointError, match=message):
            deserialize(blob)

    def test_invalid_config_or_vocabulary(self):
        blob = serialize(*make_fixture())
        with pytest.raises(CheckpointError, match="header rejected: hidden_size"):
            deserialize(with_block(blob, 0, b'{"hidden_size": 64.0}'))
        with pytest.raises(CheckpointError, match="header rejected: vocabulary"):
            deserialize(with_block(blob, 2, b"the\npizza"))

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_non_finite_tensor_data(self, value):
        # the last eight bytes hold the last entry of the last tensor, cls.b
        blob = serialize(*make_fixture())
        with pytest.raises(CheckpointError, match="'cls.b' holds non-finite"):
            deserialize(blob[:-8] + struct.pack("<d", value))

    @pytest.mark.parametrize(
        "mask",
        ["000000", "00000000", "", "0010T00", "001 100", "00\u06610000"],
        ids=["short", "long", "empty", "letter", "space", "arabic-indic-one"],
    )
    def test_pretrained_mask_one_binary_digit_per_token(self, mask):
        params, cfg, vocab, meta = make_fixture()
        assert len(vocab) == 7
        with pytest.raises(CheckpointError, match="pretrained_mask must be 7 characters of 0 and 1"):
            deserialize(serialize(params, cfg, vocab, dict(meta, pretrained_mask=mask)))

    def test_tensor_listed_twice(self):
        blob = serialize(*make_fixture())
        # repeat the first tensor's record and count it
        reader = _Reader(blob)
        reader.take(8)  # magic + version
        for _ in range(3):  # config, meta, vocab blocks
            reader.block()
        count_at = reader.pos
        count = reader.u32()
        first_at = reader.pos
        name = reader.block().decode("utf-8")
        dims = tuple(reader.u32() for _ in range(reader.u32()))
        reader.take(8 * int(np.prod(dims)))
        record = blob[first_at : reader.pos]
        doctored = blob[:count_at] + struct.pack("<I", count + 1) + record + blob[first_at:]
        with pytest.raises(CheckpointError, match=f"lists tensor '{name}' twice"):
            deserialize(doctored)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.acrf")

    def test_missing_tensor_detected(self):
        params, cfg, vocab, meta = make_fixture()
        blob = serialize(params, cfg, vocab, meta)
        # walk the container to the tensor count, then drop the last tensor
        reader = _Reader(blob)
        reader.take(8)  # magic + version
        for _ in range(3):  # config, meta, vocab blocks
            reader.block()
        count_at = reader.pos
        count = reader.u32()
        last_tensor_at = reader.pos
        for _ in range(count - 1):
            reader.block()  # name
            ndim = reader.u32()
            dims = tuple(reader.u32() for _ in range(ndim))
            last_tensor_at = reader.pos + 8 * int(np.prod(dims))
            reader.take(8 * int(np.prod(dims)))
        doctored = (
            blob[:count_at] + struct.pack("<I", count - 1)
            + blob[count_at + 4 : last_tensor_at]
        )
        with pytest.raises(CheckpointError, match="missing"):
            deserialize(doctored)


@functools.cache
def fixture_blob() -> tuple[bytes, int, dict[str, tuple[int, int, tuple[int, ...]]]]:
    """The serialized fixture, where its tensor records start, and each
    tensor's data as (start, end, shape) byte offsets."""
    blob = serialize(*make_fixture())
    reader = _Reader(blob)
    reader.take(8)  # magic + version
    for _ in range(3):  # config, meta, vocab blocks
        reader.block()
    tensors_at = reader.pos
    regions = {}
    for _ in range(reader.u32()):
        name = reader.text("tensor name")
        dims = tuple(reader.u32() for _ in range(reader.u32()))
        regions[name] = (reader.pos, reader.pos + 8 * int(np.prod(dims)), dims)
        reader.take(8 * int(np.prod(dims)))
    return blob, tensors_at, regions


@st.composite
def byte_mutations(draw):
    """1-4 byte substitutions, half of them in the headers and tensor records
    before the first tensor's data, where most of the format's checks sit."""
    blob, tensors_at, regions = fixture_blob()
    header_end = min(lo for lo, _, _ in regions.values())
    positions = draw(st.lists(
        st.one_of(st.integers(0, header_end - 1), st.integers(tensors_at, len(blob) - 1)),
        min_size=1, max_size=4, unique=True,
    ))
    mutated = bytearray(blob)
    for pos in positions:
        mutated[pos] ^= draw(st.integers(1, 255))
    return bytes(mutated)


class TestUntrustedBlobs:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_truncated_blob_raises_checkpoint_error(self, data):
        blob, _, _ = fixture_blob()
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(CheckpointError):
            deserialize(blob[:cut])

    @settings(max_examples=300, deadline=None)
    @given(byte_mutations())
    def test_mutated_blob_raises_checkpoint_error_or_loads_exactly(self, mutated):
        # loading is either refused with a CheckpointError or reads every
        # tensor bit-for-bit from the bytes it holds: unchanged tensors equal
        # the fixture's, a tensor with a mutated (finite) entry holds that entry
        _, _, regions = fixture_blob()
        try:
            loaded = deserialize(mutated)
        except CheckpointError:
            return
        restored = loaded.params.named_tensors()
        assert set(restored) == set(regions)
        for name, (lo, hi, dims) in regions.items():
            stored = np.frombuffer(mutated[lo:hi], dtype="<f8").reshape(dims)
            assert restored[name].data.tobytes() == stored.astype(np.float64).tobytes()
            assert np.isfinite(restored[name].data).all()
