import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from qemine.errors import ModelCorruptionError, ModelFormatError
from qemine.estimators import MultitaskScorer
from qemine.features import FeaturizerConfig
from qemine.model import (
    EncoderModel,
    FeatureStackModel,
    HeadSet,
    load_feature_model,
    load_model,
    model_to_bytes,
    save_feature_model,
    save_model,
)

from oracles import cosine_similarity, encode, featurize, forward_heads


def _random_model(seed=0, n_features=256, hidden=8, dim=6, orders=(1, 2, 3)):
    rng = np.random.default_rng(seed)
    cfg = FeaturizerConfig(orders, n_features, 0)
    return EncoderModel(
        cfg,
        rng.normal(0, 0.5, (hidden, n_features)),
        rng.normal(0, 0.1, hidden),
        rng.normal(0, 0.3, (dim, hidden)),
        rng.normal(0, 0.1, dim),
    )


def _random_heads(dim=6, seed=1):
    rng = np.random.default_rng(seed)
    return HeadSet(
        rng.normal(0, 0.3, 2 * dim + 1),
        rng.normal(0, 0.3, 1),
        rng.normal(0, 0.3, 2 * dim + 1),
        rng.normal(0, 0.3, 1),
        rng.normal(0, 0.3, (3, 4 * dim + 1)),
    )


class TestEncode:
    def test_matches_dense_matrix_arithmetic(self):
        # Straight-line float64 recomputation from the stored weights.
        model = _random_model(seed=5)
        fv = featurize("a small example sentence", model.featurizer)
        expected = model.w2.astype(np.float64) @ np.tanh(
            model.w1.astype(np.float64) @ fv.to_dense() + model.b1.astype(np.float64)
        ) + model.b2.astype(np.float64)
        assert np.allclose(encode(model, fv), expected, atol=1e-12)

    def test_zero_vector_input(self):
        model = _random_model(seed=2)
        fv = featurize("", model.featurizer)
        expected = model.w2.astype(np.float64) @ np.tanh(model.b1.astype(np.float64)) \
            + model.b2.astype(np.float64)
        assert np.allclose(encode(model, fv), expected, atol=1e-12)

    def test_deterministic(self):
        model = _random_model(seed=3)
        fv = featurize("same input twice", model.featurizer)
        assert np.array_equal(encode(model, fv), encode(model, fv))

    def test_dimension_mismatch(self):
        model = _random_model()
        fv = featurize("text", FeaturizerConfig((1,), 1024, 0))
        with pytest.raises(ValueError):
            encode(model, fv)

    def test_bounded_on_unit_ball(self):
        # tanh output is in [-1,1], so |e| <= |W2| @ 1 + |b2| row-wise.
        model = _random_model(seed=8)
        bound = np.abs(model.w2.astype(np.float64)).sum(axis=1) + np.abs(
            model.b2.astype(np.float64)
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            text = " ".join(
                "".join("abcdefgh"[i] for i in rng.integers(0, 8, rng.integers(1, 6)))
                for _ in range(rng.integers(1, 7))
            )
            e = encode(model, featurize(text, model.featurizer))
            assert np.all(np.isfinite(e))
            assert np.all(np.abs(e) <= bound + 1e-9)


class TestCosine:
    def test_known_values(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([1, 2], [2, 4]) == pytest.approx(1.0)

    def test_zero_vector_convention(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha, beta = rng.uniform(0.1, 10, 2)
            c = cosine_similarity(u, v)
            assert -1.0 <= c <= 1.0 + 1e-15
            assert cosine_similarity(v, u) == pytest.approx(c, abs=1e-12)
            assert cosine_similarity(alpha * u, beta * v) == pytest.approx(c, abs=1e-10)
            assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-12)


class TestForwardHeads:
    def test_zero_head_gives_half(self):
        model = _random_model()
        heads = HeadSet.zeros(model.embedding_dim)
        assert forward_heads(model, heads, ("one text", "another"), "qe") == 0.5
        assert forward_heads(model, heads, ("one text", "another"), "sts") == 0.5

    def test_nli_probabilities_sum_to_one(self):
        model = _random_model(seed=6)
        heads = _random_heads(model.embedding_dim)
        rng = np.random.default_rng(1)
        for _ in range(25):
            pair = (
                " ".join("abc"[i] for i in rng.integers(0, 3, 4)),
                " ".join("def"[i] for i in rng.integers(0, 3, 4)),
            )
            probs = forward_heads(model, heads, pair, "nli")
            assert probs.shape == (3,)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_regression_outputs_strictly_inside_unit_interval(self):
        model = _random_model(seed=7)
        heads = _random_heads(model.embedding_dim, seed=9)
        for task in ("qe", "sts"):
            p = forward_heads(model, heads, ("short sample", "other sample"), task)
            assert 0.0 < p < 1.0

    def test_identical_sentences_structure(self):
        # |u-v| = 0 and cos = 1, so the score reduces to the logistic of
        # the product block plus the cosine weight.
        model = _random_model(seed=11)
        heads = _random_heads(model.embedding_dim, seed=12)
        u = encode(model, featurize("same sentence", model.featurizer))
        w = heads.qe_w.astype(np.float64)
        d = model.embedding_dim
        z = w[d : 2 * d] @ (u * u) + w[2 * d] + float(heads.qe_b[0])
        expected = 1.0 / (1.0 + np.exp(-z))
        got = forward_heads(model, heads, ("same sentence", "same sentence"), "qe")
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unknown_task(self):
        model = _random_model()
        with pytest.raises(ValueError):
            forward_heads(model, HeadSet.zeros(model.embedding_dim), ("a", "b"), "mt")


def _blake2b_64(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=8).digest()


def _sha256_64(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()[:8]


# The documented digest of each version.
_SIGNERS = {2: _blake2b_64, 3: _blake2b_64, 4: _sha256_64}


def _resign(body: bytes) -> bytes:
    """A container body followed by the valid checksum of the version it names."""
    return body + _SIGNERS[int.from_bytes(body[4:6], "little")](body)


# The documented layouts, built by concatenation: magic, version, header,
# <f4 arrays in C order and the digest.  W1 is stored as its (F, H)
# transpose from version 3 on, and as (H, F) in version 2.


def _layout(magic, version, header, arrays) -> bytes:
    return _resign(magic + struct.pack("<H", version) + header
                   + b"".join(np.asarray(a, dtype="<f4").tobytes() for a in arrays))


def _encoder_header(m) -> bytes:
    return struct.pack("<IIII3Iq", m.w1.shape[1], m.w1.shape[0], m.w2.shape[0], 3, 1, 2, 3, 0)


def _encoder_arrays(m, version) -> list:
    return [m.w1.T if version >= 3 else m.w1, m.b1, m.w2, m.b2]


def _documented_qem(model, heads, version) -> bytes:
    return _layout(b"QEM2", version, _encoder_header(model), _encoder_arrays(model, version)
                   + [heads.qe_w, heads.qe_b, heads.sts_w, heads.sts_b, heads.nli_w])


def _documented_qef(stack, version) -> bytes:
    header = struct.pack("<I", stack.hidden_w.shape[0])
    header += b"".join(_encoder_header(b) for b in stack.backbones)
    arrays = [a for b in stack.backbones for a in _encoder_arrays(b, version)]
    return _layout(b"QEF2", version, header,
                   arrays + [stack.hidden_w, stack.hidden_b, stack.out_w, stack.out_b])


def _feature_model_bytes(path) -> bytes:
    rng = np.random.default_rng(30)
    backbones = [_random_model(seed=31), _random_model(seed=32, dim=4), _random_model(seed=33)]
    width = sum(2 * b.embedding_dim + 1 for b in backbones)
    model = FeatureStackModel(*backbones, rng.normal(0, 0.3, (5, width)),
                              rng.normal(0, 0.3, 5), rng.normal(0, 0.3, 5), rng.normal(0, 0.3, 1))
    save_feature_model(model, path)
    return path.read_bytes()


@pytest.fixture(params=["qem", "qef"])
def model_file(request, tmp_path):
    """(valid file bytes, loader, path for a damaged copy) of each model format."""
    if request.param == "qem":
        model = _random_model()
        blob = model_to_bytes(model, HeadSet.zeros(model.embedding_dim))
        return blob, load_model, tmp_path / "bad.qem"
    return _feature_model_bytes(tmp_path / "good.qef"), load_feature_model, tmp_path / "bad.qef"


class TestModelFile:
    def test_save_load_roundtrip_bitwise(self, tmp_path):
        model = _random_model(seed=20)
        heads = _random_heads(model.embedding_dim, seed=21)
        path = tmp_path / "model.qem"
        save_model(model, heads, path)
        loaded_model, loaded_heads = load_model(path)
        for a, b in (
            (model.w1, loaded_model.w1),
            (model.b1, loaded_model.b1),
            (model.w2, loaded_model.w2),
            (model.b2, loaded_model.b2),
            (heads.qe_w, loaded_heads.qe_w),
            (heads.qe_b, loaded_heads.qe_b),
            (heads.sts_w, loaded_heads.sts_w),
            (heads.sts_b, loaded_heads.sts_b),
            (heads.nli_w, loaded_heads.nli_w),
        ):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)
        assert loaded_model.featurizer == model.featurizer

    def test_weights_are_float32_and_w1_feature_major(self):
        rng = np.random.default_rng(38)
        w1 = np.asfortranarray(rng.normal(size=(8, 256)), dtype=np.float32)
        arrays = [w1, *(rng.normal(size=s).astype(np.float32) for s in [8, (6, 8), 6])]
        model = EncoderModel(FeaturizerConfig((1, 2, 3), 256, 0), *arrays)
        assert all(a is b for a, b in zip(model.params().values(), arrays))
        assert model.params() == {"W1": model.w1, "b1": model.b1, "W2": model.w2, "b2": model.b2}
        converted = _random_model(seed=38)  # float64 C-ordered input
        assert converted.w1.dtype == np.float32 and converted.w1.T.flags.c_contiguous

    def test_save_load_save_byte_identical(self, tmp_path):
        model = _random_model(seed=22)
        heads = _random_heads(model.embedding_dim, seed=23)
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        save_model(model, heads, p1)
        save_model(*load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_files_match_the_documented_layout(self, tmp_path):
        model = _random_model(seed=24)
        heads = _random_heads(model.embedding_dim, seed=25)
        save_model(model, heads, tmp_path / "m.qem")
        written = (tmp_path / "m.qem").read_bytes()
        assert written == model_to_bytes(model, heads) == _documented_qem(model, heads, version=4)
        assert written[-8:] == hashlib.sha256(written[:-8]).digest()[:8]

        written = _feature_model_bytes(tmp_path / "s.qef")
        assert written == _documented_qef(load_feature_model(tmp_path / "s.qef"), version=4)
        assert written[-8:] == hashlib.sha256(written[:-8]).digest()[:8]

    def test_version_two_files_load_to_identical_weights(self, tmp_path):
        model = _random_model(seed=34)
        heads = _random_heads(model.embedding_dim, seed=35)
        (tmp_path / "v2.qem").write_bytes(_documented_qem(model, heads, version=2))
        loaded, loaded_heads = load_model(tmp_path / "v2.qem")
        assert loaded.w1.T.flags.c_contiguous
        assert model_to_bytes(loaded, loaded_heads) == model_to_bytes(model, heads)

        _feature_model_bytes(tmp_path / "s.qef")
        stack = load_feature_model(tmp_path / "s.qef")
        (tmp_path / "v2.qef").write_bytes(_documented_qef(stack, version=2))
        save_feature_model(load_feature_model(tmp_path / "v2.qef"), tmp_path / "again.qef")
        assert (tmp_path / "again.qef").read_bytes() == (tmp_path / "s.qef").read_bytes()

    def test_version_two_file_predicts_as_version_three(self, tmp_path):
        model = _random_model(seed=36)
        heads = _random_heads(model.embedding_dim, seed=37)
        (tmp_path / "v3.qem").write_bytes(_documented_qem(model, heads, version=3))
        (tmp_path / "v2.qem").write_bytes(_documented_qem(model, heads, version=2))
        pairs = [("a small example", "another one"), ("", "text"), ("same", "same")]
        expected = MultitaskScorer.load(tmp_path / "v3.qem").predict(pairs)
        assert np.array_equal(MultitaskScorer.load(tmp_path / "v2.qem").predict(pairs), expected)

    def test_version_three_files_load_to_identical_weights(self, tmp_path):
        model = _random_model(seed=40)
        heads = _random_heads(model.embedding_dim, seed=41)
        (tmp_path / "v3.qem").write_bytes(_documented_qem(model, heads, version=3))
        loaded, loaded_heads = load_model(tmp_path / "v3.qem")
        assert loaded.w1.T.flags.c_contiguous
        assert model_to_bytes(loaded, loaded_heads) == model_to_bytes(model, heads)
        save_model(loaded, loaded_heads, tmp_path / "v4.qem")
        assert (tmp_path / "v4.qem").read_bytes() == _documented_qem(model, heads, version=4)

        _feature_model_bytes(tmp_path / "s.qef")
        stack = load_feature_model(tmp_path / "s.qef")
        (tmp_path / "v3.qef").write_bytes(_documented_qef(stack, version=3))
        save_feature_model(load_feature_model(tmp_path / "v3.qef"), tmp_path / "again.qef")
        assert (tmp_path / "again.qef").read_bytes() == (tmp_path / "s.qef").read_bytes()

    def test_version_three_file_predicts_as_its_version_four_resave(self, tmp_path):
        model = _random_model(seed=42)
        heads = _random_heads(model.embedding_dim, seed=43)
        (tmp_path / "v3.qem").write_bytes(_documented_qem(model, heads, version=3))
        save_model(*load_model(tmp_path / "v3.qem"), tmp_path / "v4.qem")
        pairs = [("a small example", "another one"), ("", "text"), ("same", "same")]
        expected = MultitaskScorer.load(tmp_path / "v4.qem").predict(pairs)
        assert np.array_equal(MultitaskScorer.load(tmp_path / "v3.qem").predict(pairs), expected)

    @pytest.mark.parametrize(("version", "signer"), [(4, _blake2b_64), (3, _sha256_64)],
                             ids=["v4-blake2b", "v3-sha256"])
    def test_trailer_of_another_version_is_a_checksum_mismatch(self, model_file, version,
                                                               signer):
        blob, load, path = model_file
        body = blob[:4] + struct.pack("<H", version) + blob[6:-8]
        path.write_bytes(body + signer(body))
        with pytest.raises(ModelCorruptionError, match="checksum mismatch"):
            load(path)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_load_allocates_one_copy_of_the_weights(self, tmp_path, version):
        """Load holds the file's bytes, the arrays it returns (one copy of
        W1, made straight from the file buffer in every version) and the
        one-byte-per-weight mask of the finiteness check.  A second copy of
        W1 would add W1.nbytes."""
        model = _random_model(seed=28, n_features=65536)  # W1 is 2 MiB of float32
        heads = _random_heads(model.embedding_dim, seed=29)
        path = tmp_path / "m.qem"
        path.write_bytes(_documented_qem(model, heads, version))
        load_model(path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size + model.w1.nbytes * 3 // 2

    def test_save_allocates_no_copy_of_the_weights(self, tmp_path):
        model = _random_model(seed=26, n_features=65536)  # W1 is 2 MiB of float32
        heads = _random_heads(model.embedding_dim, seed=27)
        save_model(model, heads, tmp_path / "first.qem")
        tracemalloc.start()
        try:
            save_model(model, heads, tmp_path / "m.qem")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.w1.nbytes // 16

    def test_wrong_magic(self, model_file):
        _, load, path = model_file
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ModelFormatError):
            load(path)

    def test_wrong_version(self, model_file):
        blob, load, path = model_file
        blob = bytearray(blob)
        blob[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError):
            load(path)

    def test_version_one_file_rejected(self, model_file):
        blob, load, path = model_file
        path.write_bytes(blob[:3] + b"1" + (1).to_bytes(2, "little") + blob[6:])
        with pytest.raises(ModelFormatError, match="version-1"):
            load(path)

    def test_truncated_payload(self, model_file):
        blob, load, path = model_file
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelCorruptionError):
            load(path)

    def test_corrupted_checksum(self, model_file):
        blob, load, path = model_file
        blob = bytearray(blob)
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelCorruptionError):
            load(path)

    @pytest.mark.parametrize("resign", [False, True], ids=["raw", "resigned"])
    def test_trailing_bytes(self, model_file, resign):
        blob, load, path = model_file
        padded = blob + b"\x00" * 4
        path.write_bytes(_resign(padded[:-8]) if resign else padded)
        # Re-signed, the file passes its checksum and reaches the end-of-body check.
        with pytest.raises(ModelCorruptionError,
                           match="trailing bytes" if resign else "checksum mismatch"):
            load(path)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_resigned_header_off_by_one(self, model_file, delta):
        # The first header field (F for QEM, the head's hidden width for
        # QEF) disagrees with the arrays that follow, under a valid checksum.
        blob, load, path = model_file
        blob = bytearray(blob)
        field = int.from_bytes(blob[6:10], "little") + delta
        blob[6:10] = field.to_bytes(4, "little")
        path.write_bytes(_resign(bytes(blob[:-8])))
        # QEM's F must stay a power of two; QEF's width sizes the head arrays.
        header_errors = ("n_features must be a power of two" if path.suffix == ".qem"
                         else "header promises more data" if delta > 0 else "trailing bytes")
        with pytest.raises(ModelCorruptionError, match=header_errors):
            load(path)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_resigned_hidden_width_off_by_one(self, tmp_path, delta):
        # QEM's second header field, H, sizes W1, b1 and W2 but has no rule
        # of its own, so the array bounds checks must catch it.
        model = _random_model()
        blob = bytearray(model_to_bytes(model, HeadSet.zeros(model.embedding_dim)))
        path = tmp_path / "bad.qem"
        hidden = int.from_bytes(blob[10:14], "little") + delta
        blob[10:14] = hidden.to_bytes(4, "little")
        path.write_bytes(_resign(bytes(blob[:-8])))
        with pytest.raises(ModelCorruptionError,
                           match="header promises more data" if delta > 0 else "trailing bytes"):
            load_model(path)


class TestFeatureStackModel:
    def test_head_shapes_checked_against_backbones(self):
        backbones = [_random_model(seed=34), _random_model(seed=35, dim=4), _random_model(seed=36)]
        width = sum(2 * b.embedding_dim + 1 for b in backbones)
        FeatureStackModel(*backbones, np.zeros((3, width)), np.zeros(3), np.zeros(3), np.zeros(1))
        for head in (
            (np.zeros((3, width - 1)), np.zeros(3), np.zeros(3), np.zeros(1)),
            (np.zeros((3, width)), np.zeros(4), np.zeros(3), np.zeros(1)),
            (np.zeros((3, width)), np.zeros(3), np.zeros(2), np.zeros(1)),
            (np.zeros((3, width)), np.zeros(3), np.zeros(3), np.zeros(2)),
        ):
            with pytest.raises(ValueError):
                FeatureStackModel(*backbones, *head)
