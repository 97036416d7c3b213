"""The embedding network, its task heads, and the model file formats.

The network maps a hashed n-gram vector x to an embedding
``e = W2 @ tanh(W1 @ x + b1) + b2``.  Three heads sit on top of pair
features built from the two sentence embeddings u and v:

    regression (QE, STS): logistic(w . [|u-v|, u*v, cos(u,v)] + b)
    inference (NLI):      softmax(N @ [u, v, |u-v|, u*v, 1])

Weights are float32, as the files hold them, so a save/load round trip
is bitwise.  Training updates these same arrays in place (``params``
returns them under ``backprop``'s block names), and inference reads
them.  ``W1`` has shape (H, F) and is feature-major: it is the
transpose of a C-contiguous (F, H) array, so one feature's H weights
are contiguous.

Both model files are one little-endian container: magic, version u16,
header fields, row-major float32 arrays, and an 8-byte digest of all
preceding bytes.  An encoder header is dims (F, H, d) as u32 and
the featurizer block (u32 order count, u32 orders, i64 hash seed); its
arrays are W1 as its (F, H) transpose, b1, W2, b2.  ``QEM2``: one
encoder header; the encoder and QE/STS/NLI head arrays.  ``QEF2``: the
head's hidden width (u32) and the STS, NLI, QE encoder headers; the
three encoders' arrays, then hidden_w, hidden_b, out_w, out_b.  Files
are written at version 4, whose digest is the first 8 bytes of SHA-256.
Version 3 differs only in its digest, BLAKE2b with an 8-byte output;
version 2 also stores W1 as (H, F) and loads through one transposing
copy.  Both still load.  Version-1 files are rejected.

Loading reads the whole file in one pass into one buffer that starts 2
bytes past a 4-byte boundary.  Every header is 2 mod 4 bytes long (QEM
30 + 4·orders, QEF 82 + 12·orders), so every array starts on a 4-byte
boundary and the model's arrays are writable views of that buffer; a
version-2 file keeps the buffer alive next to its transposed copy of W1.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ModelCorruptionError, ModelFormatError
from .features import FeaturizerConfig
from .validation import all_finite

__all__ = [
    "EncoderModel",
    "HeadSet",
    "EncoderConfig",
    "FeatureStackModel",
    "save_model",
    "load_model",
    "model_to_bytes",
    "model_from_bytes",
    "save_feature_model",
    "load_feature_model",
    "TASKS",
]

TASKS = ("qe", "sts", "nli")

MAGIC = b"QEM2"
FEATURE_MAGIC = b"QEF2"
VERSION = 4
_DIGEST_SIZE = 8


def _blake2b_64(data=b""):
    return hashlib.blake2b(data, digest_size=_DIGEST_SIZE)


# The digest rule of each readable version: a hash over every byte before
# the trailer, whose first _DIGEST_SIZE bytes are the trailer.  SHA-256
# replaced BLAKE2b in version 4 because OpenSSL runs it on the CPU's SHA
# instructions, at over twice BLAKE2b's speed where they exist.
_HASHES = {2: _blake2b_64, 3: _blake2b_64, 4: hashlib.sha256}


def _f32(array) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(array), dtype=np.float32)


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the embedding network."""

    featurizer: FeaturizerConfig = FeaturizerConfig()
    hidden_units: int = 256
    embedding_dim: int = 128

    def __post_init__(self):
        if self.hidden_units < 1 or self.embedding_dim < 1:
            raise ValueError("hidden_units and embedding_dim must be positive")


@dataclass(frozen=True)
class EncoderModel:
    """Featurizer config plus the four backbone weight arrays (float32,
    ``w1`` feature-major; arrays already in that form are not copied)."""

    featurizer: FeaturizerConfig
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w1", np.asfortranarray(self.w1, dtype=np.float32))
        for name in ("b1", "w2", "b2"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        hidden, n_features = self.w1.shape
        dim = self.w2.shape[0]
        if n_features != self.featurizer.n_features:
            raise ValueError("W1 width disagrees with the featurizer")
        if self.b1.shape != (hidden,) or self.w2.shape != (dim, hidden) or self.b2.shape != (dim,):
            raise ValueError("backbone weight shapes are inconsistent")
        for name in ("w1", "b1", "w2", "b2"):
            if not all_finite(getattr(self, name)):
                raise ValueError(f"non-finite values in {name}")

    @property
    def hidden_units(self) -> int:
        return self.w1.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.w2.shape[0]

    def params(self) -> dict:
        """The model's own arrays (not copies) under the block names
        'W1', 'b1', 'W2' and 'b2'."""
        return {"W1": self.w1, "b1": self.b1, "W2": self.w2, "b2": self.b2}

    def _encoders(self) -> list:
        """The one ``(params, featurizer)`` encoder that ``embedding.embed_sides`` embeds with."""
        return [(self.params(), self.featurizer)]


@dataclass(frozen=True)
class HeadSet:
    """Linear task heads: QE and STS weight/bias pairs plus the NLI matrix.

    The NLI matrix is 3 x (4d+1); its last column is the bias.
    """

    qe_w: np.ndarray
    qe_b: np.ndarray
    sts_w: np.ndarray
    sts_b: np.ndarray
    nli_w: np.ndarray

    def __post_init__(self):
        for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        dim = (self.qe_w.shape[0] - 1) // 2
        if self.qe_w.shape != (2 * dim + 1,) or self.sts_w.shape != (2 * dim + 1,):
            raise ValueError("regression head shapes are inconsistent")
        if self.qe_b.shape != (1,) or self.sts_b.shape != (1,):
            raise ValueError("head biases must have shape (1,)")
        if self.nli_w.shape != (3, 4 * dim + 1):
            raise ValueError(f"NLI head must be 3 x (4d+1), got {self.nli_w.shape}")

    def params(self) -> dict:
        """The head arrays themselves (not copies), keyed by field name."""
        return {name: getattr(self, name) for name in ("qe_w", "qe_b", "sts_w", "sts_b", "nli_w")}

    @classmethod
    def zeros(cls, embedding_dim: int) -> "HeadSet":
        reg = np.zeros(2 * embedding_dim + 1)
        return cls(reg, np.zeros(1), reg.copy(), np.zeros(1), np.zeros((3, 4 * embedding_dim + 1)))


@dataclass(frozen=True)
class FeatureStackModel:
    """Three frozen backbones plus a two-layer quality head over their pair features.

    The head's input is the concatenated regression pair features of the
    STS, NLI and QE backbones, of width sum(2*d_i + 1).
    """

    sts_backbone: EncoderModel
    nli_backbone: EncoderModel
    qe_backbone: EncoderModel
    hidden_w: np.ndarray
    hidden_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def __post_init__(self):
        for name in ("hidden_w", "hidden_b", "out_w", "out_b"):
            object.__setattr__(self, name, _f32(getattr(self, name)))
        width = sum(2 * backbone.embedding_dim + 1 for backbone in self.backbones)
        shapes = (self.hidden_w.shape, self.hidden_b.shape, self.out_w.shape, self.out_b.shape)
        hidden = self.hidden_w.shape[0]
        if shapes != ((hidden, width), (hidden,), (hidden,), (1,)):
            raise ValueError(f"feature head shapes {shapes} do not fit {width} pair features")

    @property
    def backbones(self) -> tuple[EncoderModel, EncoderModel, EncoderModel]:
        return (self.sts_backbone, self.nli_backbone, self.qe_backbone)


def _digest(version: int, data) -> bytes:
    return _HASHES[version](data).digest()[:_DIGEST_SIZE]


def _frame(magic: bytes, header: bytes, arrays) -> list:
    """The container as a list of buffers: magic, version, header, a byte
    view of each array's <f4 data (no copy for a C-contiguous float32
    array, which every array written is), digest.

    Saving writes these views to the file one by one and so allocates no
    copy of the weights.  A fresh multi-megabyte buffer costs a page
    fault per 4 KiB whenever the allocator maps it anew, and whether it
    does depends on what the process allocated before, so building the
    file in memory made save times jump between runs.
    """
    chunks = [magic, struct.pack("<H", VERSION), header,
              *(memoryview(np.ascontiguousarray(a, dtype="<f4")).cast("B") for a in arrays)]
    digest = _HASHES[VERSION]()
    for chunk in chunks:
        digest.update(chunk)
    return chunks + [digest.digest()[:_DIGEST_SIZE]]


def _encoder_header(model: EncoderModel) -> bytes:
    cfg = model.featurizer
    n_orders = len(cfg.ngram_orders)
    return struct.pack(f"<IIII{n_orders}Iq", cfg.n_features, model.hidden_units,
                       model.embedding_dim, n_orders, *cfg.ngram_orders, cfg.hash_seed)


def _encoder_arrays(model: EncoderModel) -> list:
    return [model.w1.T, model.b1, model.w2, model.b2]


def _aligned_empty(size: int) -> np.ndarray:
    """An uninitialized uint8 buffer of ``size`` bytes that starts 2 bytes
    past a 4-byte boundary, so that a container read into it has every
    array on a 4-byte boundary."""
    raw = np.empty(size + 3, np.uint8)
    lead = (2 - raw.ctypes.data) % 4
    return raw[lead : lead + size]


def _read(path) -> np.ndarray:
    """The whole file at ``path``, read in one pass into one aligned buffer.

    A pipe or FIFO has no size to read into, so it is read to its end and
    then copied once into such a buffer."""
    with open(path, "rb", buffering=0) as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode):
            data = handle.readall()
            buffer = _aligned_empty(len(data))
            buffer[:] = np.frombuffer(data, np.uint8)
            return buffer
        size = info.st_size
        # one spare byte, so that a file that grew since fstat fills it
        buffer = _aligned_empty(size + 1)
        view, filled = memoryview(buffer), 0
        while filled < len(view):
            count = handle.readinto(view[filled:])
            if not count:
                break
            filled += count
    if filled != size:
        raise ModelCorruptionError(f"{path}: file changed size while being read")
    return buffer[:size]


class _FrameReader:
    """Checks a container's magic, version and digest, then serves
    bounds-checked reads of its body."""

    def __init__(self, buffer, magic: bytes, path):
        self.path = path
        blob = memoryview(buffer).cast("B")
        if len(blob) < len(magic) + 2 + _DIGEST_SIZE:
            raise ModelCorruptionError(f"{path}: file truncated at {len(blob)} bytes")
        found = bytes(blob[:4])
        if found == magic[:3] + b"1":
            raise ModelFormatError(f"{path}: version-1 model file ({found!r}); retrain the model")
        if found != magic:
            raise ModelFormatError(f"{path}: bad magic bytes {found!r}")
        (self.version,) = struct.unpack_from("<H", blob, 4)
        if self.version not in _HASHES:
            raise ModelFormatError(f"{path}: unsupported version {self.version}")
        self.body = blob[:-_DIGEST_SIZE]
        if _digest(self.version, self.body) != blob[-_DIGEST_SIZE:]:
            raise ModelCorruptionError(f"{path}: checksum mismatch")
        self.offset = 6

    def take(self, size: int) -> memoryview:
        end = self.offset + size
        if end > len(self.body):
            raise ModelCorruptionError(f"{self.path}: header promises more data than the file has")
        chunk = self.body[self.offset : end]
        self.offset = end
        return chunk

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def view(self, shape) -> np.ndarray:
        return np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4").reshape(shape)

    def arrays(self, shapes) -> list[np.ndarray]:
        # Views, which keep the whole buffer alive; the model owns no other copy.
        return [self.view(shape) for shape in shapes]

    def finish(self) -> None:
        if self.offset != len(self.body):
            raise ModelCorruptionError(f"{self.path}: trailing bytes after the last array")

    def build(self, cls, *args):
        """Construct a model object; a field it rejects means a corrupt file."""
        try:
            return cls(*args)
        except ValueError as exc:
            raise ModelCorruptionError(f"{self.path}: {exc}") from exc

    def encoder_header(self) -> tuple[FeaturizerConfig, int, int]:
        n_features, hidden, dim, n_orders = self.unpack("<IIII")
        orders = self.unpack(f"<{n_orders}I")
        (hash_seed,) = self.unpack("<q")
        return self.build(FeaturizerConfig, orders, n_features, hash_seed), hidden, dim

    def encoder(self, header) -> EncoderModel:
        featurizer, hidden, dim = header
        n_features = featurizer.n_features
        # W1 is stored as (F, H), whose transpose is the feature-major view,
        # or as (H, F) in version 2, which takes one transposing copy
        w1 = (self.view((n_features, hidden)).T if self.version >= 3
              else np.asfortranarray(self.view((hidden, n_features))))
        rest = self.arrays([(hidden,), (dim, hidden), (dim,)])
        return self.build(EncoderModel, featurizer, w1, *rest)


def model_to_bytes(model: EncoderModel, heads: HeadSet | None = None) -> bytes:
    """Serialize to the QEM2 layout; missing heads are stored as zeros."""
    if heads is None:
        heads = HeadSet.zeros(model.embedding_dim)
    return b"".join(_model_frame(model, heads))


def _model_frame(model: EncoderModel, heads: HeadSet) -> list:
    head_arrays = [heads.qe_w, heads.qe_b, heads.sts_w, heads.sts_b, heads.nli_w]
    return _frame(MAGIC, _encoder_header(model), _encoder_arrays(model) + head_arrays)


def save_model(model: EncoderModel, heads: HeadSet, path) -> None:
    """Write the QEM2 file described in the module docstring."""
    with open(path, "wb") as handle:
        handle.writelines(_model_frame(model, heads))


def model_from_bytes(blob, path="<bytes>") -> tuple[EncoderModel, HeadSet]:
    """Parse a serialized model; inverse of model_to_bytes.

    The arrays returned are writable, aligned views of one buffer.  That
    buffer is ``blob`` itself when it is a writable numpy array laid out as
    ``_aligned_empty`` lays it out, 2 bytes past a 4-byte boundary
    (``load_model`` passes its read buffer so), and the model then shares
    its memory; any other ``blob`` is copied once into such a buffer.
    """
    if not (isinstance(blob, np.ndarray) and blob.flags.writeable
            and blob.ctypes.data % 4 == 2):
        data = memoryview(blob).cast("B")
        blob = _aligned_empty(len(data))
        blob[:] = data
    reader = _FrameReader(blob, MAGIC, path)
    model = reader.encoder(reader.encoder_header())
    dim = model.embedding_dim
    heads = reader.arrays([(2 * dim + 1,), (1,), (2 * dim + 1,), (1,), (3, 4 * dim + 1)])
    reader.finish()
    return model, reader.build(HeadSet, *heads)


def load_model(path) -> tuple[EncoderModel, HeadSet]:
    """Read a model file back; inverse of save_model."""
    return model_from_bytes(_read(path), path)


def save_feature_model(model: FeatureStackModel, path) -> None:
    """Write the QEF2 file described in the module docstring."""
    header = struct.pack("<I", model.hidden_w.shape[0])
    header += b"".join(_encoder_header(backbone) for backbone in model.backbones)
    arrays = [array for backbone in model.backbones for array in _encoder_arrays(backbone)]
    arrays += [model.hidden_w, model.hidden_b, model.out_w, model.out_b]
    with open(path, "wb") as handle:
        handle.writelines(_frame(FEATURE_MAGIC, header, arrays))


def load_feature_model(path) -> FeatureStackModel:
    """Read a QEF2 file back; inverse of save_feature_model."""
    reader = _FrameReader(_read(path), FEATURE_MAGIC, path)
    (hidden,) = reader.unpack("<I")
    headers = [reader.encoder_header() for _ in range(3)]
    backbones = [reader.encoder(header) for header in headers]
    width = sum(2 * dim + 1 for _, _, dim in headers)
    head = reader.arrays([(hidden, width), (hidden,), (hidden,), (1,)])
    reader.finish()
    return reader.build(FeatureStackModel, *backbones, *head)
