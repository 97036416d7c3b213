import numpy as np
import pytest

from qemine import EncoderConfig, FeaturizerConfig, QERecord
from qemine.model import EncoderModel, HeadSet

SMALL_FEATURIZER = FeaturizerConfig((1, 2, 3), 256, 0)
SMALL_ENCODER = EncoderConfig(SMALL_FEATURIZER, hidden_units=8, embedding_dim=6)


def encoder_model(params, featurizer) -> EncoderModel:
    """The float32 model of a parameter dict's 'W1', 'b1', 'W2' and 'b2'."""
    return EncoderModel(featurizer, params["W1"], params["b1"], params["W2"], params["b2"])


def head_set(params) -> HeadSet:
    """The float32 heads of a parameter dict."""
    return HeadSet(params["qe_w"], params["qe_b"], params["sts_w"], params["sts_b"], params["nli_w"])


def as_float64(params) -> dict:
    """float64 copies of a parameter dict's blocks (astype keeps W1 feature-major)."""
    return {name: a.astype(np.float64) for name, a in params.items()}


@pytest.fixture
def small_encoder_config():
    return SMALL_ENCODER


@pytest.fixture
def qe_file(tmp_path):
    path = tmp_path / "qe.tsv"
    path.write_text(
        "guten morgen\tgood morning\t0.9\n"
        "wie geht es\thow are you\t0.75\n"
        "das haus\tthe house\t0.5\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def tiny_qe_records():
    rng = np.random.default_rng(0)
    words_a = ["kafo", "limba", "melo", "daki", "bemu", "cela"]
    words_b = ["norz", "pyrt", "quvo", "rusk", "strix", "tovan"]
    records = []
    for k in range(12):
        idx = rng.integers(0, len(words_a), 4)
        source = " ".join(words_a[i] for i in idx)
        target = " ".join(words_b[i] for i in idx)
        records.append(QERecord(source, target, float(rng.integers(5, 11)) / 10.0))
    return records
