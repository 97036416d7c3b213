"""qemine: low-resource translation quality estimation and parallel corpus mining.

Train a small multitask quality scorer and a contrastive sentence
filter from a few thousand labeled pairs, augment training data with
mismatched negatives, and mine parallel sentences with a two-stage
shortlist-then-score pipeline.
"""

__version__ = "0.1.0"

from .augment import AugmentConfig, AugmentedDataset, augment_filtration, augment_scorer
from .corpus import (
    BuccCorpus,
    NLIRecord,
    ParallelSet,
    QERecord,
    STSRecord,
    TatoebaSet,
    load_bucc,
    load_nli,
    load_parallel,
    load_qe,
    load_sts,
    load_tatoeba,
    save_bucc,
    save_nli,
    save_parallel,
    save_qe,
    save_sts,
    save_tatoeba,
)
from .errors import (
    AlignmentError,
    ConfigError,
    ConsistencyError,
    ModelCorruptionError,
    ModelFormatError,
    NotFittedError,
    ParseError,
    QemineError,
    RangeError,
    TrainingError,
)
from .estimators import ContrastiveFilter, FeatureStackScorer, MultitaskScorer
from .features import FeaturizerConfig
from .mining import (
    MiningConfig,
    MiningResult,
    ScoreMatrix,
    embed_and_similarity,
    f1_score,
    mine_bucc,
    mine_tatoeba,
    score_matrix,
    tatoeba_accuracy,
    topn_candidates,
    tune_threshold,
)
from .model import EncoderConfig, EncoderModel, HeadSet, load_model, save_model
from .optim import Adam
from .stats import WilliamsResult, pearson, score_histogram, t_tail, williams_test
from .synth import (
    SynthConfig,
    generate_bucc,
    generate_corpus,
    generate_parallel,
    generate_qe,
    generate_tatoeba,
)
from .training import (
    AlignmentReport,
    GradCheckReport,
    TrainConfig,
    align_encoders,
    grad_check,
    multitask_train,
    train_filtration,
    train_feature_stack,
)
