"""Stance detection experiments from text and social-network features."""

from .corpus import (
    CANONICAL_LABELS,
    CorpusError,
    Dataset,
    LabeledInstance,
    ProfileTable,
    StanceLabel,
    join,
    load_network_profiles,
    load_semeval_tsv,
)
from .features import (
    FeatureSetSelector,
    FeatureSpace,
    build_feature_space,
    char_ngrams,
    extract_features,
    index_rows,
    tokenize,
    word_ngrams,
)
from .linsvm import (
    LinearModel,
    TrainConfig,
    decision_values,
    load_bundle,
    predict,
    save_bundle,
    train_ovr,
)
from .scoring import (
    EvalReport,
    confusion,
    kfold,
    mann_whitney_u,
    paired_t_test,
    score_semeval,
)
from .analysis import (
    OverlapDistribution,
    RankedFeatures,
    jaccard,
    network_overlap,
    top_features,
    topn_overlap_curve,
    user_consistency,
)
from .synth import SynthConfig, generate, write_corpus

__version__ = "0.1.0"
