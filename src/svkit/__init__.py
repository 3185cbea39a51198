"""Post-embedding speaker-verification stack: scoring, s-normalization,
calibration, detection metrics, pseudo-label clustering and the training
math behind it."""

from .embeddings import (
    EmbeddingSet,
    UttMeta,
    length_normalize,
    read_embeddings,
    read_metadata,
    synth_dataset,
    write_embeddings,
    write_metadata,
)
from .scoring import (
    ScoreSet,
    TrialList,
    build_cohort,
    cosine_score,
    mean_fuse,
    read_scores,
    read_trials,
    snorm,
    write_scores,
    write_trials,
)
from .calibration import (
    CalibrationModel,
    QmfVector,
    apply_calibration,
    build_features,
    duration_qmf,
    fit_logreg,
    gen_calibration_trials,
    read_model,
    trial_qmfs,
    write_model,
)
from .metrics import (
    DcfParams,
    actual_dcf,
    adjusted_rand_index,
    eer,
    min_dcf,
)
from .clustering import (
    KMeansModel,
    PseudoLabeling,
    ahc_ward,
    assign_pseudo_labels,
    identity_refresher,
    iterate,
    make_prototype_pull_refresher,
    minibatch_kmeans,
    read_kmeans,
    sweep_cluster_count,
    write_kmeans,
)
from .trainmath import (
    AamConfig,
    ContrastiveBatch,
    NegativeQueue,
    aam_softmax_loss,
    clr_triangular2,
    min_overlap_crop_pair,
    moco_loss,
    momentum_update,
    queue_push,
)
from .errors import SvkitError

__version__ = "0.1.0"
