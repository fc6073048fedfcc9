"""Confidence scoring and ranking evaluation for visually estimated camera poses."""

from .confidence_model import (
    ConfidenceModel,
    TrainConfig,
    TrainResult,
    load_model,
    logsig,
    predict,
    predict_record,
    raw_space_parameters,
    save_model,
    score_records,
    train,
    train_features,
)
from .coverage import (
    CoverageMap,
    CoverageParams,
    ImageDims,
    InlierSet,
    coverage_fraction,
    coverage_map,
    coverage_score,
    neighborhood_half_extents,
)
from .dataset_io import (
    PoseRecord,
    SplitSpec,
    SynthConfig,
    build_extended,
    group_by_query,
    grouped_split,
    label_records,
    parse_records,
    read_records,
    serialize_record,
    synth_generate,
    write_records,
)
from .errors import PoseconfError
from .evaluation import (
    PRCurve,
    ScoredLabel,
    SweepRow,
    ablation,
    accuracy_at,
    auc,
    pr_curve,
    pr_curve_from_scores,
    rerank,
    select_max_inliers,
    select_per_query,
    sweep_scores,
    threshold_sweep,
)
from .features import (
    DEFAULT_FEATURE_SET,
    Standardizer,
    apply_standardizer,
    assemble,
    feature_matrix,
    fit_standardizer,
    parse_feature_set,
)
from .pose_metrics import (
    ErrorThreshold,
    Pose,
    PoseError,
    is_correct,
    pose_error,
    rotation_error,
    translation_error,
)

__version__ = "0.1.0"
