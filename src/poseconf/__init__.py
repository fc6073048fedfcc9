"""Confidence scoring and ranking evaluation for visually estimated camera poses."""

import gc

# The imports make tens of thousands of objects and no garbage, which the
# cyclic collector would scan dozens of times: it stays off while they run.
_collecting = gc.isenabled()
gc.disable()
try:
    from .confidence_model import (
        ConfidenceModel,
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
        SweepRow,
        ablation,
        accuracy_at,
        pr_curve_from_scores,
        select_max_inliers,
        select_per_query,
        sweep_scores,
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
finally:
    if not gc.get_freeze_count():  # else the unfreeze would thaw the importer's objects
        # Move every object to the oldest generation unscanned and zero the
        # allocation count, which would start a collection of them all next.
        gc.freeze()
        gc.unfreeze()
    if _collecting:
        gc.enable()

__version__ = "0.1.0"
