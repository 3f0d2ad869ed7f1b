"""ltrkit: locally time-reversed speech rendering, companion augmentations,
N-fold training-set construction, and desk-scale sequence scoring for ASR
experiments.
"""

from .audio_io import AudioBuffer, WavFormatError, read_wav, write_wav
from .dataset import (
    SET_DURATIONS_MS,
    AugmentTag,
    ManifestError,
    ManifestRecord,
    build_set,
    build_speed_set,
    load_manifest,
    save_manifest,
)
from .errors import DataError
from .features import (
    FeatureMatrix,
    boundary_discontinuity,
    distortion_curve,
    fbank,
    load_features,
    mvn,
    save_features,
    spectral_distance,
)
from .ltr import DEFAULT_DURATIONS_MS, reverse_segments, segment_samples
from .metrics import ErrorReport, TrnFormatError, align, corpus_rate, corpus_report, read_trn, tokenize, top_confusions
from .perturb import DEFAULT_SPEED_FACTORS, SpecAugmentPolicy, spec_augment, spec_augment_file, speed_perturb
from .scoring import (
    FusionWeights,
    Hypothesis,
    PosteriorGrid,
    Vocabulary,
    attention_loss,
    collapse,
    ctc_loss,
    ctc_loss_bruteforce,
    ctc_min_frames,
    fused_score,
    greedy_ctc_decode,
    interleave_blanks,
    load_grid,
    load_hypotheses,
    mtl_loss,
    rescore_hypotheses,
    save_grid,
    tabular_lm_score,
)

__version__ = "0.1.0"
