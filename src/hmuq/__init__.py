"""Landmark localization by heatmap regression with anisotropic Gaussian
targets whose covariances are learned from the data, Gaussian fitting of
predicted heatmaps as per-image uncertainty, Monte-Carlo-dropout baselines,
and propagation of landmark uncertainty into downstream measurements."""

import os

# One BLAS thread unless the user set a thread count: train's lanes take one CPU
# each, and BLAS threads of their own would contend with them.  BLAS reads these
# when numpy first loads, so this holds unless numpy was imported before hmuq.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .clinical import (
    ClassificationResult,
    ClassThresholds,
    DegenerateGeometryError,
    ExpressionError,
    MeasurementDef,
    accuracy_uncertainty_curve,
    classify,
    entropy_nats,
    evaluate_measurement,
    load_measurements,
    mc_classify,
)
from .dataio import (
    AnnotationRow,
    DataFormatError,
    Dataset,
    load_dataset,
    read_annotations,
    read_pgm,
    write_annotations,
    write_dataset,
    write_pgm,
)
from .fitting import FitDegenerateError, FitResult, argmax_coord, fit_gaussian
from .gauss import (
    AnisotropicGaussian,
    CovarianceDecomposition,
    InvalidParameterError,
    sample_gaussian,
    wrap_axis_angle,
)
from .metrics import (
    AggregateStats,
    aggregate_stats,
    circular_axis_mean_deg,
    interobserver_decomps,
    point_error,
    report_row,
    sdr,
    write_report_csv,
)
from .nets import ReferencePredictor
from .svgplot import (
    PLOT_KINDS,
    render_accuracy_curve,
    render_ellipse_overlay,
    render_offset_scatter,
    render_sigma_vs_error,
)
from .synthdata import LandmarkSpec, SynthConfig, generate, write_synth_dataset
from .trainer import (
    TrainConfig,
    TrainDivergedError,
    TrainedModel,
    predict,
    read_checkpoint,
    train,
    write_checkpoint,
)
from .uncertainty import mcd_heatmap_fit, mcd_max, mcd_predict, sample_uncertainty

__version__ = "0.1.0"
