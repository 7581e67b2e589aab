"""The paper's contribution: the AMReX -> MACSio proxy I/O model.

Eqs. (1)–(2) series construction, the Eq. (3) ``part_size`` model with
correction factor ``f``, single-parameter ``dataset_growth`` calibration
(Fig. 9), the Listing-1 translator, linear regression across cases, and
CFL/level interpolation guidance (Appendix A).
"""

from .calibration import (
    CalibrationReport,
    ProxyVerification,
    calibrate_from_result,
    verify_proxy,
)
from .errors import (
    final_cumulative_error,
    max_relative_error,
    mean_relative_error,
    relative_errors,
    shape_correlation,
)
from .growth import (
    GROWTH_RANGE_PAPER,
    GrowthCalibration,
    calibrate_growth,
    growth_series,
)
from .interpolation import GrowthTable, interpolate_growth, paper_guidance_growth
from .predictor import DEFAULT_F, SizePrediction, predict_sizes
from .part_size import (
    CASE4_PART_SIZE,
    F_RANGE_PAPER,
    fit_correction_factor,
    part_size_model,
)
from .regression import CaseFeatures, LinearModel, design_row, fit_linear_model
from .translator import ProxyModel, command_line, translate
from .variables import ModelSeries, build_series, per_level_series, per_task_series

__all__ = [
    "DEFAULT_F",
    "SizePrediction",
    "predict_sizes",
    "CalibrationReport",
    "ProxyVerification",
    "calibrate_from_result",
    "verify_proxy",
    "final_cumulative_error",
    "max_relative_error",
    "mean_relative_error",
    "relative_errors",
    "shape_correlation",
    "GROWTH_RANGE_PAPER",
    "GrowthCalibration",
    "calibrate_growth",
    "growth_series",
    "GrowthTable",
    "interpolate_growth",
    "paper_guidance_growth",
    "CASE4_PART_SIZE",
    "F_RANGE_PAPER",
    "fit_correction_factor",
    "part_size_model",
    "CaseFeatures",
    "LinearModel",
    "design_row",
    "fit_linear_model",
    "ProxyModel",
    "command_line",
    "translate",
    "ModelSeries",
    "build_series",
    "per_level_series",
    "per_task_series",
]
