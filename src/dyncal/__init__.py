"""dyncal: calibration of time-series-valued computer simulators.

Builds a small discretization-point-set from the target series by greedy
spline-knot selection, then solves the inverse problem as a sequence of
scalar contour estimations driven by expected improvement over a kriging
surrogate. A history-matching baseline is included for comparison.
"""

from .acquisition import ContourTarget, expected_improvement, implausibility_max
from .calibrate import (BudgetError, CalibrationResult, MsceConfig,
                        extract_solution, hm_run, msce_run, write_run_artifacts)
from .designs import maximin_lhd, maxpro_lhd, random_lhd
from .gp import FitError, GpModel, build_gp_model, fit_gp, predict_batch
from .metrics import (ConstantTargetError, NormD, evaluate_all, norm_d,
                      r_squared, rmse)
from .simulators import (ExternalSimulator, ProcessError, ProtocolError,
                         Simulator, SimulatorSpec, SimulatorTimeout, bliznyuk,
                         easom, get_simulator, harari_steinberg,
                         target_series)
from .spline_dps import (DpsResult, TargetSeries, build_dps, fit_cubic_spline,
                         greedy_knot_search, select_k_elbow)

__version__ = "0.1.0"
