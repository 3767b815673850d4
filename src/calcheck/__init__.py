"""calcheck: accept/reject calibration checks for probabilistic forecasters.

A four-slot pipeline, each slot independently swappable:

* model & data (:mod:`calcheck.records`) - what the forecaster emits, as
  columnar batches of (prediction, outcome) records, one type per family;
* metric (:mod:`calcheck.metric`) - coverage counts (half-plane coverage
  for particle clouds), PIT samples, variance bins;
* hypothesis (:class:`calcheck.hyptest.HypothesisSpec`) - two-sided,
  one-sided over-confidence-only, with an optional tolerance margin;
* testing (:mod:`calcheck.hyptest`, :mod:`calcheck.seqtest`) - exact
  Binomial and KS tests offline, anytime-valid e-value monitors online.

Every recipe ends in a single accept/reject decision, and refuses a field
its slots do not apply (say, a monitor's tolerance) instead of ignoring it.
"""

__version__ = "0.1.0"

from .errors import (
    CalcheckError,
    ConfigError,
    DataError,
    InvalidDistributionError,
    UnsupportedMetricError,
    WorkerLostError,
)
from .hyptest import (
    ONE_SIDED,
    TWO_SIDED,
    HypothesisSpec,
    TestReport,
    binom_lower_quantile,
    binom_test,
    coverage_binomial_report,
    ks_critical,
    ks_p_value,
    ks_statistic,
    ks_test,
)
from .metric import (
    CoverageCurve,
    LevelGrid,
    PitSample,
    VarianceBins,
    coverage_counts,
    fold,
    pit,
    variance_bin,
    weighted_quantile,
)
from .records import GaussianBatch, MvGaussianBatch, ParticleBatch, RecordBatch
from .seqtest import EValueConfig, MartingaleState, monitor_step
from .sim import (
    RobotSimConfig,
    WeatherSimConfig,
    drift_sweep,
    run_robot_sim,
    run_weather_oracle,
    run_weather_sim,
)
