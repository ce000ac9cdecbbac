"""The paper's contribution: Bayesian Optimization for configuration tuning.

A from-scratch Spearmint-style optimizer (paper §III-C):

* :mod:`repro.core.parameters` — typed parameter spaces mapped to the
  unit hypercube,
* :mod:`repro.core.kernels` / :mod:`repro.core.gp` — Gaussian-process
  surrogate with Matérn-5/2 or RBF kernels and ML-II hyperparameter
  fitting,
* :mod:`repro.core.acquisition` — Expected Improvement (the paper's
  choice), Probability of Improvement, and GP-UCB,
* :mod:`repro.core.optimizer` — the ask/tell loop with Latin-hypercube
  initialization and JSON state serialization (Spearmint's
  pause/resume feature, §III-C),
* :mod:`repro.core.baselines` — the parallel linear ascent baseline
  with the paper's three-consecutive-zeros stop rule, plus random
  search for ablations,
* :mod:`repro.core.informed` — "informed" variants built on base
  parallelism weights (§V-A),
* :mod:`repro.core.loop` — the experiment driver measuring per-step
  wall time and re-running best configurations,
* :mod:`repro.core.executor` — pluggable evaluation executors (inline
  serial, thread pool) that let the loop keep several proposals in
  flight,
* :mod:`repro.core.seeding` — deterministic per-stream seed derivation
  shared by the executors and the experiment runner.
"""

from repro.core.acquisition import (
    AcquisitionOptimizer,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.core.baselines import (
    GridAscentOptimizer,
    Optimizer,
    ParallelLinearAscent,
    RandomSearchOptimizer,
)
from repro.core.continuous import (
    ContinuousTuningLoop,
    ContinuousTuningResult,
    EpochRecord,
)
from repro.core.drift import PageHinkleyDetector
from repro.core.executor import (
    EvaluationExecutor,
    EvaluationOutcome,
    SerialExecutor,
    ThreadPoolExecutor,
)
from repro.core.gp import GaussianProcess
from repro.core.history import Observation, TuningResult
from repro.core.informed import (
    InformedParallelismCodec,
    base_parallelism_weights,
)
from repro.core.kernels import RBF, Kernel, Matern52
from repro.core.loop import TuningLoop
from repro.core.optimizer import BayesianOptimizer
from repro.core.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    Parameter,
    ParameterSpace,
)
from repro.core.seeding import derive_seed

__all__ = [
    "AcquisitionOptimizer",
    "BayesianOptimizer",
    "CategoricalParameter",
    "ContinuousTuningLoop",
    "ContinuousTuningResult",
    "EpochRecord",
    "EvaluationExecutor",
    "EvaluationOutcome",
    "FloatParameter",
    "GaussianProcess",
    "GridAscentOptimizer",
    "InformedParallelismCodec",
    "IntParameter",
    "Kernel",
    "Matern52",
    "Observation",
    "Optimizer",
    "PageHinkleyDetector",
    "ParallelLinearAscent",
    "Parameter",
    "ParameterSpace",
    "RBF",
    "RandomSearchOptimizer",
    "SerialExecutor",
    "ThreadPoolExecutor",
    "TuningLoop",
    "TuningResult",
    "base_parallelism_weights",
    "derive_seed",
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
]
