"""repro — reproduction of Fischer, Gao & Bernstein (CLUSTER 2015),
"Machines Tuning Machines: Configuring Distributed Stream Processors
with Bayesian Optimization".

Subpackages
-----------
``repro.core``
    The paper's contribution: a Spearmint-style Bayesian optimizer
    (GP + Expected Improvement) with the parallel-linear-ascent
    baseline and the informed (base-parallelism-weight) variants.
``repro.storm``
    The substrate: a simulated Storm/Trident cluster — topology model,
    Table I configuration surface, even scheduler, discrete-event and
    analytic execution engines.
``repro.topology_gen``
    GGen-style layer-by-layer synthetic topologies and the paper's
    workload perturbations (Table II, §IV-B).
``repro.sundog``
    The Sundog entity-ranking topology and its synthetic common-crawl
    workload (Figure 2, §IV-A).
``repro.stats``
    LOESS smoothing, Welch t-tests, and summary helpers (§V analyses).
``repro.experiments``
    Runners and figure/table builders regenerating every table and
    figure of the evaluation (see DESIGN.md and EXPERIMENTS.md).
"""

import os

# One OpenBLAS thread per process.  numpy and scipy each bundle their own
# OpenBLAS, and each would start a pool as wide as the host.  At this
# program's matrix sizes the extra threads buy nothing: waiting for work,
# they spin and contend for the cores as a GP refit alternates numpy BLAS,
# scipy LAPACK and L-BFGS-B steps.  OpenBLAS reads the variable when each
# library loads, so this must run before numpy is imported.  A value the
# user sets is left untouched (docs/PERFORMANCE.md, "BLAS threads").
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "1.0.0"

__all__ = ["__version__"]
