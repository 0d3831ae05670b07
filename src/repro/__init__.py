"""FOCAL: a first-order carbon model to assess processor sustainability.

A faithful, full-scope reproduction of Eeckhout, *FOCAL* (ASPLOS 2024).

The package is organized as the paper is:

* :mod:`repro.core` — design points, fixed-work/fixed-time scenarios,
  the NCF metric, strong/weak/less sustainability (§3-§4);
* :mod:`repro.wafer` — chips-per-wafer and yield models behind the
  embodied-footprint proxy (§3.1, Figure 1);
* :mod:`repro.technode` — Imec manufacturing data, Dennard and
  post-Dennard scaling, die shrinks (§6);
* :mod:`repro.amdahl` — Hill-Marty/Woo-Lee multicore laws (§5.1-§5.2);
* :mod:`repro.accel` — accelerators and dark silicon (§5.3-§5.4);
* :mod:`repro.cache` — the LLC study (§5.5);
* :mod:`repro.microarch` — InO/FSC/OoO cores (§5.6);
* :mod:`repro.speculation` — branch prediction and runahead (§5.7);
* :mod:`repro.dvfs` and :mod:`repro.gating` — frequency scaling, turbo
  boost and pipeline gating (§5.8-§5.9);
* :mod:`repro.act` — a simplified bottom-up ACT comparator (§3.5);
* :mod:`repro.dse` — sweeps, Pareto frontiers, break-evens,
  sensitivity, Monte-Carlo robustness;
* :mod:`repro.studies` — one driver per paper figure plus the
  Findings #1-#17 verification table;
* :mod:`repro.report` — series, tables, ASCII charts, exporters;
* :mod:`repro.cli` — the ``focal`` command.

Quick start::

    from repro import DesignPoint, UseScenario, ncf, classify

    fsc = DesignPoint("FSC", area=1.01, perf=1.64, power=1.01)
    ino = DesignPoint.baseline("InO")
    print(ncf(fsc, ino, UseScenario.FIXED_WORK, alpha=0.8))
    print(classify(fsc, ino, alpha=0.8).category)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core re-exports (the primary public API)
    "DesignPoint",
    "UseScenario",
    "E2OWeight",
    "EMBODIED_DOMINATED",
    "OPERATIONAL_DOMINATED",
    "BALANCED",
    "STANDARD_WEIGHTS",
    "ncf",
    "ncf_from_ratios",
    "ncf_band",
    "relative_footprint",
    "NCFBand",
    "NCFAssessment",
    "assess",
    "Sustainability",
    "Verdict",
    "classify",
    "classify_values",
    "classify_pair",
    "Interval",
    "RobustConclusion",
    "robust_classification",
    "ParetoPoint",
    "pareto_frontier",
    "pareto_designs",
    # errors
    "ReproError",
    "ValidationError",
    "DomainError",
    "ConvergenceError",
    "ConfigurationError",
    "UnknownStudyError",
    "ResilienceError",
    "CheckpointError",
    "WorkerPoolError",
    # studies
    "run_study",
    "study_names",
    "all_findings",
    "case_study",
]

#: Subpackages reachable as attributes of the bare package.
_SUBPACKAGES = (
    "accel",
    "act",
    "amdahl",
    "cache",
    "core",
    "dse",
    "dvfs",
    "gating",
    "lifetime",
    "microarch",
    "multichip",
    "obs",
    "rebound",
    "report",
    "resilience",
    "speculation",
    "studies",
    "technode",
    "validation",
    "wafer",
    "workloads",
)

# Nothing is imported until first used: ``import repro`` stays cheap,
# and the NumPy kernels load only with the modules that need them.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        **{name: f".{name}" for name in _SUBPACKAGES},
        **{name: ".core" for name in __all__ if name != "__version__"},
        **dict.fromkeys(
            ("run_study", "study_names", "all_findings", "case_study"), ".studies"
        ),
    },
)
