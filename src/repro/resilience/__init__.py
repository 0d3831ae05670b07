"""The resilient execution layer: supervision, containment, checkpointing, chaos.

Production-scale DSE sweeps and Monte-Carlo studies run for hours over
process pools; this package keeps them alive and honest:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (timeouts,
  bounded retry with seeded-jitter exponential backoff, respawn budget,
  heartbeat watchdog deadline, quarantine budget, salvage mode,
  degradation) and :class:`SupervisionStats`;
* :mod:`repro.resilience.supervisor` — :class:`SupervisedPool`, the
  crash-tolerant ``ProcessPoolExecutor`` wrapper
  :class:`~repro.dse.batch.BatchExplorer` dispatches through;
* :mod:`repro.resilience.containment` — failure containment: the
  persisted poison-point :class:`QuarantineLedger`, the parent-side
  :class:`HeartbeatMonitor` watchdog, and the :class:`FailureReport`
  of a salvaged partial run;
* :mod:`repro.resilience.checkpoint` — append-only, checksummed
  :class:`CheckpointStore` logs enabling bit-exact ``--resume`` of
  killed sweeps and samplers;
* :mod:`repro.resilience.chunklog` — the one durable file format those
  logs, the quarantine ledger and the result store's run files share,
  with bounded retry on transient disk faults;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (:class:`FaultPlan`) behind the chaos test suite.

Everything here is byte-transparent: supervision, checkpointing and
resume never change a sweep's results, cache contents or ordering for
any non-quarantined point — the chaos suite and
``benchmarks/bench_resilience.py`` gate exactly that, and quarantine
is always reported, never silent.

See ``docs/ROBUSTNESS.md`` for the operational guide.
"""

from __future__ import annotations

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("RetryPolicy", "DEFAULT_POLICY", "SupervisionStats"), ".policy"
    ),
    "SupervisedPool": ".supervisor",
    **dict.fromkeys(
        (
            "CheckpointStore",
            "CHECKPOINT_FORMAT",
            "atomic_write_text",
            "set_disk_fault_hook",
            "sweep_fingerprint",
            "encode_outcomes",
            "decode_outcomes",
            "describe_factory",
        ),
        ".checkpoint",
    ),
    **dict.fromkeys(
        (
            "QUARANTINE_FORMAT",
            "QuarantineLedger",
            "QuarantineSession",
            "FailureReport",
            "HeartbeatMonitor",
            "BisectOutcome",
            "INCOMPLETE",
        ),
        ".containment",
    ),
    **dict.fromkeys(
        (
            "FaultPlan",
            "FaultSpec",
            "FaultInjectingFactory",
            "InjectedFault",
            "VectorFaultInjectingFactory",
            "truncate_checkpoint",
            "corrupt_checkpoint",
        ),
        ".faults",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
