"""Chiplet disaggregation and the performance-per-wafer metric
(Zhang et al., the paper's ref. [52])."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = dict.fromkeys(
    (
        "ChipletPartition",
        "PartitionOutcome",
        "evaluate_partition",
        "best_partition",
    ),
    ".chiplets",
)
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
