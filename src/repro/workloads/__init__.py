"""Workload profiles and the mechanism advisor: the paper's §5
catalogue applied to concrete software classes."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("WorkloadProfile", "WORKLOAD_ROSTER", "workload_by_name"), ".profiles"
    ),
    **dict.fromkeys(("Recommendation", "advise", "ADVISOR_BCES"), ".advisor"),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
