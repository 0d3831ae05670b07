"""Power/energy saving via pipeline gating (paper §5.9, Finding #16)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = dict.fromkeys(
    (
        "PipelineGatingEffect",
        "PARIKH_GATING",
        "gated_design",
        "gating_ncf",
        "classify_gating",
    ),
    ".pipeline_gating",
)
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
