"""Quantitative rebound-effect modeling: the continuum between the
paper's fixed-work and fixed-time scenarios, plus deployment rebound
(paper §3.7)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = dict.fromkeys(
    (
        "ReboundModel",
        "rebound_ncf",
        "classify_with_rebound",
        "usage_rebound_tipping_point",
    ),
    ".model",
)
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
