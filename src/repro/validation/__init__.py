"""Model-validation limits: synthetic LCA aggregation and the
FOCAL-vs-LCA gap (paper §3.6)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = dict.fromkeys(
    ("SystemLCA", "chip_attribution_error", "validation_gap"), ".lca"
)
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
