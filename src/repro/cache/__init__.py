"""Last-level-cache sustainability study (paper §5.5, Figure 6)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access.
_EXPORTS = {
    **dict.fromkeys(("CactiCacheModel", "CACTI_65NM_LLC"), ".cacti"),
    **dict.fromkeys(("MissRateModel", "SQRT2_RULE"), ".missrate"),
    **dict.fromkeys(
        ("MemoryBoundWorkload", "PAPER_LLC_WORKLOAD", "CachedProcessor"),
        ".hierarchy",
    ),
    **dict.fromkeys(
        ("LLCPoint", "llc_sweep", "classify_llc", "PAPER_LLC_SIZES_MB"),
        ".llc_study",
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
