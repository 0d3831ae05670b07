"""Technology nodes, Imec manufacturing-footprint data, Dennard and
post-Dennard scaling, and the die-shrink analysis (paper §6)."""

from .._lazy import lazy_exports

# Every name loads with its module on first access. ``roadmap`` is the
# function of that name in ``roadmap.py``, also once that submodule
# has been imported (see repro._lazy).
_EXPORTS = {
    **dict.fromkeys(
        ("TechNode", "NODE_ROSTER", "node_by_name", "transitions_between"),
        ".nodes",
    ),
    **dict.fromkeys(
        (
            "ImecGrowthRates",
            "IMEC_IEDM2020",
            "annual_to_per_node",
            "wafer_footprint_multiplier",
            "SCOPE1_ANNUAL_GROWTH",
            "SCOPE2_ANNUAL_GROWTH",
            "SCOPE1_PER_NODE_GROWTH",
            "SCOPE2_PER_NODE_GROWTH",
        ),
        ".imec",
    ),
    **dict.fromkeys(
        ("ScalingRegime", "CLASSICAL_SCALING", "POST_DENNARD_SCALING"), ".scaling"
    ),
    **dict.fromkeys(
        ("DieShrinkOutcome", "die_shrink", "classify_die_shrink", "shrunk_design"),
        ".dieshrink",
    ),
    **dict.fromkeys(("RoadmapPolicy", "GenerationPoint", "roadmap"), ".roadmap"),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
