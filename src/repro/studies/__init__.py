"""Per-figure study drivers, the Findings verification table, and the
§7 case study."""

from .._lazy import lazy_exports

# Every name loads with its module on first access, so a command runs
# one driver without importing the others. ``figure1``…``figure8`` and
# ``case_study`` are the functions of those names in their same-named
# submodules, also once a submodule has been imported (see
# repro._lazy).
_EXPORTS = {
    **{f"figure{n}": f".figure{n}" for n in range(1, 9)},
    **dict.fromkeys(
        ("figure9", "case_study", "CaseStudyConfig", "CaseStudyPoint"),
        ".case_study",
    ),
    **dict.fromkeys(("FindingCheck", "all_findings", "failed_findings"), ".findings"),
    **dict.fromkeys(
        (
            "MechanismEntry",
            "PAPER_CATEGORIES",
            "mechanism_catalogue",
            "catalogue_pairs",
        ),
        ".mechanisms",
    ),
    **dict.fromkeys(("STUDIES", "run_study", "study_names"), ".registry"),
    **dict.fromkeys(("PanelSpec", "FOUR_PANELS", "TWO_WEIGHT_PANELS"), ".common"),
    **dict.fromkeys(
        ("PAPER_BCE_LADDER", "PAPER_PARALLEL_FRACTIONS"), ".figure3"
    ),
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
