"""Tests for ``python -m repro`` and package metadata."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

#: Modules whose re-exports load on first attribute access.
LAZY_PACKAGES = (
    "repro",
    "repro.accel",
    "repro.act",
    "repro.amdahl",
    "repro.cache",
    "repro.core",
    "repro.dse",
    "repro.dvfs",
    "repro.gating",
    "repro.lifetime",
    "repro.microarch",
    "repro.multichip",
    "repro.obs",
    "repro.rebound",
    "repro.report",
    "repro.report.export",
    "repro.resilience",
    "repro.speculation",
    "repro.studies",
    "repro.technode",
    "repro.validation",
    "repro.wafer",
    "repro.workloads",
)

#: Exported functions that share their name with the submodule defining
#: them, as (package, name).
SHADOWED_NAMES = (
    *(("repro.studies", f"figure{n}") for n in range(1, 9)),
    ("repro.studies", "case_study"),
    ("repro.technode", "roadmap"),
)

#: The study drivers' modules, one per registered figure.
DRIVER_MODULES = {
    **{f"figure{n}": f"repro.studies.figure{n}" for n in range(1, 9)},
    "figure9": "repro.studies.case_study",
}

#: Modules that no ``focal figure`` command loads, whatever the figure.
FIGURE_NEVER_LOADS = (
    "repro.studies.findings",
    "repro.studies.mechanisms",
    "repro.technode.roadmap",
    "repro.core.uncertainty",
    "repro.core.pareto",
)

#: Modules the paper path (figures and findings) must never import.
HEAVY_MODULES = (
    "numpy",
    "repro.core.batch",
    "repro.dse.batch",
    "repro.obs.exporters",
    "repro.obs.manifest",
    "urllib.request",
)

#: Modules an untraced ``focal figure``, ``findings`` or ``list`` at the
#: default log level must never import: the logging and observability
#: stack beyond the root span, and the other commands' code.
QUIET_PATH_NEVER_LOADS = (
    "logging",
    "repro.obs.events",
    "repro.obs.metrics",
    "repro.obs.manifest",
    "repro.commands",
)

#: Every command of the paper path.
PAPER_COMMANDS = (
    *(("figure", f"figure{n}", "--format", "json") for n in range(1, 10)),
    ("findings",),
    ("list",),
)


def _run_child(code: str) -> str:
    """Run *code* in a fresh interpreter that imports this checkout's
    package; returns its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestMainModule:
    def test_python_dash_m_list(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "figure3" in proc.stdout

    def test_python_dash_m_bad_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "no-such-command"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0


class TestPackageMetadata:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_docstring_names_the_paper(self):
        assert "FOCAL" in repro.__doc__
        assert "ASPLOS" in repro.__doc__

    def test_quickstart_snippet_in_docstring_runs(self):
        """The doc's quick-start code must actually work."""
        namespace: dict = {}
        snippet = (
            "from repro import DesignPoint, UseScenario, ncf, classify\n"
            "fsc = DesignPoint('FSC', area=1.01, perf=1.64, power=1.01)\n"
            "ino = DesignPoint.baseline('InO')\n"
            "value = ncf(fsc, ino, UseScenario.FIXED_WORK, alpha=0.8)\n"
            "verdict = classify(fsc, ino, alpha=0.8).category\n"
        )
        exec(snippet, namespace)  # noqa: S102 - our own documented snippet
        assert namespace["value"] < 1.0


class TestImportHygiene:
    """The paper path imports only what it runs: no NumPy, no engine,
    no exporters, no urllib (asserted on module names, never timings)."""

    def test_paper_path_leaves_heavy_modules_unloaded(self):
        commands = [["findings"]]
        commands += [["figure", f"figure{n}", "--format", "json"] for n in range(1, 10)]
        commands.append(["figure", "figure3", "--format", "html"])
        out = _run_child(
            f"""
            import contextlib, io, json, sys
            import repro
            loaded = {{"import repro": sorted(sys.modules)}}
            from repro.cli import main
            for argv in {commands!r}:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                assert code == 0, argv
                loaded[" ".join(argv)] = sorted(sys.modules)
            print(json.dumps(loaded))
            """
        )
        loaded = json.loads(out)
        assert len(loaded) == len(commands) + 1
        for step, modules in loaded.items():
            assert not set(HEAVY_MODULES) & set(modules), step

    def test_studies_resolve_to_functions_after_the_cli_ran(self):
        commands = [["findings"]]
        commands += [["figure", f"figure{n}", "--format", "json"] for n in range(1, 10)]
        out = _run_child(
            f"""
            import contextlib, inspect, io, json
            import repro.cli
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in {commands!r}:
                    assert repro.cli.main(argv) == 0, argv
            import repro
            import repro.studies
            from repro.studies import case_study
            from repro.studies.registry import STUDIES
            values = [repro.case_study, case_study]
            values += [getattr(repro.studies, f"figure{{n}}") for n in range(1, 10)]
            values += [STUDIES[f"figure{{n}}"] for n in range(1, 10)]
            print(json.dumps([inspect.isfunction(value) for value in values]))
            """
        )
        assert json.loads(out) == [True] * 20

    def test_shadowed_names_stay_functions_after_their_submodule_loads(self):
        """Importing ``repro.studies.figure3`` first must not make
        ``from repro.studies import figure3`` the module."""
        out = _run_child(
            f"""
            import importlib, inspect, json
            from repro.technode.roadmap import RoadmapPolicy
            shadowed = {SHADOWED_NAMES!r}
            submodules = [importlib.import_module(f"{{package}}.{{name}}") for package, name in shadowed]
            results = []
            for (package, name), submodule in zip(shadowed, submodules):
                namespace = {{}}
                exec(f"from {{package}} import {{name}}", namespace)
                value = namespace[name]
                results.append(
                    inspect.isfunction(value)
                    and value is getattr(submodule, name)
                    and value is getattr(importlib.import_module(package), name)
                )
            print(json.dumps(results))
            """
        )
        assert json.loads(out) == [True] * len(SHADOWED_NAMES)

    @staticmethod
    def _loaded_by(argv: list[str]) -> set[str]:
        """The modules a fresh interpreter holds after ``focal *argv``."""
        out = _run_child(
            f"""
            import contextlib, io, json, sys
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main({argv!r}) == 0
            print(json.dumps(sorted(sys.modules)))
            """
        )
        return set(json.loads(out))

    def test_list_loads_no_driver(self):
        assert not set(DRIVER_MODULES.values()) & self._loaded_by(["list"])

    def test_findings_loads_no_figure_driver(self):
        figures = {f"repro.studies.figure{n}" for n in range(1, 9)}
        assert not figures & self._loaded_by(["findings"])

    @pytest.mark.parametrize("name", sorted(DRIVER_MODULES))
    def test_figure_loads_its_own_driver_only(self, name):
        modules = self._loaded_by(["figure", name, "--format", "json"])
        assert DRIVER_MODULES[name] in modules
        others = set(DRIVER_MODULES.values()) - {DRIVER_MODULES[name]}
        assert not others & modules
        assert not set(FIGURE_NEVER_LOADS) & modules
        assert "repro.report.ascii_plot" not in modules

    @pytest.mark.parametrize("argv", PAPER_COMMANDS, ids=" ".join)
    def test_paper_path_loads_no_logging_observability_or_other_commands(
        self, argv
    ):
        assert not set(QUIET_PATH_NEVER_LOADS) & self._loaded_by(list(argv))

    def test_debug_level_and_tracing_load_what_they_use(self, tmp_path):
        debug = self._loaded_by(["-vv", "list"])
        assert "logging" in debug
        assert "repro.commands" not in debug
        traced = self._loaded_by(["list", "--trace", str(tmp_path / "t.json")])
        assert set(QUIET_PATH_NEVER_LOADS) - {"logging"} <= traced


@pytest.mark.parametrize("name", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_exported_name_resolves_and_is_listed(self, name):
        module = importlib.import_module(name)
        listed = dir(module)
        for export in module.__all__:
            getattr(module, export)  # raises AttributeError if it does not resolve
            assert export in listed, export

    def test_unknown_name_raises_attribute_error_naming_the_module(self, name):
        module = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
            module.no_such_name  # noqa: B018 - the lookup is the test

    def test_star_import_binds_all(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)  # noqa: S102 - fixed module names
        module = importlib.import_module(name)
        assert set(module.__all__) <= set(namespace)
        for export in module.__all__:
            assert namespace[export] is getattr(module, export)
