"""What each ``osprof`` path imports, checked in fresh interpreters.

Package ``__init__`` exports are lazy (``repro._lazy.lazy_exports``) and
each subcommand imports what it runs at the point of use.  The budget
below is a count of loaded modules, not a timing: exact and free of
host noise.  Every check runs in its own interpreter, because inside
one pytest process the import order is fixed by whatever ran first,
which hides both an eager import and a circular import that only fails
when a package is the first one imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
PACKAGES = sorted(
    ["repro"] + [f"repro.{path.name}"
                 for path in Path(repro.__file__).parent.iterdir()
                 if (path / "__init__.py").is_file()])


def fresh(script: str, *args: str):
    """Run *script* in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_every_package_is_covered():
    named = {"repro"} | {f"repro.{name}" for name in (
        "core", "sim", "disk", "analysis", "workloads", "fs", "vfs", "net",
        "service", "warehouse", "sampling")}
    assert named <= set(PACKAGES)


class TestImportBudget:
    def test_list_scenarios_loads_no_simulator_service_or_pool(self):
        loaded = fresh("""
            import contextlib, io, json, sys
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--list-scenarios"]) == 0
            print(json.dumps(sorted(sys.modules)))
        """)
        forbidden = {"repro.system", "repro.sim.scheduler", "repro.vfs",
                     "repro.fs", "repro.core.shard", "repro.service",
                     "repro.warehouse", "repro.analysis.select",
                     "multiprocessing"}
        assert forbidden.isdisjoint(loaded), forbidden & set(loaded)

    def test_serve_loads_no_simulator(self):
        loaded = fresh("""
            import json, sys
            import repro.cli, repro.service.aio_server
            print(json.dumps(sorted(sys.modules)))
        """)
        simulator = [name for name in loaded
                     if name == "repro.system"
                     or name.split(".")[:2] in (["repro", "sim"],
                                                ["repro", "vfs"],
                                                ["repro", "fs"])]
        assert simulator == []


class TestPublicSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_resolves_star_binds_and_dir_lists(self, package):
        report = fresh("""
            import importlib, json, sys, types
            name = sys.argv[1]
            pkg = importlib.import_module(name)
            exported = list(pkg.__all__)
            listed = set(dir(pkg))
            star = {}
            exec(f"from {name} import *", star)
            values = {n: getattr(pkg, n) for n in exported}
            print(json.dumps({
                "not_in_dir": [n for n in exported if n not in listed],
                "not_bound": [n for n in exported if n not in star],
                "modules": [n for n, v in values.items()
                            if isinstance(v, types.ModuleType)],
            }))
        """, package)
        assert report == {"not_in_dir": [], "not_bound": [], "modules": []}

    def test_from_repro_import_system(self):
        assert fresh("""
            import json
            from repro import System
            print(json.dumps(System.__module__))
        """) == "repro.system"

    def test_export_named_like_its_submodule_stays_the_function(self):
        # Importing repro.analysis.compare first binds the submodule in
        # its package; the export of the same name must win regardless.
        assert fresh("""
            import json, sys
            import repro.analysis.compare
            from repro.analysis import compare
            module = sys.modules["repro.analysis.compare"]
            print(json.dumps(compare is module.compare))
        """) is True

    def test_unknown_name_raises_attribute_error(self):
        import repro.core
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope  # noqa: B018
