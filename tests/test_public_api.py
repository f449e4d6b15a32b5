"""The public API surface: everything exported exists and coheres."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro.geometry",
    "repro.signal",
    "repro.sar",
    "repro.machine",
    "repro.runtime",
    "repro.kernels",
    "repro.eval",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        """The README quickstart's names are all top-level."""
        for name in (
            "RadarConfig",
            "Scene",
            "simulate_compressed",
            "ffbp",
            "gbp_polar",
            "ffbp_with_autofocus",
            "EpiphanyChip",
            "CpuMachine",
            "ProcessingChain",
            "range_doppler_image",
        ):
            assert hasattr(repro, name), name


def _fresh_import(module: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter loads to import ``module``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return json.loads(out.stdout)


class TestImportClosure:
    def test_package_root_imports_no_layer(self):
        assert _fresh_import("repro") == ["repro"]

    def test_serve_loads_no_eval_or_verify_module(self):
        loaded = _fresh_import("repro.serve.service")
        assert "repro.serve.service" in loaded
        leaked = [
            m for m in loaded if m.startswith(("repro.eval", "repro.verify"))
        ]
        assert leaked == []


class TestSubpackages:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_imports_cleanly(self, pkg):
        module = importlib.import_module(pkg)
        assert module.__doc__, f"{pkg} needs a docstring"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_all_exports_resolve(self, pkg):
        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{pkg}.{name}"


class TestDocstrings:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_public_callables_documented(self, pkg):
        """Every exported public item carries a docstring."""
        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__doc__, f"{pkg}.{name} lacks a docstring"
