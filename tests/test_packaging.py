"""Declared entry points resolve to callables."""

import importlib
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_console_script_target_imports():
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_posrank_train_is_the_training_module():
    import posrank

    assert posrank.train is importlib.import_module("posrank.train")
    assert callable(posrank.train.score_requests) and callable(posrank.train.train)


def test_public_names_are_the_submodules_errors_and_version():
    import posrank

    assert {name for name in vars(posrank) if not name.startswith("_")} == {
        "autodiff", "data", "errors", "metrics", "model", "serving", "train", "world",
        "FormatError", "NumericError", "PosrankError", "UndefinedMetricError", "UsageError",
    }
    assert posrank.__version__ == tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["version"]
