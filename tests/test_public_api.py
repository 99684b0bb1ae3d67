"""The package's public names: their list, the contracts of its types and
what importing it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vendormatch
from repo_paths import REPO_ROOT
from vendormatch import (
    InstanceRecord,
    InstanceSet,
    MatchPair,
    MatchReport,
    RunConfig,
    Thresholds,
    VendorResult,
)


def test_all_names_resolve_sorted_and_unique():
    for name in vendormatch.__all__:
        assert hasattr(vendormatch, name), name
    assert vendormatch.__all__ == sorted(set(vendormatch.__all__))


@pytest.mark.parametrize("module", ["vendormatch", "vendormatch.cli"])
def test_import_loads_no_class_generator(module):
    # modules loaded before the import (site hooks differ between machines)
    # are subtracted
    code = (
        "import importlib, json, sys; before = set(sys.modules); "
        f"importlib.import_module({module!r}); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    added = set(json.loads(proc.stdout))
    assert module in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "logging"}


_RECORD = InstanceRecord(3, False)
_PAIR = MatchPair("solar", "sun", 0.95, 2, 4)
_RESULT = VendorResult("v1", (_PAIR,), 95.0, {"q1": 95.0})


@pytest.mark.parametrize(
    "value",
    [Thresholds(), _RECORD, _PAIR, _RESULT, MatchReport((_RESULT,), "v1")],
    ids=lambda value: type(value).__name__,
)
def test_fields_are_read_only(value):
    for name in value.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    assert value == type(value)(*(getattr(value, n) for n in value.__match_args__))


def test_thresholds_have_no_route_that_skips_validation():
    # a NamedTuple's _make and _replace build an instance without calling
    # __init__, so without its checks
    for route in ("_make", "_replace"):
        assert not hasattr(Thresholds(), route), route


def test_thresholds_class_defaults_are_the_instance_defaults():
    defaults = Thresholds()
    for name in Thresholds.__match_args__:
        assert getattr(Thresholds, name) == getattr(defaults, name)
    assert defaults == Thresholds(0.01, 0.009, 0.9)
    assert hash(defaults) == hash(Thresholds(0.01, 0.009, 0.9))
    assert defaults != Thresholds(wup_threshold=0.5)
    assert repr(defaults) == (
        "Thresholds(r_threshold=0.01, fallback_threshold=0.009, wup_threshold=0.9)"
    )


def test_instance_sets_share_no_dict():
    first, second = InstanceSet(), InstanceSet()
    first.instances["sun"] = _RECORD
    assert second.instances == {}
    assert not second and len(first) == 1
    assert first == InstanceSet({"sun": _RECORD}) != second
    assert repr(second) == "InstanceSet(instances={})"


def test_run_config_coerces_paths_and_keeps_its_default_thresholds():
    cfg = RunConfig("v", "q", "m.tsv", "t.tsv")
    assert cfg.vendors_dir == Path("v")
    assert cfg.thresholds == Thresholds()
    with pytest.raises(AttributeError):
        cfg.thresholds.r_threshold = 0.5
    assert RunConfig("v", "q", "m.tsv", "t.tsv").thresholds.r_threshold == 0.01
    assert cfg == RunConfig("v", "q", "m.tsv", "t.tsv", Thresholds(), "text", True)
    assert cfg != RunConfig("v", "q", "m.tsv", "t.tsv", output_format="json")
    assert repr(cfg).startswith("RunConfig(vendors_dir=")
    with pytest.raises(ValueError, match="output format"):
        RunConfig("v", "q", "m.tsv", "t.tsv", output_format="xml")
