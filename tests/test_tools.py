"""The development scripts under tools/."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_digests_names_each_digest_that_differs():
    check = _load("check_digests")
    want = {"a": {"op1": "0" * 8, "op2": "1" * 8}, "b": {"op": "2" * 8}}
    got = {"a": {"op1": "0" * 8, "op2": "f" * 8, "op3": "3" * 8}}
    assert check._differences(want, got) == [
        "a: op2: differs", "a: op3: recorded, not in the checkout", "b: op: not recorded"]
    assert check._differences(want, want) == []
