"""The suite's warning filters: corrbox's own warnings are errors, and a
third-party one that would stop the session is not."""

import importlib.util
import sys
import warnings

import pytest


def test_patch_writer_imports_cleanly():
    # On a failing property test hypothesis imports its patch writer, which
    # imports libcst, whose import warns through mypy_extensions.TypedDict.
    # As an error inside pytest's hook that ends the session, so the tests
    # after the failure never run.  The import must be libcst's first, and
    # pytest.importorskip would make it with every warning silenced.
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    if "libcst" in sys.modules:
        pytest.skip("libcst was imported before this test")
    import hypothesis.extra._patching  # noqa: F401


def test_other_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("a corrbox deprecation", DeprecationWarning)
