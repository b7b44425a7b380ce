"""Hooks shared by every test module."""

import pytest


@pytest.hookimpl(hookwrapper=True, trylast=True)
def pytest_runtest_makereport(item, call):
    """Drop hypothesis's list of falsifying examples once the report is made.

    From that list, hypothesis's own report hook (which runs after this one)
    writes a patch that adds them as ``@example`` lines, and to do so it
    imports libcst.  That import raises a DeprecationWarning from
    ``mypy_extensions``; under ``-W error``, as in CI, a failing property
    then ended in a pytest INTERNALERROR instead of its falsifying example.
    The example is still printed with the failure; only the patch is lost.
    """
    yield
    item.__dict__.pop("_hypothesis_failing_examples", None)  # where hypothesis keeps the list
