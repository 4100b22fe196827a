"""Shared test configuration.

A conftest at the tests root guarantees this directory is on sys.path, so
the exact-arithmetic oracle module imports the same way no matter where
pytest is invoked from.

A failing hypothesis property reports its falsifying example through
hypothesis.extra._patching, which imports libcst, and libcst's use of
mypy_extensions.TypedDict raises a DeprecationWarning on import.  Under
`python -W error` that warning would end the run in an internal error in
place of the report, so the module is imported once here with that one
warning ignored for that one import; every other warning filter stands.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis reports without it
        pass
