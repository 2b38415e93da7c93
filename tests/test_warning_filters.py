"""The pytest configuration fails a run on deprecations raised from qfridge code."""

import pytest


def _warn_from(module_name, category):
    # A warning is attributed to the module whose code calls warnings.warn,
    # as numpy attributes its deprecations to the caller of the old API.
    code = compile("import warnings\nwarnings.warn('old API', category)", "<caller>", "exec")
    exec(code, {"__name__": module_name, "category": category})


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
@pytest.mark.parametrize("module_name", ["qfridge", "qfridge.oracle", "qfridge.cli"])
def test_deprecation_from_qfridge_is_an_error(module_name, category):
    with pytest.raises(category, match="old API"):
        _warn_from(module_name, category)

