import inspect

import pytest

from imgflib import apps, fading, incomplete, specfun


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """Every gamma-mixture kernel call made through incomplete, apps or
    fading, as a dict of its named arguments (defaults filled in)."""
    calls = []
    real = specfun._log_mixture_sum
    signature = inspect.signature(real)

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        return real(*args, **kwargs)

    for module in (incomplete, apps, fading):
        monkeypatch.setattr(module, "_log_mixture_sum", recording)
    return calls
