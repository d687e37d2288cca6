"""Suite-wide guards."""

import mpmath
import pytest


@pytest.fixture(autouse=True)
def _mpmath_precision_unchanged():
    """Fail a test that leaves the global mpmath precision changed.

    A test that needs a wider global context uses ``mpmath.workprec``; a
    leaked width would silently change every later test that uses the
    global context.  The width is restored either way.
    """
    before = mpmath.mp.prec
    yield
    after = mpmath.mp.prec
    mpmath.mp.prec = before
    assert after == before, f"test left mpmath.mp.prec at {after}, not {before}"
