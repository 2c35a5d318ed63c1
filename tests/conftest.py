import numpy as np
import pytest


def _schur_recursion_stable(p, margin: float = 0.0) -> bool:
    """Reference Schur test on coefficients alone: every root of ``p`` lies
    strictly inside radius 1 - margin.

    Classic coefficient-shrinking recursion: scale the roots by 1/(1 - margin),
    make the polynomial monic, then strip one degree per round, rejecting
    whenever the trailing (reflection) coefficient reaches 1 in magnitude.
    """
    limit = 1.0 - margin
    scaled = np.asarray(p.coeffs) * limit ** np.arange(len(p.coeffs))
    c = scaled[::-1] / scaled[-1]
    while c.size > 1:
        k = c[-1]
        if not np.isfinite(k) or abs(k) >= 1.0:
            return False
        c = (c - k * c[::-1])[:-1] / (1.0 - k * k)
    return True


@pytest.fixture
def schur_recursion():
    """The reference oracle ``is_schur`` is checked against."""
    return _schur_recursion_stable
