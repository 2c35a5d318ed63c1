"""Generated-input properties of ``best_rate`` and ``max_learning_rate``.

The seeded corpora elsewhere draw moderate, Dirichlet-like weights. These
draws reach what they miss: hgd and general methods with 1-12 weights in
[-1, 1], some of them scaled by 1e-12 to 1e-300, on sectors with L/mu up to
1e6 and delta up to 0.3 (few of which certify) or with L/mu up to 100 and
delta below mu/L (many of which do); and the eta templates gd, ogd, pegd, rgd
and pp on sectors with mu from 1e-300 to 1e300. ``certify`` is the oracle.
None of these families can raise the searches' documented ``ValueError``s
(an ill-posed shifted loop, a template without a step field), so neither
search may raise at all. The runs are derandomized and keep no database, so
the suite is deterministic and writes nothing.
"""

import sys
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from freqcert.certify import (
    RHO_PROBE,
    RHO_TOL,
    CertificationQuery,
    best_rate,
    certify,
    max_learning_rate,
)
from freqcert.operators import SectorParams
from freqcert.transfer import MethodSpec

SEARCHES = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _weights(draw, n):
    a = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    if draw(st.booleans()):  # ill-scaled: some weights times 1e-12 to 1e-300
        scales = st.one_of(st.just(1.0), _log_uniform(-300.0, -12.0))
        a = [w * s for w, s in zip(a, draw(st.lists(scales, min_size=n, max_size=n)))]
    return tuple(a)


@st.composite
def _generated(draw, narrow):
    """An hgd or general method, with allow_improper False, on its sector."""
    n = draw(st.integers(1, 12))
    eta = draw(_log_uniform(-3.0, 0.0))
    a = draw(_weights(n))
    if draw(st.booleans()):
        b = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        method = MethodSpec("general", eta=eta, a=a, b=tuple(v / sum(b) for v in b))
    else:
        method = MethodSpec("hgd", eta=eta, a=a)
    mu = draw(_log_uniform(-3.0, 0.0))
    L = mu * draw(_log_uniform(0.005, 2.0 if narrow else 6.0))
    delta = draw(st.floats(0.0, 0.99)) * mu / L if narrow else draw(st.floats(0.0, 0.3))
    return method, SectorParams(mu, L, delta), False


@st.composite
def _templates(draw):
    """An eta template on a sector anywhere from 1e-300 to 1e300."""
    family = draw(st.sampled_from(("gd", "ogd", "pegd", "rgd", "pp")))
    mu = draw(_log_uniform(-300.0, 300.0))
    L = mu * draw(_log_uniform(0.005, 2.0))
    method = MethodSpec(family, eta=draw(st.floats(0.05, 1.0)) / L)
    return method, SectorParams(mu, L, draw(st.floats(0.0, 0.99)) * mu / L), family == "pp"


SEARCH_INPUTS = st.one_of(_generated(narrow=False), _generated(narrow=True), _templates())


def _certifies(method, sector, rho, allow):
    return certify(CertificationQuery(method, sector, rho, allow)).certified


@SEARCHES
@given(SEARCH_INPUTS)
def test_a_best_rate_certifies_and_is_tight(search):
    method, sector, allow = search
    rho = best_rate(method, sector, allow_improper=allow)
    if rho is None:
        return
    assert _certifies(method, sector, rho, allow)
    if rho > RHO_TOL:
        assert not _certifies(method, sector, rho - RHO_TOL, allow)


@SEARCHES
@given(SEARCH_INPUTS)
def test_a_max_learning_rate_step_is_the_largest(search):
    # the cap's failed probe settles the top gap; this checks it on the cap
    # itself and just above the step, within the searched (0, cap]
    method, sector, allow = search
    step = max_learning_rate(method, sector, allow_improper=allow)
    if step is None:
        return
    assert _certifies(replace(method, eta=step), sector, RHO_PROBE, allow)
    cap = min(4.0 / sector.mu, sys.float_info.max)
    if step != cap:
        assert not _certifies(replace(method, eta=cap), sector, RHO_PROBE, allow)
        above = min(step * (1.0 + 1e-5), cap)
        assert not _certifies(replace(method, eta=above), sector, RHO_PROBE, allow)
