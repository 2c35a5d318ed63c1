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

``certify`` decides with the same ``hinf_norm`` as the searches, so it cannot
see a gain read too low. Two more properties check both answers against a
gain refined at 30 digits (``_refined_gain``) instead, on the same draws and
on nine pinned inputs where deciding each probe by the level set's sign test
alone moves the rate, seven of them to a loop whose refined gain exceeds the
threshold.
"""

import sys
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _refined_gain
from freqcert.certify import (
    RHO_PROBE,
    RHO_TOL,
    CertificationQuery,
    best_rate,
    certify,
    gain_threshold,
    max_learning_rate,
)
from freqcert.operators import SectorParams
from freqcert.transfer import MethodSpec, build_transfer, complementary_sensitivity, rho_scale

SEARCHES = settings(derandomize=True, database=None, max_examples=150, deadline=None)
ORACLE = settings(SEARCHES, max_examples=100)


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


# Generated hgd and general searches whose rate moves when the level set's
# sign test alone decides each probe; see the module docstring.
PINNED = [
    (MethodSpec("hgd", eta=0.0049275959112275005, a=(0.6848245732068954, 0.1399239010477109)),
     SectorParams(0.0025158591203635577, 0.01747161380868225, 0.09849643292794512)),
    (MethodSpec("general", eta=0.0011919182728926932,
                a=(1.4529813211102002e-264, 0.33750082219319255, 0.5963791267638772,
                   0.46330270647416927, 3.074251375757768e-203, 0.21781728983716753,
                   -2.937468534936074e-298, 1.3038927486031237e-256, -0.7583969801197656,
                   0.5889057030497613, -6.476954299589309e-18, -6.395682366996823e-267),
                b=(0.11286498754475284, 0.09474594257819248, 0.07866112287249799,
                   0.12355516857124321, 0.31068869257567444, 0.037597898109664914,
                   0.01132477387303154, 0.005846261271988478, 0.0077912141532127605,
                   0.1004342155708352, 0.101484969960646, 0.015004752918259904)),
     SectorParams(0.0043036384316394345, 0.006460995085565561, 0.1754047818147927)),
    (MethodSpec("general", eta=0.005742139214581668,
                a=(0.8052268247044543, -0.028739141684422487, 0.9718195197942854,
                   0.28922640593323634, -0.949953689314645),
                b=(0.3834960328383522, 0.05195252084654378, 0.16666984912271884,
                   0.1664552294309425, 0.2314263677614427)),
     SectorParams(0.0019312105309202054, 0.003557180672517034, 0.26952476594671965)),
    (MethodSpec("general", eta=0.0018027436678419446,
                a=(0.034091031536223726, -0.3553097498146536, 0.8313382002923799,
                   0.42950653457897636, 0.02225208717698912, 0.626187938479007),
                b=(0.4612081950364938, 0.3335833912400625, 0.027749854640978962,
                   0.14383653241498776, 0.03294983833247042, 0.0006721883350065952)),
     SectorParams(0.006568899473517856, 0.179889525689728, 0.022626370661681237)),
    (MethodSpec("hgd", eta=0.0011689120692128417,
                a=(5.2226541389237804e-207, 6.281306382107612e-25, -2.755212746008189e-223,
                   -1.3246367575482176e-23, -3.9303419896086916e-281, 1.1750799012902933e-192,
                   1.308374329214985e-16, 0.4425718013878297, 0.6791439750400403,
                   1.9193783856752883e-28)),
     SectorParams(0.0018578429488054172, 0.0027101592867029766, 0.15480830646543278)),
    (MethodSpec("hgd", eta=0.0037054397630689084,
                a=(0.8226341193706481, -0.30772933458562224, -0.877779100969128,
                   -0.1911072265005227, -3.0457385125711764e-95, -0.3137702924849899,
                   0.7442385750716558, 8.525012621996602e-140, 4.381475033756938e-67,
                   0.13037084472250804, -2.923599190516126e-61)),
     SectorParams(0.1326443639777982, 0.5492919760382083, 0.16407983273243612)),
    (MethodSpec("general", eta=0.032192110114523866,
                a=(0.5716832360695148, -0.4001830554268466, -0.8223343377557806,
                   -0.23179730465468462, -0.08265608394262558, -0.5676912477537512,
                   -0.30305163337335483, 0.938031249733412, 0.2841904967653648,
                   0.8278094685773474),
                b=(0.012730545602673487, 0.026669895860335937, 0.19124968800823075,
                   0.01724562580839704, 0.06394798561995746, 0.15107089884432123,
                   0.04922858388032338, 0.020634520019147083, 0.07807399696388441,
                   0.38914825939272923)),
     SectorParams(0.0033342412778453946, 0.004003324153430765, 0.09239081212541217)),
    (MethodSpec("hgd", eta=0.006987006384918858,
                a=(-3.315325947887908e-188, 0.38077895126499683, -1.518370404395421e-244,
                   -1.5447761831441377e-215, -1.6136058913029823e-123, 2.2488826707619683e-127,
                   9.436474744710423e-245, 3.887629711941824e-165)),
     SectorParams(0.0039154567804003245, 0.008260158476807864, 0.12138237059156247)),
    (MethodSpec("general", eta=0.011271548086635169,
                a=(-1.5052513988430982e-47, 9.82065554205222e-79, -1.83045690873556e-251,
                   -5.3875210725408256e-34, 0.21534925276494254),
                b=(0.3587170161070973, 0.23003861002919376, 0.030722420943814218,
                   0.3043608592407395, 0.07616109367915531)),
     SectorParams(0.010368651193482873, 0.06440726277964559, 0.033383446649151244)),
]


def _pinned(test):
    for method, sector in PINNED:
        test = example((method, sector, False))(test)
    return test


def _below_threshold(method, sector, rho):
    """The loop's gain at rho, refined at 30 digits, is below the threshold
    to within a relative 1e-12."""
    shifted = complementary_sensitivity(build_transfer(method), (sector.mu + sector.L) / 2.0)
    return _refined_gain(rho_scale(shifted, rho)) < gain_threshold(sector) * (1.0 + 1e-12)


@ORACLE
@given(SEARCH_INPUTS)
@_pinned
def test_a_best_rate_is_below_the_refined_gain(search):
    method, sector, allow = search
    rho = best_rate(method, sector, allow_improper=allow)
    if rho is not None:
        assert _below_threshold(method, sector, rho)


@ORACLE
@given(SEARCH_INPUTS)
@_pinned
def test_a_max_learning_rate_step_is_below_the_refined_gain(search):
    method, sector, allow = search
    step = max_learning_rate(method, sector, allow_improper=allow)
    if step is not None:
        assert _below_threshold(replace(method, eta=step), sector, RHO_PROBE)
