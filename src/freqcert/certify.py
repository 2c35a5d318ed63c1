"""Small-gain certification of linear convergence, with rate and step searches.

A method certifies at rate rho over a sector when its shifted controller
K' = K/(1 - hK), h = (mu + L)/2, once scaled by rho, is Schur-stable with
supremum gain below 1 / ((L - mu)/2 + L delta). The noiseless threshold is
2/(L - mu); relative noise of level delta shrinks it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import cache

import numpy as np

from .gain import UnstableSystemError, hinf_norm, level_radius, step_margin
from .operators import SectorParams, json_number
# is_schur stays bound here: the benchmark tracer wraps freqcert.certify.is_schur
from .stability import is_schur  # noqa: F401
from .transfer import (
    MethodSpec,
    RationalTF,
    build_transfer,
    complementary_sensitivity,
    evaluate,
    rho_scale,
)

RHO_PROBE = 1.0 - 1e-6
RHO_TOL = 1e-6
_PARAM_TOL = 1e-9


@dataclass(frozen=True)
class CertificationQuery:
    method: MethodSpec
    sector: SectorParams
    rho: float
    allow_non_strictly_proper: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rho", json_number(self.rho, "rho"))
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")


@dataclass(frozen=True)
class CertificationResult:
    proper_ok: bool
    stable_ok: bool
    gain: float | None
    threshold: float
    margin: float | None
    certified: bool
    diagnostics: str

    def to_json(self) -> dict:
        return asdict(self)


def gain_threshold(sector: SectorParams) -> float:
    """Largest admissible controller gain over the (noisy) sector."""
    return 1.0 / ((sector.L - sector.mu) / 2.0 + sector.L * sector.delta)


def _shift(sector: SectorParams) -> float:
    return (sector.mu + sector.L) / 2.0


def _shifted_loop(method: MethodSpec, sector: SectorParams) -> tuple[RationalTF, RationalTF]:
    """The method's K and its shifted loop K' = K/(1 - hK), ready for rho scaling."""
    k = build_transfer(method)
    return k, complementary_sensitivity(k, _shift(sector))


def _certified_at(shifted: RationalTF, rho: float, threshold: float) -> tuple:
    """The stability and gain checks of one probe: whether the loop scaled by
    rho is Schur-stable with gain below ``threshold``, that gain, and why
    there is none ("" when there is one). A loop whose scaling by rho leaves
    the float range counts as uncertified, which is conservative. Properness
    is the caller's third check."""
    try:
        gain, _ = hinf_norm(rho_scale(shifted, rho))
    except UnstableSystemError:
        return False, None, "is unstable"
    except OverflowError:
        return False, None, "leaves the float range"
    return gain < threshold, gain, ""


def certify(q: CertificationQuery) -> CertificationResult:
    """Run the full pipeline: properness, stability, gain, threshold."""
    k, shifted = _shifted_loop(q.method, q.sector)
    proper_ok = k.strictly_proper or q.allow_non_strictly_proper
    threshold = gain_threshold(q.sector)
    gain_ok, gain, failure = _certified_at(shifted, q.rho, threshold)
    stable_ok = gain is not None
    margin = None if gain is None else threshold - gain

    certified = bool(proper_ok and gain_ok)
    if not proper_ok:
        diagnostics = "transfer function is not strictly proper"
    elif not stable_ok:
        diagnostics = f"scaled loop {failure} at rho={q.rho:.9g}"
    elif certified:
        diagnostics = f"gain {gain:.9g} below threshold {threshold:.9g}"
    else:
        diagnostics = f"gain {gain:.9g} exceeds threshold {threshold:.9g}"
    return CertificationResult(
        proper_ok=proper_ok,
        stable_ok=stable_ok,
        gain=gain,
        threshold=threshold,
        margin=margin,
        certified=certified,
        diagnostics=diagnostics,
    )


def _bisect(certified, good: float, bad: float, width: float) -> float:
    """Halve the bracket between a certified ``good`` and an uncertified
    ``bad`` until they lie within ``width``, or no float lies between them;
    returns the certified end."""
    while abs(good - bad) > width:
        mid = 0.5 * (good + bad)
        if mid in (good, bad):  # the float spacing there exceeds width
            break
        if certified(mid):
            good = mid
        else:
            bad = mid
    return good


def _rungs(edge: float, stop: float) -> list[float]:
    """The ladder edge (1 +- 1e-12 8^k), k = 0 .. 6, stepping from ``edge``
    toward ``stop``, each rung strictly short of ``stop``. The relative
    offsets stay below 2.6e-7, under ``RHO_TOL``."""
    s = 1.0 if stop > edge else -1.0  # a unit sign, so (stop - r) s cannot underflow
    rungs = (edge * (1.0 + s * 1e-12 * 8.0**k) for k in range(7))
    return [r for r in rungs if (stop - r) * s > 0.0]


def _refine(certified, bad: float, rungs: list[float], stop: float, width: float) -> float | None:
    """The confirming half of both searches: the first of ``rungs``, a
    ladder stepping from the uncertified edge ``bad`` toward ``stop``, that
    certifies. Should none, and ``stop`` certifies, :func:`_bisect` brackets
    the answer between ``stop`` and the last rung (``bad`` when there is no
    rung) to ``width``; None when ``stop`` fails too."""
    for rung in rungs:
        if certified(rung):
            return rung
        bad = rung
    if not certified(stop):
        return None
    return _bisect(certified, stop, bad, width)


def best_rate(
    method: MethodSpec,
    sector: SectorParams,
    allow_improper: bool = False,
) -> float | None:
    """Smallest certified rate, to width ``RHO_TOL``; None when nothing
    certifies even arbitrarily close to 1.

    Let N/D be the shifted loop and gamma the gain threshold. Certified at r
    means |delta N| < |D| on |z| = r for every |delta| <= 1/gamma, so by
    Rouche's theorem D + delta N has no root with |z| >= r. A point z with
    |z| >= r and |N(z)| >= gamma |D(z)| would give one, at
    delta = -D(z)/N(z); so the loop certifies on every larger circle too.
    ``test_certification_is_monotone_above_best_rate`` checks this on all
    nine families. Conversely, the roots of D lie in that level set, and the
    gain on a circle outside it stays below gamma: the loop certifies at r
    exactly when r > rho*, the largest |z| of the level set
    (:func:`~freqcert.gain.level_radius`).

    So the level set decides the search before any probe. rho* is computed
    up to the cap ``RHO_PROBE``; when it reaches the cap, nothing certifies
    at ``RHO_PROBE`` and the search returns None without a probe. Otherwise
    :func:`_refine` confirms it from above: the ladder rho* (1 + 1e-12 8^k),
    k = 0 .. 6, each rung strictly below ``RHO_PROBE`` (:func:`_rungs`), or
    ``RHO_TOL`` alone when rho* lies below it, with ``RHO_PROBE`` as the
    fallback's stop. The returned rate has passed a probe: one probe on
    every certified search the benchmark runs. When the ladder stopped short
    of ``RHO_PROBE``, the fallback's bracket is already narrower than
    ``RHO_TOL`` and ``RHO_PROBE`` is returned at once. The shifted loop is
    built once; each probe only rescales it by rho and runs the stability
    and gain checks, exactly as :func:`certify` would. A loop with a
    coefficient beyond the float range is uncertified, as every probe of it
    would be.
    """
    k, shifted = _shifted_loop(method, sector)
    if not (k.strictly_proper or allow_improper):
        return None
    if not all(map(math.isfinite, shifted.num + shifted.den)):
        return None
    threshold = gain_threshold(sector)

    def certified(rho: float) -> bool:
        return _certified_at(shifted, rho, threshold)[0]

    rho = level_radius(shifted, threshold, cap=RHO_PROBE)
    if rho >= RHO_PROBE:
        return None
    rungs = [RHO_TOL] if rho < RHO_TOL else _rungs(rho, RHO_PROBE)
    return _refine(certified, rho, rungs, RHO_PROBE, RHO_TOL)


def max_learning_rate(
    method: MethodSpec,
    sector: SectorParams,
    allow_improper: bool = False,
) -> float | None:
    """Largest step size whose method still certifies at ``RHO_PROBE``, up to
    a relative 2.6e-7 below the exact one (or width 1e-6 / L in the
    fallback of :func:`_refine`). ``method`` acts as a template; its ``eta``
    field is swept over (0, 4/mu], a cap clamped to the largest float when a
    subnormal mu overflows it. Returns None when no step size certifies.

    The step size scales every numerator coefficient of K and no denominator
    coefficient: K = eta K1. So K1 is built once and decides properness,
    and each probe scales its numerator. The verdict changes only at a step
    where the curve d1/(eta n1) of K1 = n1/d1 touches the disk outside which
    the loop certifies; a root of the loop crossing the circle puts the
    curve at h, inside it. Those steps, :func:`~freqcert.gain.step_margin`,
    split (0, cap] into gaps certified throughout or nowhere. It drops a
    touch at which another frequency's curve is inside the disk, which
    merges two gaps certified nowhere; at a spurious touch it keeps, the
    gain equals the threshold, so that touch lies in no certified interval.
    The cap lies in the top gap, so its failed probe settles that gap. The
    search then probes each lower gap's middle from the top down, from the
    gap below the last touch under the cap (None at once when no touch lies
    below the cap). From the upper edge e* of the first gap whose middle
    certifies, :func:`_refine` confirms the step from below: the ladder
    e* (1 - 1e-12 8^k), k = 0 .. 6, above that middle (:func:`_rungs`),
    with the middle as the fallback's stop. Probes are cached, so no step is
    probed twice. The returned step has passed a probe."""
    if method.eta is None:
        raise ValueError("method family must carry a learning-rate field")
    unit = build_transfer(replace(method, eta=1.0))
    if not (unit.strictly_proper or allow_improper):
        return None
    h = _shift(sector)
    threshold = gain_threshold(sector)

    @cache  # _refine's fallback asks again for the gap middle that certified
    def certifiable(eta: float) -> bool:
        k = RationalTF(tuple(eta * c for c in unit.num), unit.den)
        return _certified_at(complementary_sensitivity(k, h), RHO_PROBE, threshold)[0]

    cap = min(4.0 / sector.mu, sys.float_info.max)
    if certifiable(cap):
        return cap
    touches = step_margin(unit, RHO_PROBE, h, 1.0 / threshold)
    edges = [0.0, *(e for e in touches if e < cap)]  # the cap's probe settled the top gap
    for lo, bad in reversed(list(zip(edges, edges[1:]))):
        eta = lo + 0.5 * (bad - lo)  # lo + bad may overflow
        if certifiable(eta):
            break
    else:
        return None
    return _refine(certifiable, bad, _rungs(bad, eta), eta, 1e-6 / sector.L)


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _PARAM_TOL * max(abs(x), abs(y), 1.0)


def closed_form(method: MethodSpec, sector: SectorParams) -> float | None:
    """Known analytic rate for the parameter regimes with a closed form.

    Used as an oracle against :func:`certify` and :func:`best_rate`; returns
    None outside every covered regime.
    """
    mu, L, delta = sector.mu, sector.L, sector.delta
    lam = mu / L
    fam = method.family
    if fam == "gd":
        if _close(method.eta, 1.0 / L) and delta < lam - _PARAM_TOL:
            return 1.0 - lam + delta
        if delta == 0.0 and _close(method.eta, 2.0 / (L + mu)):
            return (L - mu) / (L + mu)
        return None
    if fam == "ogd":
        if delta == 0.0:
            eps = 1.0 - 1.5 * L * method.eta
            if _PARAM_TOL < eps < 1.0 - _PARAM_TOL:
                return 1.0 - (2.0 / 3.0) * eps * (1.0 - eps) * lam
            return None
        if _close(method.eta, 0.5 / L) and delta <= lam / 3.0 + _PARAM_TOL:
            return 1.0 - lam / 4.0
        return None
    if fam == "gogd" and delta == 0.0:
        if _close(method.alpha, 0.5 / L):
            ell = 2.0 * L * method.beta
            if -_PARAM_TOL <= ell <= 1.0 + _PARAM_TOL:
                return 1.0 - lam / 4.0
            return None
        if _close(method.alpha, 1.0 / L):
            eps = 2.0 * L * method.beta
            if _PARAM_TOL < eps < 1.0 - _PARAM_TOL:
                return 1.0 - eps * (1.0 - eps) * lam / 2.0
        return None
    if fam == "pp" and delta == 0.0:
        return 1.0 / (1.0 + mu * method.eta)
    return None


def frequency_response(
    method: MethodSpec,
    sector: SectorParams,
    rho: float = 1.0,
    n_points: int = 256,
) -> list[tuple[float, complex]]:
    """Samples (omega, K'(e^{j omega})) of the shifted loop scaled by rho, at
    ``n_points`` frequencies evenly spaced over [-pi, pi]. They are what
    ``freqcert nyquist`` prints; only :func:`certify` decides a rate."""
    if n_points < 64:
        raise ValueError("need at least 64 sample points")
    loop = rho_scale(_shifted_loop(method, sector)[1], rho)
    omegas = np.linspace(-np.pi, np.pi, n_points)
    return [(float(w), evaluate(loop, np.exp(1j * w))) for w in omegas]
