"""Small-gain certification of linear convergence, with rate and step searches.

A method certifies at rate rho over a sector when its shifted controller
K' = K/(1 - hK), h = (mu + L)/2, once scaled by rho, is Schur-stable with
supremum gain below 1 / ((L - mu)/2 + L delta). The noiseless threshold is
2/(L - mu); relative noise of level delta shrinks it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gain import UnstableSystemError, hinf_norm
from .operators import SectorParams
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
        return {
            "proper_ok": self.proper_ok,
            "stable_ok": self.stable_ok,
            "gain": self.gain,
            "threshold": self.threshold,
            "margin": self.margin,
            "certified": self.certified,
            "diagnostics": self.diagnostics,
        }


def gain_threshold(sector: SectorParams) -> float:
    """Largest admissible controller gain over the (noisy) sector."""
    return 1.0 / ((sector.L - sector.mu) / 2.0 + sector.L * sector.delta)


def _shift(sector: SectorParams) -> float:
    return (sector.mu + sector.L) / 2.0


def _shifted_loop(method: MethodSpec, sector: SectorParams) -> tuple[RationalTF, RationalTF]:
    """The method's K and its shifted loop K' = K/(1 - hK), ready for rho scaling."""
    k = build_transfer(method)
    return k, complementary_sensitivity(k, _shift(sector))


def _certified_at(
    shifted: RationalTF, rho: float, threshold: float
) -> tuple[bool, float | None]:
    """The stability and gain checks of one probe: whether the loop scaled by
    rho is Schur-stable with gain below ``threshold``, and that gain (None
    when unstable). Properness is the caller's third check."""
    try:
        gain, _ = hinf_norm(rho_scale(shifted, rho))
    except UnstableSystemError:
        return False, None
    return gain < threshold, gain


def certify(q: CertificationQuery) -> CertificationResult:
    """Run the full pipeline: properness, stability, gain, threshold."""
    k, shifted = _shifted_loop(q.method, q.sector)
    proper_ok = k.strictly_proper or q.allow_non_strictly_proper
    threshold = gain_threshold(q.sector)
    gain_ok, gain = _certified_at(shifted, q.rho, threshold)
    stable_ok = gain is not None
    margin = None if gain is None else threshold - gain

    certified = bool(proper_ok and gain_ok)
    if not proper_ok:
        diagnostics = "transfer function is not strictly proper"
    elif not stable_ok:
        diagnostics = f"scaled loop is unstable at rho={q.rho:.9g}"
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
    ``bad`` until they lie within ``width``; returns the certified end."""
    while abs(good - bad) > width:
        mid = 0.5 * (good + bad)
        if certified(mid):
            good = mid
        else:
            bad = mid
    return good


def best_rate(
    method: MethodSpec,
    sector: SectorParams,
    allow_improper: bool = False,
) -> float | None:
    """Smallest certified rate, to width ``RHO_TOL``, by bisection; None when
    nothing certifies even arbitrarily close to 1.

    The shifted loop is built once; each probe only rescales it by rho and
    runs the stability and gain checks, exactly as :func:`certify` would.
    The returned rate certifies, since :func:`_bisect` moves its certified
    end only to a certified probe. Bisection needs certification to be
    monotone in rho, and it is.
    Let N/D be the shifted loop and gamma the gain threshold. Certified at r
    means |delta N| < |D| on |z| = r for every |delta| <= 1/gamma, so by
    Rouche's theorem D + delta N has no root with |z| >= r. A point z with
    |z| >= r and |N(z)| >= gamma |D(z)| would give one, at
    delta = -D(z)/N(z); so the loop certifies on every larger circle too.
    ``test_certification_is_monotone_above_best_rate`` checks this on all
    nine families.
    """
    k, shifted = _shifted_loop(method, sector)
    if not (k.strictly_proper or allow_improper):
        return None
    threshold = gain_threshold(sector)

    def certified(rho: float) -> bool:
        return _certified_at(shifted, rho, threshold)[0]

    if not certified(RHO_PROBE):
        return None
    if certified(RHO_TOL):
        return RHO_TOL
    return _bisect(certified, RHO_PROBE, RHO_TOL, RHO_TOL)


def max_learning_rate(
    method: MethodSpec,
    sector: SectorParams,
    allow_improper: bool = False,
) -> float | None:
    """Largest step size, to width 1e-6 / L, whose method still certifies at
    ``RHO_PROBE``. ``method`` acts as a template; its ``eta`` field is swept
    over (0, 4/mu]. Returns None when no step size certifies."""
    if method.eta is None:
        raise ValueError("method family must carry a learning-rate field")
    tol = 1e-6 / sector.L
    threshold = gain_threshold(sector)

    def certifiable(eta: float) -> bool:
        k, shifted = _shifted_loop(replace(method, eta=eta), sector)
        certified, _ = _certified_at(shifted, RHO_PROBE, threshold)
        return certified and (k.strictly_proper or allow_improper)

    cap = 4.0 / sector.mu
    if certifiable(cap):
        return cap
    bad = eta = cap
    for _ in range(80):
        eta /= 2.0
        if certifiable(eta):
            return _bisect(certifiable, eta, bad, tol)
        bad = eta
    return None


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
