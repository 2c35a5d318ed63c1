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
from .stability import Polynomial, is_schur
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


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def contains(self, z: complex) -> bool:
        return abs(complex(z) - self.center) < self.radius


def gain_threshold(sector: SectorParams) -> float:
    """Largest admissible controller gain over the (noisy) sector."""
    return 1.0 / ((sector.L - sector.mu) / 2.0 + sector.L * sector.delta)


def sector_disk(sector: SectorParams) -> Disk:
    """Origin-centered disk the shifted controller's frequency response must
    stay inside; its radius equals :func:`gain_threshold`."""
    return Disk(center=0.0, radius=gain_threshold(sector))


def _shift(sector: SectorParams) -> float:
    return (sector.mu + sector.L) / 2.0


def _scaled_loop(method: MethodSpec, sector: SectorParams, rho: float) -> RationalTF:
    k = build_transfer(method)
    return rho_scale(complementary_sensitivity(k, _shift(sector)), rho)


def _stable_gain(loop: RationalTF) -> float | None:
    """Gain of a scaled loop, or None when its denominator is not Schur-stable."""
    try:
        gain, _ = hinf_norm(loop)
    except UnstableSystemError:
        return None
    return gain


def certify(q: CertificationQuery) -> CertificationResult:
    """Run the full pipeline: properness, stability, gain, threshold."""
    k = build_transfer(q.method)
    proper_ok = k.strictly_proper or q.allow_non_strictly_proper
    loop = rho_scale(complementary_sensitivity(k, _shift(q.sector)), q.rho)
    gain = _stable_gain(loop)
    stable_ok = gain is not None
    threshold = gain_threshold(q.sector)
    margin = None if gain is None else threshold - gain

    certified = bool(proper_ok and stable_ok and gain < threshold)
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


def best_rate(
    method: MethodSpec,
    sector: SectorParams,
    tol: float = RHO_TOL,
    allow_improper: bool = False,
) -> float | None:
    """Smallest certified rate, by bisection; None when nothing certifies
    even arbitrarily close to 1.

    The shifted loop is built once; each probe only rescales it by rho and
    runs the stability and gain checks, exactly as :func:`certify` would.
    The returned rate certifies, since ``hi`` only ever moves to a certified
    probe. Bisection needs certification to be monotone in rho, and it is.
    Let N/D be the shifted loop and gamma the gain threshold. Certified at r
    means |delta N| < |D| on |z| = r for every |delta| <= 1/gamma, so by
    Rouche's theorem D + delta N has no root with |z| >= r. A point z with
    |z| >= r and |N(z)| >= gamma |D(z)| would give one, at
    delta = -D(z)/N(z); so the loop certifies on every larger circle too.
    ``test_certification_is_monotone_above_best_rate`` checks this on all
    nine families.
    """
    k = build_transfer(method)
    shifted = complementary_sensitivity(k, _shift(sector))
    if not (k.strictly_proper or allow_improper):
        return None
    threshold = gain_threshold(sector)

    def certified_at(rho: float) -> bool:
        gain = _stable_gain(rho_scale(shifted, rho))
        return gain is not None and gain < threshold

    hi = RHO_PROBE
    if not certified_at(hi):
        return None
    lo = min(tol, 1e-6)
    if certified_at(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if certified_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def max_learning_rate(
    method: MethodSpec,
    sector: SectorParams,
    tol: float | None = None,
    allow_improper: bool = False,
) -> float | None:
    """Largest step size (to width ``tol``) whose method still certifies at
    some rate below 1. ``method`` acts as a template; its ``eta`` field is
    swept over (0, 4/mu]. Returns None when no step size certifies."""
    if method.eta is None:
        raise ValueError("method family must carry a learning-rate field")
    if tol is None:
        tol = 1e-6 / sector.L

    def certifiable(eta: float) -> bool:
        q = CertificationQuery(
            replace(method, eta=eta), sector, RHO_PROBE, allow_improper
        )
        return certify(q).certified

    cap = 4.0 / sector.mu
    if certifiable(cap):
        return cap
    hi = cap
    eta = cap
    lo = None
    for _ in range(80):
        eta /= 2.0
        if certifiable(eta):
            lo = eta
            break
        hi = eta
    if lo is None:
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if certifiable(mid):
            lo = mid
        else:
            hi = mid
    return lo


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


def circle_criterion(
    method: MethodSpec,
    sector: SectorParams,
    rho: float = 1.0,
    n_points: int = 256,
) -> tuple[bool, list[tuple[float, complex]]]:
    """Sample the shifted controller on the unit circle and test the disk
    condition: stable and every sample strictly inside the sector disk."""
    if n_points < 64:
        raise ValueError("need at least 64 sample points")
    loop = _scaled_loop(method, sector, rho)
    den = Polynomial(loop.den)
    stable = den.degree < 1 or is_schur(den, 0.0)
    disk = sector_disk(sector)
    omegas = np.linspace(-np.pi, np.pi, n_points)
    samples = [(float(w), evaluate(loop, np.exp(1j * w))) for w in omegas]
    passes = stable and all(disk.contains(v) for _, v in samples)
    return passes, samples
