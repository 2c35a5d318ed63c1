"""Scalar rational transfer functions of first-order update rules in the z-domain."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .operators import json_number, json_numbers
from .stability import COEFF_TRIM_TOL, trim

EQUAL_TOL = 1e-12

@dataclass(frozen=True)
class MethodSpec:
    """Algebraic description of a first-order method.

    Families: plain gradient step (gd), the optimistic variant using one past
    gradient (ogd), its two-parameter generalization (gogd), the implicit
    proximal step (pp), discrete proportional-integral-derivative control
    (pid), a step built from a horizon of past gradients (hgd), the same with
    past iterates mixed in (general), and the single-call extra-gradient
    variants (pegd, rgd).
    """

    family: str
    eta: float | None = None
    alpha: float | None = None
    beta: float | None = None
    kp: float | None = None
    ki: float | None = None
    kd: float | None = None
    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown method family {self.family!r}")
        required = _FAMILIES[self.family][0]
        for f in fields(self):
            if f.name == "family":
                continue
            value = getattr(self, f.name)
            if f.name in required:
                if value is None:
                    raise ValueError(f"{self.family} requires field {f.name!r}")
            elif value is not None:
                raise ValueError(f"{self.family} does not accept field {f.name!r}")
        if self.a is not None:
            object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if self.b is not None:
            object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        self._validate()

    def _validate(self):
        for f in fields(self)[1:]:  # every field after family is numeric
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if value is not None and not all(math.isfinite(v) for v in values):
                raise ValueError(f"{f.name} must be finite")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.family == "gogd":
            if not self.alpha > 0:
                raise ValueError("alpha must be positive")
            if self.beta < 0:
                raise ValueError("beta must be nonnegative")
        if self.family == "pid":
            if self.kp < 0:
                raise ValueError("kp must be nonnegative")
            if not self.ki > 0:
                raise ValueError("ki must be positive")
        if self.family in ("hgd", "general"):
            if len(self.a) < 1:
                raise ValueError("horizon must be at least 1")
        if self.family == "general":
            if len(self.b) != len(self.a):
                raise ValueError("a and b must share the horizon length")
            if abs(sum(self.b) - 1.0) > EQUAL_TOL:
                raise ValueError("iterate weights b must sum to 1")

    @classmethod
    def from_json(cls, data: dict) -> "MethodSpec":
        if not isinstance(data, dict):
            raise ValueError("method spec must be an object")
        family = data.get("family")
        if family not in _FAMILIES:
            raise ValueError(f"unknown method family {family!r}")
        allowed = set(_FAMILIES[family][0]) | {"family"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown method fields {sorted(unknown)}")
        kwargs = {}
        for key in _FAMILIES[family][0]:
            if key not in data:
                raise ValueError(f"{family} requires field {key!r}")
            read = json_numbers if key in ("a", "b") else json_number
            kwargs[key] = read(data[key], key)
        return cls(family=family, **kwargs)

    def to_json(self) -> dict:
        out = {"family": self.family}
        for key in _FAMILIES[self.family][0]:
            value = getattr(self, key)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


@dataclass(frozen=True)
class RationalTF:
    """Rational function in z with a monic denominator, every mode kept.

    ``num`` and ``den`` hold ascending-power real coefficients. Build raw
    coefficients with :meth:`from_coeffs`: it trims negligible leading
    coefficients, normalizes the leading denominator coefficient to 1 and
    rejects improper fractions with deg(num) > deg(den). It cancels nothing:
    a root shared by num and den is a mode of the method's recursion, and the
    certificate must see it. The coefficient maps
    :func:`complementary_sensitivity` and :func:`rho_scale` construct it
    directly.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    @classmethod
    def from_coeffs(cls, num, den) -> "RationalTF":
        # The numerator is cut against its own scale, so a tiny step keeps
        # every term. The denominator keeps the absolute cut: a relative one
        # could drop its leading coefficient and with it a huge pole.
        num = [float(c) for c in num]
        cut = COEFF_TRIM_TOL * max(map(abs, num), default=0.0)
        while len(num) > 1 and abs(num[-1]) <= cut:
            num.pop()
        den = trim(den)
        if abs(den[-1]) <= COEFF_TRIM_TOL:
            raise ValueError("denominator is identically zero")
        if len(num) > len(den):
            raise ValueError("numerator degree exceeds denominator degree")
        lead = den[-1]
        return cls(num=tuple(c / lead for c in num), den=tuple(c / lead for c in den))

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    @property
    def strictly_proper(self) -> bool:
        return self.num_degree < self.den_degree


@dataclass(frozen=True)
class Recursion:
    """One update rule of a historical method, in feedback with the operator.

    With s_k = F_obs(y_k) the operator value observed at the evaluation point
    y_k, the method iterates

        y_k     = sum_i e_i x_(k-i) - sum_i f_i s_(k-1-i)
        x_(k+1) = sum_i b_i x_(k-i) - sum_i c_i s_(k-i) - implicit * s_(k+1)

    A nonzero ``implicit`` observes the operator at the new iterate, which
    must then be solved for; such methods evaluate at their iterates
    (e = (1,), f = ()). :func:`build_transfer` reads K(z) off these
    coefficients and ``dynamics.run`` iterates them, so this is the one place
    that defines a family.
    """

    b: tuple[float, ...]
    c: tuple[float, ...]
    e: tuple[float, ...] = (1.0,)
    f: tuple[float, ...] = ()
    implicit: float = 0.0

    @property
    def evaluates_at_iterate(self) -> bool:
        return self.e == (1.0,) and not self.f

    @classmethod
    def of(cls, m: MethodSpec) -> "Recursion":
        return _FAMILIES[m.family][1](m)


# family -> (fields the JSON schema requires for it, its Recursion)
_FAMILIES = {
    "gd": (("eta",), lambda m: Recursion((1.0,), (m.eta,))),
    "ogd": (("eta",), lambda m: Recursion((1.0,), (2.0 * m.eta, -m.eta))),
    "gogd": (("alpha", "beta"), lambda m: Recursion((1.0,), (m.alpha + m.beta, -m.beta))),
    "pp": (("eta",), lambda m: Recursion((1.0,), (), implicit=m.eta)),
    "pid": (
        ("kp", "ki", "kd"),
        lambda m: Recursion(
            (1.0,), (-m.kp + m.ki - 2.0 * m.kd, m.kd), implicit=m.kp + m.kd
        ),
    ),
    "hgd": (("eta", "a"), lambda m: Recursion((1.0,), tuple(m.eta * ai for ai in m.a))),
    "general": (
        ("eta", "a", "b"),
        lambda m: Recursion(m.b, tuple(m.eta * ai for ai in m.a)),
    ),
    "pegd": (("eta",), lambda m: Recursion((1.0,), (m.eta,), f=(m.eta,))),
    "rgd": (("eta",), lambda m: Recursion((1.0,), (m.eta,), e=(2.0, -1.0))),
}


def _padded(p: list, n: int) -> list:
    return p + [0.0] * (n - len(p))


def build_transfer(m: MethodSpec) -> RationalTF:
    """Transfer function K(z) from observed operator values to evaluation
    points, read off the method's :class:`Recursion`.

    In w = 1/z, with beta, gamma, epsilon, phi the polynomials of the
    coefficients b, c, e, f:
    K = -[epsilon (implicit + w gamma) + w phi (1 - w beta)] / (1 - w beta).
    Multiplying through by z^d turns both into polynomials in z. Nothing is
    cancelled, so num and den keep every mode the recursion has: its
    characteristic polynomial on F(x) = lam x is den - lam num.
    """
    r = Recursion.of(m)
    den = [1.0] + [0.0 - v for v in r.b]  # 1 - w beta; a zero weight stays +0.0
    inner = [r.implicit, *r.c]  # implicit + w gamma
    if r.e != (1.0,):
        inner = list(np.convolve(r.e, inner))
    if r.f:
        tail = [0.0, *np.convolve(r.f, den)]  # w phi (1 - w beta)
        n = max(len(inner), len(tail))
        inner = [p + q for p, q in zip(_padded(inner, n), _padded(tail, n))]
    n = max(len(inner), len(den))
    num = _padded([-v for v in inner], n)
    # the coefficient of w^i becomes that of z^(n-1-i)
    return RationalTF.from_coeffs(num[::-1], _padded(den, n)[::-1])


def complementary_sensitivity(k: RationalTF, h: float) -> RationalTF:
    """K / (1 - h K) in denominator-monic form: den becomes den - h num.

    A root c shared by num and den stays a root of both, so the shifted
    loop keeps the mode at c and certifies only at rates rho > |c|. Raises
    ValueError when the leading coefficient cancels relative to the
    coefficient scale, i.e. when 1 - h K(inf) = 0 and the loop is not well
    posed.
    """
    if h == 0.0:
        return k
    shifted = list(k.den)
    for i, c in enumerate(k.num):
        shifted[i] -= h * c
    lead = shifted[-1]
    scale = max(max(abs(c) for c in k.den), abs(h) * max(abs(c) for c in k.num))
    if abs(lead) <= COEFF_TRIM_TOL * scale:
        raise ValueError("shifted loop is not well posed: its leading coefficient cancels")
    return RationalTF(
        num=tuple(c / lead for c in k.num), den=tuple(c / lead for c in shifted)
    )


def rho_scale(k: RationalTF, rho: float) -> RationalTF:
    """Substitute z -> rho z and renormalize to a monic denominator: coefficient
    c_i becomes c_i rho^(i - n), n = deg den.

    Roots map one-to-one (r -> r / rho), so the result keeps its degrees and
    every mode; nothing is trimmed, however small rho is.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
    n = len(k.den) - 1
    return RationalTF(
        num=tuple(c * rho ** (i - n) for i, c in enumerate(k.num)),
        den=tuple(c * rho ** (i - n) for i, c in enumerate(k.den)),
    )


def tf_equal(a: RationalTF, b: RationalTF, tol: float = EQUAL_TOL) -> bool:
    """Equality of rational functions via cross-multiplied coefficients."""
    pa = np.convolve(a.num, b.den)
    pb = np.convolve(b.num, a.den)
    n = max(pa.size, pb.size)
    pa = np.pad(pa, (0, n - pa.size))
    pb = np.pad(pb, (0, n - pb.size))
    scale = max(np.max(np.abs(pa)), np.max(np.abs(pb)))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(pa - pb)) <= tol * scale)


def evaluate(k: RationalTF, z: complex) -> complex:
    """num(z) / den(z) by Horner evaluation; rejects evaluation at a pole."""
    nv = np.polynomial.polynomial.polyval(z, np.asarray(k.num))
    dv = np.polynomial.polynomial.polyval(z, np.asarray(k.den))
    scale = max(1.0, abs(z)) ** k.den_degree * max(abs(c) for c in k.den)
    if abs(dv) <= 1e-14 * scale:
        raise ZeroDivisionError(f"evaluation at a pole of the transfer function: z={z}")
    return complex(nv / dv)
