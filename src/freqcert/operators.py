"""Concrete test operators with known sector constants."""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

_SING_TOL = 1e-12

# the required and the optional JSON fields of each operator kind besides "kind"
JSON_FIELDS = {
    "diagonal-quadratic": ({"spectrum"}, {"fixed_point"}),
    "scalar-noncvx": (set(), set()),
    "bilinear": ({"matrix"}, set()),
    "minmax-quadratic": ({"p", "q", "c", "mu"}, set()),
}
KINDS = tuple(JSON_FIELDS)


def json_object(data, what: str, required, optional) -> dict:
    """A config value that must be a JSON object with every ``required`` field
    and no field outside ``required`` and ``optional``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown {what} fields {sorted(unknown)}")
    missing = set(required) - set(data)
    if missing:
        raise ValueError(f"{what} requires fields {sorted(missing)}")
    return data


def json_number(value, name: str) -> float:
    """``value``, a finite real number, as a float. Booleans and strings are
    rejected rather than coerced by ``float``; numpy scalars pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a JSON number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{name} must be a JSON number in the float range") from None
    if not math.isfinite(value):  # json.load reads NaN, Infinity and 1e999
        raise ValueError(f"{name} must be finite")
    return value


def _is_list(value) -> bool:
    return isinstance(value, Iterable) and not isinstance(value, str)


def _floats(values, name: str, rows: bool = False) -> tuple:
    """``values``, a list of :func:`json_number` values, as a tuple of floats;
    with ``rows``, a list of equal-length such lists as a tuple of tuples.
    Any other nesting is reported by ``name``."""
    if not _is_list(values):
        raise ValueError(f"{name} must be a JSON list, not {values!r}")
    # None marks a number in place of a row
    lists = [tuple(v) if _is_list(v) else None for v in values] if rows else [tuple(values)]
    if None in lists or any(_is_list(x) for v in lists for x in v):
        raise ValueError(f"{name} must be a list of {'lists of ' * rows}numbers")
    out = tuple(tuple(json_number(x, name) for x in v) for v in lists)
    if rows and len(set(map(len, out))) > 1:
        raise ValueError(f"{name} rows must have equal lengths")
    return out if rows else out[0]


def coupling_singular_values(matrix) -> np.ndarray:
    """Singular values of a bilinear coupling matrix, largest first; rejects a
    matrix that is not square or not non-singular."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("coupling matrix must be square")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= _SING_TOL * max(1.0, sv[0]):
        raise ValueError("coupling matrix must be non-singular")
    return sv


@dataclass(frozen=True)
class SectorParams:
    """Sector description of an operator class: strong monotonicity modulus
    ``mu``, co-coercivity constant ``L`` and relative noise level ``delta``."""

    mu: float
    L: float
    delta: float = 0.0

    def __post_init__(self):
        for name in ("mu", "L", "delta"):
            object.__setattr__(self, name, json_number(getattr(self, name), name))
        if not 0.0 < self.mu < self.L:
            raise ValueError("sector requires 0 < mu < L")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")

    @classmethod
    def from_json(cls, data: dict) -> "SectorParams":
        return cls(**json_object(data, "sector", {"mu", "L"}, {"delta"}))

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OperatorSpec:
    """A concrete operator with a unique zero at ``fixed_point``.

    kinds:
      diagonal-quadratic  componentwise scaling by ``spectrum``
      scalar-noncvx       F(x) = 2x + sin(x), slope range [1, 3]
      bilinear            saddle gradients of x^T A y, ``matrix`` holds A
      minmax-quadratic    linear saddle gradients, ``jacobian`` holds the map
    """

    kind: str
    fixed_point: tuple[float, ...]
    spectrum: tuple[float, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    jacobian: tuple[tuple[float, ...], ...] | None = None
    mu: float | None = None
    # F(x) = linear_map (x - fixed_point) for every kind but scalar-noncvx
    # (None there); built once, read-only
    linear_map: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        M = None
        if self.kind == "diagonal-quadratic":
            if not self.spectrum or len(self.spectrum) != self.dimension:
                raise ValueError("spectrum must be non-empty and match the dimension")
            if any(s <= 0 for s in self.spectrum):
                raise ValueError("spectrum entries must be positive")
            M = np.diag(np.asarray(self.spectrum, dtype=float))
        elif self.kind == "scalar-noncvx":
            if self.dimension != 1 or any(v != 0.0 for v in self.fixed_point):
                raise ValueError("scalar operator is one-dimensional with fixed point 0")
        elif self.kind == "bilinear":
            A = np.asarray(self.matrix, dtype=float)
            sv = coupling_singular_values(A)
            if self.dimension != 2 * sv.size:
                raise ValueError("dimension must be twice the coupling size")
            if any(v != 0.0 for v in self.fixed_point):
                raise ValueError("bilinear fixed point is the origin")
            n = sv.size
            M = np.zeros((2 * n, 2 * n))
            M[:n, n:] = A
            M[n:, :n] = -A.T
        else:
            M = np.array(self.jacobian, dtype=float)
            if M.ndim != 2 or M.shape != (self.dimension, self.dimension):
                raise ValueError("jacobian must be square of the declared dimension")
            if self.mu is None or not self.mu > 0:
                raise ValueError("declared modulus mu must be positive")
        if M is not None:
            M.flags.writeable = False
        object.__setattr__(self, "linear_map", M)

    @property
    def dimension(self) -> int:
        return len(self.fixed_point)

    @classmethod
    def from_json(cls, data: dict) -> "OperatorSpec":
        # the object and its kind first, then the fields of that kind
        every_field = set().union(*(r | o for r, o in JSON_FIELDS.values()))
        kind = json_object(data, "operator", {"kind"}, every_field)["kind"]
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        required, optional = JSON_FIELDS[kind]
        json_object(data, "operator", required | {"kind"}, optional)
        build = {
            "diagonal-quadratic": diagonal_quadratic,
            "scalar-noncvx": scalar_noncvx,
            "bilinear": bilinear_operator,
            "minmax-quadratic": build_minmax_operator,
        }
        # every other field is the keyword of that name of the kind's constructor, which reads it
        return build[kind](**{key: value for key, value in data.items() if key != "kind"})


def diagonal_quadratic(spectrum, fixed_point=None) -> OperatorSpec:
    spectrum = _floats(spectrum, "spectrum")
    if fixed_point is None:
        fixed_point = (0.0,) * len(spectrum)
    fixed_point = _floats(fixed_point, "fixed_point")
    return OperatorSpec(kind="diagonal-quadratic", fixed_point=fixed_point, spectrum=spectrum)


def scalar_noncvx() -> OperatorSpec:
    return OperatorSpec(kind="scalar-noncvx", fixed_point=(0.0,))


def bilinear_operator(matrix) -> OperatorSpec:
    matrix = _floats(matrix, "matrix", rows=True)
    return OperatorSpec(kind="bilinear", fixed_point=(0.0,) * (2 * len(matrix)), matrix=matrix)


def build_minmax_operator(p, q, c, mu: float) -> OperatorSpec:
    """Saddle gradients of f(x, y) = x'Px/2 + x'Cy - y'Qy/2.

    The declared modulus ``mu`` must not exceed the strong convexity of P and
    the strong concavity of Q (their symmetric parts); violating blocks are
    rejected with a diagnostic. The sector constant L follows from the
    Jacobian, see :func:`derived_sector`.
    """
    P, Q, C = (np.array(_floats(b, name, rows=True)) for b, name in zip((p, q, c), "pqc"))
    mu = json_number(mu, "mu")
    n, m = P.shape[0], Q.shape[0]
    if P.shape != (n, n) or Q.shape != (m, m) or C.shape != (n, m):
        raise ValueError("block shapes are inconsistent")
    for name, block in (("convexity block", P), ("concavity block", Q)):
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (block + block.T))))
        if lam < mu - 1e-12:
            raise ValueError(
                f"{name} has modulus {lam:.6g}, below the declared mu={mu:.6g}"
            )
    M = np.block([[P, C], [-C.T, Q]])
    return OperatorSpec(
        kind="minmax-quadratic",
        fixed_point=(0.0,) * (n + m),
        jacobian=tuple(tuple(row) for row in M),
        mu=mu,
    )


def _max_generalized_eig(T: np.ndarray, S: np.ndarray) -> float:
    # largest lambda with T v = lambda S v for S symmetric positive definite
    root = np.linalg.cholesky(S)
    inv = np.linalg.inv(root)
    sym = inv @ T @ inv.T
    return float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T))))


def derived_sector(op: OperatorSpec) -> SectorParams:
    """Tightest sector the operator provably satisfies.

    For the linear saddle kinds the co-coercivity constant is the largest
    generalized eigenvalue of (M'M, sym(M)); when the declared modulus leaves
    room below sym(M) the constant is enlarged so the combined quadratic
    sector bound holds as well (rotational couplings fail it otherwise).
    """
    if op.kind == "diagonal-quadratic":
        lo, hi = min(op.spectrum), max(op.spectrum)
        if not lo < hi:
            raise ValueError("spectrum is degenerate, no strict sector exists")
        return SectorParams(mu=lo, L=hi)
    if op.kind == "scalar-noncvx":
        return SectorParams(mu=1.0, L=3.0)
    if op.kind == "minmax-quadratic":
        M = op.linear_map
        S = 0.5 * (M + M.T)
        mu = float(op.mu)
        L = _max_generalized_eig(M.T @ M, S)
        gap = S - mu * np.eye(M.shape[0])
        if float(np.min(np.linalg.eigvalsh(gap))) > 1e-12:
            L_qsb = _max_generalized_eig(M.T @ M - mu * S, gap)
            L = max(L, L_qsb)
        return SectorParams(mu=mu, L=L)
    raise ValueError(f"{op.kind} admits no strongly monotone sector")


def eval_operator(op: OperatorSpec, x) -> np.ndarray:
    """Apply the operator; rejects inputs of the wrong dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dimension,):
        raise ValueError(
            f"input has shape {x.shape}, operator expects ({op.dimension},)"
        )
    if op.kind == "scalar-noncvx":
        return 2.0 * x + np.sin(x)
    M = op.linear_map
    if op.kind == "bilinear":
        n = op.dimension // 2
        A = M[:n, n:]
        return np.concatenate([A @ x[n:], -A.T @ x[:n]])
    return M @ (x - np.asarray(op.fixed_point))
