"""Concrete test operators with known sector constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_SING_TOL = 1e-12

# the JSON fields of each operator kind besides "kind"
JSON_FIELDS = {
    "diagonal-quadratic": {"spectrum", "fixed_point"},
    "scalar-noncvx": set(),
    "bilinear": {"matrix"},
    "minmax-quadratic": {"p", "q", "c", "mu"},
}
KINDS = tuple(JSON_FIELDS)


def json_number(value, name: str) -> float:
    """A config value that must be a JSON number; strings and booleans are
    rejected rather than coerced by ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"{name} must be a JSON number in the float range") from None


def json_numbers(value, name: str) -> tuple:
    """A config value that must be a JSON list of numbers, or of such lists
    for a matrix, as (nested) tuples of floats."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, not {value!r}")
    return tuple(
        json_numbers(v, name) if isinstance(v, list) else json_number(v, name) for v in value
    )


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
        if not all(math.isfinite(v) for v in (self.mu, self.L, self.delta)):
            raise ValueError("sector parameters must be finite")
        if not 0.0 < self.mu < self.L:
            raise ValueError("sector requires 0 < mu < L")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")

    @property
    def kappa_inv(self) -> float:
        return self.mu / self.L

    @classmethod
    def from_json(cls, data: dict) -> "SectorParams":
        if not isinstance(data, dict):
            raise ValueError("sector spec must be an object")
        unknown = set(data) - {"mu", "L", "delta"}
        if unknown:
            raise ValueError(f"unknown sector fields {sorted(unknown)}")
        if "mu" not in data or "L" not in data:
            raise ValueError("sector requires fields 'mu' and 'L'")
        return cls(
            mu=json_number(data["mu"], "mu"),
            L=json_number(data["L"], "L"),
            delta=json_number(data.get("delta", 0.0), "delta"),
        )

    def to_json(self) -> dict:
        return {"mu": self.mu, "L": self.L, "delta": self.delta}


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
    dimension: int
    fixed_point: tuple[float, ...]
    spectrum: tuple[float, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    jacobian: tuple[tuple[float, ...], ...] | None = None
    mu: float | None = None
    split: int | None = None  # size of the minimizing block for saddle kinds
    # F(x) = linear_map (x - fixed_point) for every kind but scalar-noncvx
    # (None there); built once, read-only
    linear_map: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if len(self.fixed_point) != self.dimension:
            raise ValueError("fixed point dimension mismatch")
        M = None
        if self.kind == "diagonal-quadratic":
            if self.spectrum is None or len(self.spectrum) != self.dimension:
                raise ValueError("spectrum must match the dimension")
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
            if self.mu is None or self.mu <= 0:
                raise ValueError("declared modulus mu must be positive")
            if self.split is None or not 0 < self.split < self.dimension:
                raise ValueError("saddle operators need a valid block split")
        if M is not None:
            M.flags.writeable = False
        object.__setattr__(self, "linear_map", M)

    @classmethod
    def from_json(cls, data: dict) -> "OperatorSpec":
        if not isinstance(data, dict):
            raise ValueError("operator spec must be an object")
        kind = data.get("kind")
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind {kind!r}")
        unknown = set(data) - JSON_FIELDS[kind] - {"kind"}
        if unknown:
            raise ValueError(f"unknown operator fields {sorted(unknown)}")
        if kind == "diagonal-quadratic":
            fixed_point = data.get("fixed_point")
            return diagonal_quadratic(
                json_numbers(data["spectrum"], "spectrum"),
                fixed_point=None if fixed_point is None
                else json_numbers(fixed_point, "fixed_point"),
            )
        if kind == "scalar-noncvx":
            return scalar_noncvx()
        if kind == "bilinear":
            return bilinear_operator(json_numbers(data["matrix"], "matrix"))
        p, q, c = (json_numbers(data[key], key) for key in ("p", "q", "c"))
        return build_minmax_operator(p, q, c, mu=json_number(data["mu"], "mu"))


def diagonal_quadratic(spectrum, fixed_point=None) -> OperatorSpec:
    spectrum = tuple(float(s) for s in spectrum)
    if fixed_point is None:
        fixed_point = (0.0,) * len(spectrum)
    return OperatorSpec(
        kind="diagonal-quadratic",
        dimension=len(spectrum),
        fixed_point=tuple(float(v) for v in fixed_point),
        spectrum=spectrum,
    )


def scalar_noncvx() -> OperatorSpec:
    return OperatorSpec(kind="scalar-noncvx", dimension=1, fixed_point=(0.0,))


def bilinear_operator(matrix) -> OperatorSpec:
    matrix = tuple(tuple(float(v) for v in row) for row in matrix)
    n = len(matrix)
    return OperatorSpec(
        kind="bilinear",
        dimension=2 * n,
        fixed_point=(0.0,) * (2 * n),
        matrix=matrix,
    )


def build_minmax_operator(p_block, q_block, coupling, mu: float) -> OperatorSpec:
    """Saddle gradients of f(x, y) = x'Px/2 + x'Cy - y'Qy/2.

    The declared modulus ``mu`` must not exceed the strong convexity of P and
    the strong concavity of Q (their symmetric parts); violating blocks are
    rejected with a diagnostic. The sector constant L follows from the
    Jacobian, see :func:`derived_sector`.
    """
    P = np.atleast_2d(np.asarray(p_block, dtype=float))
    Q = np.atleast_2d(np.asarray(q_block, dtype=float))
    C = np.atleast_2d(np.asarray(coupling, dtype=float))
    n, m = P.shape[0], Q.shape[0]
    if P.shape != (n, n) or Q.shape != (m, m) or C.shape != (n, m):
        raise ValueError("block shapes are inconsistent")
    if mu <= 0:
        raise ValueError("declared modulus mu must be positive")
    for name, block in (("convexity block", P), ("concavity block", Q)):
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (block + block.T))))
        if lam < mu - 1e-12:
            raise ValueError(
                f"{name} has modulus {lam:.6g}, below the declared mu={mu:.6g}"
            )
    M = np.block([[P, C], [-C.T, Q]])
    return OperatorSpec(
        kind="minmax-quadratic",
        dimension=n + m,
        fixed_point=(0.0,) * (n + m),
        jacobian=tuple(tuple(row) for row in M),
        mu=mu,
        split=n,
    )


def _max_generalized_eig(T: np.ndarray, S: np.ndarray) -> float:
    # largest lambda with T v = lambda S v for S symmetric positive definite
    root = np.linalg.cholesky(S)
    inv = np.linalg.inv(root)
    sym = inv @ T @ inv.T
    return float(np.max(np.linalg.eigvalsh(0.5 * (sym + sym.T))))


def derived_sector(op: OperatorSpec, delta: float = 0.0) -> SectorParams:
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
        return SectorParams(mu=lo, L=hi, delta=delta)
    if op.kind == "scalar-noncvx":
        return SectorParams(mu=1.0, L=3.0, delta=delta)
    if op.kind == "minmax-quadratic":
        M = op.linear_map
        S = 0.5 * (M + M.T)
        mu = float(op.mu)
        L = _max_generalized_eig(M.T @ M, S)
        gap = S - mu * np.eye(M.shape[0])
        if float(np.min(np.linalg.eigvalsh(gap))) > 1e-12:
            L_qsb = _max_generalized_eig(M.T @ M - mu * S, gap)
            L = max(L, L_qsb)
        return SectorParams(mu=mu, L=L, delta=delta)
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
