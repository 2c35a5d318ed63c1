"""Concrete test operators with known sector constants, and empirical verification."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLACK_TOL = 1e-9
_SING_TOL = 1e-12

KINDS = ("diagonal-quadratic", "scalar-noncvx", "bilinear", "minmax-quadratic")


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
            mu=float(data["mu"]),
            L=float(data["L"]),
            delta=float(data.get("delta", 0.0)),
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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if len(self.fixed_point) != self.dimension:
            raise ValueError("fixed point dimension mismatch")
        if self.kind == "diagonal-quadratic":
            if self.spectrum is None or len(self.spectrum) != self.dimension:
                raise ValueError("spectrum must match the dimension")
            if any(s <= 0 for s in self.spectrum):
                raise ValueError("spectrum entries must be positive")
        elif self.kind == "scalar-noncvx":
            if self.dimension != 1 or any(v != 0.0 for v in self.fixed_point):
                raise ValueError("scalar operator is one-dimensional with fixed point 0")
        elif self.kind == "bilinear":
            A = np.asarray(self.matrix, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("coupling matrix must be square")
            if self.dimension != 2 * A.shape[0]:
                raise ValueError("dimension must be twice the coupling size")
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] <= _SING_TOL * max(1.0, sv[0]):
                raise ValueError("coupling matrix must be non-singular")
            if any(v != 0.0 for v in self.fixed_point):
                raise ValueError("bilinear fixed point is the origin")
        elif self.kind == "minmax-quadratic":
            M = np.asarray(self.jacobian, dtype=float)
            if M.ndim != 2 or M.shape != (self.dimension, self.dimension):
                raise ValueError("jacobian must be square of the declared dimension")
            if self.mu is None or self.mu <= 0:
                raise ValueError("declared modulus mu must be positive")
            if self.split is None or not 0 < self.split < self.dimension:
                raise ValueError("saddle operators need a valid block split")

    def linear_map(self) -> np.ndarray:
        """Full linear map for the linear operator kinds."""
        if self.kind == "diagonal-quadratic":
            return np.diag(self.spectrum)
        if self.kind == "bilinear":
            A = np.asarray(self.matrix, dtype=float)
            n = A.shape[0]
            M = np.zeros((2 * n, 2 * n))
            M[:n, n:] = A
            M[n:, :n] = -A.T
            return M
        if self.kind == "minmax-quadratic":
            return np.asarray(self.jacobian, dtype=float)
        raise ValueError(f"{self.kind} is not linear")

    @classmethod
    def from_json(cls, data: dict) -> "OperatorSpec":
        if not isinstance(data, dict):
            raise ValueError("operator spec must be an object")
        kind = data.get("kind")
        if kind == "diagonal-quadratic":
            unknown = set(data) - {"kind", "spectrum", "fixed_point"}
            if unknown:
                raise ValueError(f"unknown operator fields {sorted(unknown)}")
            return diagonal_quadratic(
                data["spectrum"], fixed_point=data.get("fixed_point")
            )
        if kind == "scalar-noncvx":
            unknown = set(data) - {"kind"}
            if unknown:
                raise ValueError(f"unknown operator fields {sorted(unknown)}")
            return scalar_noncvx()
        if kind == "bilinear":
            unknown = set(data) - {"kind", "matrix"}
            if unknown:
                raise ValueError(f"unknown operator fields {sorted(unknown)}")
            return bilinear_operator(data["matrix"])
        if kind == "minmax-quadratic":
            unknown = set(data) - {"kind", "p", "q", "c", "mu"}
            if unknown:
                raise ValueError(f"unknown operator fields {sorted(unknown)}")
            return build_minmax_operator(
                data["p"], data["q"], data["c"], mu=float(data["mu"])
            )
        raise ValueError(f"unknown operator kind {kind!r}")

    def to_json(self) -> dict:
        if self.kind == "diagonal-quadratic":
            return {
                "kind": self.kind,
                "spectrum": list(self.spectrum),
                "fixed_point": list(self.fixed_point),
            }
        if self.kind == "scalar-noncvx":
            return {"kind": self.kind}
        if self.kind == "bilinear":
            return {"kind": self.kind, "matrix": [list(r) for r in self.matrix]}
        n = self.split
        M = np.asarray(self.jacobian)
        return {
            "kind": self.kind,
            "p": M[:n, :n].tolist(),
            "q": M[n:, n:].tolist(),
            "c": M[:n, n:].tolist(),
            "mu": self.mu,
        }


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
        M = op.linear_map()
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
    if op.kind == "bilinear":
        A = np.asarray(op.matrix, dtype=float)
        n = A.shape[0]
        return np.concatenate([A @ x[n:], -A.T @ x[:n]])
    if op.kind == "diagonal-quadratic":
        return np.asarray(op.spectrum) * (x - op.fixed_point)
    return op.linear_map() @ (x - np.asarray(op.fixed_point))


@dataclass(frozen=True)
class SectorReport:
    """Worst slack of the sector inequalities over a sample of point pairs.

    Margins are the smallest left-minus-right values seen; a check passes
    when its margin stays above ``-SLACK_TOL``.
    """

    monotone_ok: bool
    cocoercive_ok: bool
    qsb_ok: bool
    worst_margins: dict[str, float]


def check_sector(op: OperatorSpec, sector: SectorParams, pairs) -> SectorReport:
    """Evaluate monotonicity, co-coercivity and the combined quadratic bound
    on every supplied ``(x, x')`` pair."""
    if len(pairs) == 0:
        raise ValueError("at least one sample pair is required")
    mu, L = sector.mu, sector.L
    worst = {"monotone": np.inf, "cocoercive": np.inf, "qsb": np.inf}
    for x, xp in pairs:
        du = np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)
        dv = eval_operator(op, x) - eval_operator(op, xp)
        ip = float(du @ dv)
        nu2 = float(du @ du)
        nv2 = float(dv @ dv)
        worst["monotone"] = min(worst["monotone"], ip - mu * nu2)
        worst["cocoercive"] = min(worst["cocoercive"], ip - nv2 / L)
        worst["qsb"] = min(
            worst["qsb"], -2.0 * mu * L * nu2 + 2.0 * (L + mu) * ip - 2.0 * nv2
        )
    return SectorReport(
        monotone_ok=worst["monotone"] >= -SLACK_TOL,
        cocoercive_ok=worst["cocoercive"] >= -SLACK_TOL,
        qsb_ok=worst["qsb"] >= -SLACK_TOL,
        worst_margins=dict(worst),
    )


def sample_pairs(dimension: int, count: int, seed: int = 0, box: float = 10.0):
    """Seeded point pairs drawn uniformly from the centered hypercube."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-box, box, size=(count, 2, dimension))
    return [(draws[i, 0], draws[i, 1]) for i in range(count)]
