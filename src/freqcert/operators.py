"""Concrete test operators with known sector constants."""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

_SING_TOL = 1e-12


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
    if sv[-1] <= _SING_TOL * sv[0]:
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
    """An operator with a unique zero at ``fixed_point``, as its constructor in KINDS builds it."""

    kind: str
    fixed_point: tuple[float, ...]
    spectrum: tuple[float, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    jacobian: tuple[tuple[float, ...], ...] | None = None
    mu: float | None = None
    # F(x) = linear_map (x - fixed_point), read-only; None for scalar-noncvx
    linear_map: np.ndarray | None = field(default=None, repr=False, compare=False)
    # fixed_point as a read-only float array, built once here for _evaluator
    fixed_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _kind(self.kind)
        if self.linear_map is not None:
            self.linear_map.flags.writeable = False
        fixed_array = np.array(self.fixed_point, dtype=float)
        fixed_array.flags.writeable = False
        object.__setattr__(self, "fixed_array", fixed_array)

    @property
    def dimension(self) -> int:
        return len(self.fixed_point)

    @classmethod
    def from_json(cls, data: dict) -> "OperatorSpec":
        # the object and its kind first, then the fields of that kind
        every_field = set().union(*(r | o for _, r, o in KINDS.values()))
        kind = json_object(data, "operator", {"kind"}, every_field)["kind"]
        build, required, optional = _kind(kind)
        json_object(data, "operator", required | {"kind"}, optional)
        # every other field is the keyword of that name of the kind's constructor, which reads it
        return build(**{key: value for key, value in data.items() if key != "kind"})


def diagonal_quadratic(spectrum, fixed_point=None) -> OperatorSpec:
    """Componentwise scaling by ``spectrum`` around ``fixed_point`` (default 0)."""
    spectrum = _floats(spectrum, "spectrum")
    if fixed_point is None:
        fixed_point = (0.0,) * len(spectrum)
    fixed_point = _floats(fixed_point, "fixed_point")
    if not spectrum or len(spectrum) != len(fixed_point):
        raise ValueError("spectrum must be non-empty and match the dimension")
    if any(s <= 0 for s in spectrum):
        raise ValueError("spectrum entries must be positive")
    return OperatorSpec(kind="diagonal-quadratic", fixed_point=fixed_point, spectrum=spectrum,
                        linear_map=np.diag(np.asarray(spectrum, dtype=float)))


def scalar_noncvx() -> OperatorSpec:
    """F(x) = 2x + sin(x) on the line, slope range [1, 3]."""
    return OperatorSpec(kind="scalar-noncvx", fixed_point=(0.0,))


def bilinear_operator(matrix) -> OperatorSpec:
    """Saddle gradients (A y, -A' x) of x'Ay for a square non-singular A."""
    matrix = _floats(matrix, "matrix", rows=True)
    A = np.asarray(matrix, dtype=float)
    n = coupling_singular_values(A).size
    M = np.zeros((2 * n, 2 * n))
    M[:n, n:] = A
    M[n:, :n] = -A.T
    return OperatorSpec(kind="bilinear", fixed_point=(0.0,) * (2 * n), matrix=matrix, linear_map=M)


def build_minmax_operator(p, q, c, mu: float) -> OperatorSpec:
    """Saddle gradients of f(x, y) = x'Px/2 + x'Cy - y'Qy/2.

    The declared modulus ``mu`` must be positive and must not exceed the
    strong convexity of P and the strong concavity of Q (their symmetric
    parts); violating blocks are rejected with a diagnostic. The sector
    constant L follows from the Jacobian, see :func:`derived_sector`.
    """
    P, Q, C = (np.array(_floats(b, name, rows=True)) for b, name in zip((p, q, c), "pqc"))
    mu = json_number(mu, "mu")
    n, m = P.shape[0], Q.shape[0]
    if P.shape != (n, n) or Q.shape != (m, m) or C.shape != (n, m):
        raise ValueError("block shapes are inconsistent")
    for name, block in (("convexity block", P), ("concavity block", Q)):
        lam = float(np.min(np.linalg.eigvalsh(0.5 * (block + block.T))))
        if lam < mu - 1e-12 * np.abs(block).max():
            raise ValueError(
                f"{name} has modulus {lam:.6g}, below the declared mu={mu:.6g}"
            )
    if not mu > 0:
        raise ValueError("declared modulus mu must be positive")
    M = np.block([[P, C], [-C.T, Q]])
    return OperatorSpec(kind="minmax-quadratic", fixed_point=(0.0,) * (n + m),
                        jacobian=tuple(tuple(row) for row in M), mu=mu, linear_map=M)


# each operator kind: its constructor, which reads and checks every field, and
# the required and the optional JSON fields besides "kind" (its keywords)
KINDS = {
    "diagonal-quadratic": (diagonal_quadratic, {"spectrum"}, {"fixed_point"}),
    "scalar-noncvx": (scalar_noncvx, set(), set()),
    "bilinear": (bilinear_operator, {"matrix"}, set()),
    "minmax-quadratic": (build_minmax_operator, {"p", "q", "c", "mu"}, set()),
}


def _kind(kind) -> tuple:
    """The KINDS entry of ``kind``; rejects a name, or a non-string, that is no kind."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return KINDS[kind]


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
        # M'M squares M: scale M and mu by 2^-e first, exactly, and L back
        # after; e is even, so the Cholesky factor scales exactly too
        e = 2 * (math.frexp(np.abs(op.linear_map).max())[1] // 2)
        M = np.ldexp(op.linear_map, -e)
        S = 0.5 * (M + M.T)
        mu = math.ldexp(op.mu, -e)
        L = _max_generalized_eig(M.T @ M, S)
        gap = S - mu * np.eye(M.shape[0])
        if float(np.min(np.linalg.eigvalsh(gap))) > 1e-12 * np.abs(M).max():
            L_qsb = _max_generalized_eig(M.T @ M - mu * S, gap)
            L = max(L, L_qsb)
        return SectorParams(mu=float(op.mu), L=math.ldexp(L, e))
    raise ValueError(f"{op.kind} admits no strongly monotone sector")


def _evaluator(op: OperatorSpec):
    """F of ``op`` as a function of one float array of its dimension. The kind
    is decided here, once, so a caller that evaluates F many times, such as a
    simulation, pays for it once."""
    if op.kind == "scalar-noncvx":
        def evaluate(x):
            return 2.0 * x + np.sin(x)

        return evaluate
    M = op.linear_map
    if op.kind == "bilinear":
        n = op.dimension // 2
        A = M[:n, n:]
        minus_At = -A.T

        def evaluate(x):
            return np.concatenate([A @ x[n:], minus_At @ x[:n]])

        return evaluate
    fp = op.fixed_array

    def evaluate(x):
        return M @ (x - fp)

    return evaluate


def eval_operator(op: OperatorSpec, x) -> np.ndarray:
    """Apply the operator; rejects inputs of the wrong dimension. The
    per-call form of :func:`_evaluator`, with the input checked."""
    x = np.asarray(x, dtype=float)
    if x.shape != (op.dimension,):
        raise ValueError(
            f"input has shape {x.shape}, operator expects ({op.dimension},)"
        )
    return _evaluator(op)(x)
