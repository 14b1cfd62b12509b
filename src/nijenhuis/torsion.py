"""Torsion of an operator field, evaluated two independent ways.

The coordinate route contracts exact entry values and entry gradients:

    N^i_jk = L^l_j dL^i_k/dx^l - L^l_k dL^i_j/dx^l
           - L^i_l dL^l_k/dx^j + L^i_l dL^l_j/dx^k

The oracle route starts from the invariant form
N[u, v] = L^2 [u,v] + [Lu, Lv] - L[u, Lv] - L[Lu, v] with u = d_j, v = d_k
constant coordinate fields (so [u,v] = 0) and computes the remaining Lie
brackets by central finite differences of operator VALUES only. The two
routes share no derivative code, which is what makes their agreement a
meaningful check.

Operator evaluations carry a leading points axis (see ``field.py``):
``torsion_from_eval`` contracts every point of a batch at once, and the
sweep evaluates its samples chunk by chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import OperatorField, OperatorEval, operator_eval
from .report import VerificationReport, run_sweep, sample_box

__all__ = [
    "TorsionValue",
    "torsion_from_eval",
    "torsion_coordinate",
    "torsion_bracket_fd",
    "verify_zero_torsion",
    "DEFAULT_MIN_DENOMINATOR",
]

# Sweeps reject sample points whose guard margin (|f_y| for the derived
# families) falls below this; near-singular entries legitimately blow up
# and would mask the torsion signal. Rejections are counted, never silent.
DEFAULT_MIN_DENOMINATOR = 0.05


@dataclass
class TorsionValue:
    """Torsion components[i, j, k] = N^i_jk at a base point."""

    components: np.ndarray
    point: np.ndarray

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.components)))


def torsion_from_eval(ev: OperatorEval) -> np.ndarray:
    """Contract an operator evaluation into torsion components.

    Grouped as (t1 - t2) + (t4 - t3) where each parenthesized pair is an
    exact (j,k)-antisymmetric array, so the result is antisymmetric to the
    last bit, not just to rounding. Values (..., n, n) and gradients
    (..., n, n, n) give components (..., n, n, n).
    """
    L = ev.values
    G = ev.entry_grads  # G[..., i, j, l] = dL^i_j / dx^l
    N = np.einsum("...lj,...ikl->...ijk", L, G)
    N -= np.einsum("...lk,...ijl->...ijk", L, G)
    t43 = np.einsum("...il,...ljk->...ijk", L, G)
    t43 -= np.einsum("...il,...lkj->...ijk", L, G)
    N += t43
    return N


def torsion_coordinate(L: OperatorField, p: Sequence[float]) -> TorsionValue:
    """Torsion at p from the coordinate formula (exact derivatives)."""
    ev = operator_eval(L, p)
    return TorsionValue(torsion_from_eval(ev), ev.point)


def torsion_bracket_fd(L: OperatorField, p: Sequence[float],
                       h: float = 1e-4) -> TorsionValue:
    """Torsion at p from the bracket definition with central differences.

    Uses only operator values at the 2n+1 stencil points, evaluated as one
    batch; entry derivatives never enter, so this is an independent oracle
    for torsion_coordinate with O(h^2) truncation error.
    """
    p = np.asarray(p, dtype=float)
    n = L.dim
    if h <= 0.0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    step = h * np.eye(n)
    V = operator_eval(L, np.concatenate([p[None], p + step, p - step])).values
    Lp = V[0]
    # D[i, j, l] ~ d L^i_j / dx^l by central differences.
    D = np.moveaxis((V[1:n + 1] - V[n + 1:]) / (2.0 * h), 0, -1)
    # With constant u = d_j, v = d_k (so [u, v] = 0):
    # [Lu, Lv]^i = sum_l (L^l_j d_l L^i_k - L^l_k d_l L^i_j), and
    # -L[u, Lv]^i - L[Lu, v]^i = sum_m L^i_m (d_k L^m_j - d_j L^m_k).
    LD = np.einsum("lj,ikl->ijk", Lp, D)
    bracket = LD - LD.transpose(0, 2, 1)
    corr = np.einsum("im,mjk->ijk", Lp, D - D.transpose(0, 2, 1))
    return TorsionValue(bracket + corr, p)


def verify_zero_torsion(L: OperatorField, domain, samples: int, seed: int,
                        tol: float,
                        min_denominator: float = DEFAULT_MIN_DENOMINATOR,
                        collect: bool = False) -> VerificationReport:
    """Seeded sweep asserting the torsion vanishes on the sampled box.

    Pass gate is relative: max |N| / (1 + max |L entry|) <= tol at every
    accepted point. max_residual in the report is the raw component max.
    Points where evaluation fails (singular locus) or where the operator's
    guard margin drops below min_denominator are rejected and counted.
    """
    points = sample_box(domain, L.dim, samples, seed)

    def eval_chunk(P):
        ev = operator_eval(L, P)
        raw = np.max(np.abs(torsion_from_eval(ev)), axis=(-3, -2, -1))
        scale = 1.0 + np.max(np.abs(ev.values), axis=(-2, -1))
        return raw, raw / scale, {}

    return run_sweep(
        points, eval_chunk, tol,
        subject=f"zero-torsion sweep of {L.label or 'operator'}",
        params={"dim": L.dim, "samples": samples, "seed": seed, "tol": tol,
                "min_denominator": min_denominator},
        gate_name="torsion_relative",
        guard=L.guard, min_margin=min_denominator, collect=collect)
