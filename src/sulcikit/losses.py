"""Contrastive and segmentation losses with analytic gradients.

The contrastive part follows the paired-view convention: a batch holds 2N
embedding rows where rows (2k, 2k+1) (0-indexed) are the two views of input
k. Every contrastive term reads one row-wise log-softmax of cosine
similarities over temperature (max-subtracted, self-similarity excluded):
the pairwise term is its negative at the positive, the total loss averages
the two ordered terms of every pair, and the gradient exponentiates it. Segmentation losses share one
Tversky ratio over a true-positive/false-negative/false-positive reduction,
``(k*tp + s) / (k*tp + a*fn + b*fp + s)``: Tversky weighs ``(1, alpha,
beta)`` and soft Dice ``(2, 1, 1)``, which makes Tversky(alpha=beta=0.5)
bitwise equal to Dice at smooth=0, gradients included. Everything is a pure
function; repeated calls give bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    NonFiniteError,
    ZeroDenominatorError,
    ZeroVectorError,
)
from .oracles import central_difference, max_rel_error
from .volume import _GridVolume, _int, _owned, _real, require_same_grid

__all__ = [
    "EmbeddingBatch",
    "ProbabilityVolume",
    "DescentRecord",
    "cosine_similarity",
    "nt_xent_pair",
    "contrastive_loss",
    "contrastive_loss_grad",
    "soft_dice_loss",
    "tversky_loss",
    "seg_loss_grad",
    "multitask_loss",
    "finite_difference_check",
    "optimize_embeddings_demo",
    "DEFAULT_TEMPERATURE",
    "DEFAULT_SMOOTH",
]

DEFAULT_TEMPERATURE = 0.5
DEFAULT_SMOOTH = 1e-5


@dataclass(frozen=True, eq=False)
class EmbeddingBatch:
    """2N x D matrix of paired view embeddings; rows (2k, 2k+1) are positives."""

    rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        rows = _owned(self.rows, np.float64, np.shape(self.rows))
        _unit_rows(_rows(rows))  # raises on a bad shape or a zero row
        object.__setattr__(self, "rows", rows)

    @property
    def n_pairs(self) -> int:
        return self.rows.shape[0] // 2


@dataclass(frozen=True, eq=False)
class ProbabilityVolume(_GridVolume):
    """Per-voxel foreground probabilities in [0, 1] on a voxel grid."""

    _dtype = np.float64

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.voxels).all():
            raise ValueError("probability volume contains NaN or Inf")
        if self.voxels.min() < 0.0 or self.voxels.max() > 1.0:
            raise ValueError("probabilities must lie in [0, 1]")


def _rows(batch) -> np.ndarray:
    rows = batch.rows if isinstance(batch, EmbeddingBatch) else np.asarray(batch, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[0] % 2:
        raise ValueError(f"batch must be 2N x D with N >= 1, got shape {rows.shape}")
    return rows


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(rows, axis=1)
    if not (norms > 0).all():
        raise ZeroVectorError("every embedding row must have nonzero norm")
    return rows / norms[:, None], norms


def cosine_similarity(z_i, z_j) -> float:
    """Cosine of the angle between two embeddings, in [-1, 1]."""
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    ni = np.linalg.norm(z_i)
    nj = np.linalg.norm(z_j)
    if ni == 0 or nj == 0:
        raise ZeroVectorError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(z_i, z_j) / (ni * nj), -1.0, 1.0))


def _neg_log_softmax(rows: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise -log softmax of cosine similarity over temperature.

    Entry (i, j) is the contrastive term of anchor i and candidate j. Each
    row excludes its own similarity (+inf on the diagonal) and subtracts its
    maximum before the log-sum-exp, so tiny temperatures stay finite.
    """
    temperature = _real(temperature, "temperature", above=0)
    unit, _ = _unit_rows(rows)
    logits = (unit @ unit.T) / temperature
    np.fill_diagonal(logits, -np.inf)
    m = logits.max(axis=1, keepdims=True)
    return (np.log(np.exp(logits - m).sum(axis=1, keepdims=True)) + m) - logits


def nt_xent_pair(batch, i: int, j: int, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Pairwise contrastive term for anchor row i and positive row j.

    -log of the softmax that row i assigns to row j over all rows except i
    itself. Indices are 0-based.
    """
    rows = _rows(batch)
    n = rows.shape[0]
    i, j = _int(i, "i"), _int(j, "j")
    for name, index in (("i", i), ("j", j)):
        if not 0 <= index < n:
            raise IndexOutOfRangeError(f"{name} {index} outside batch of {n} rows")
    if i == j:
        raise IndexOutOfRangeError("anchor and positive must differ")
    return float(_neg_log_softmax(rows, temperature)[i, j])


def _partners(n_rows: int) -> np.ndarray:
    return np.arange(n_rows) ^ 1


def contrastive_loss(batch, temperature: float = DEFAULT_TEMPERATURE) -> float:
    """Total contrastive loss: mean pairwise term over all 2N anchors."""
    rows = _rows(batch)
    n = rows.shape[0]
    return float(np.mean(_neg_log_softmax(rows, temperature)[np.arange(n), _partners(n)]))


def contrastive_loss_grad(batch, temperature: float = DEFAULT_TEMPERATURE) -> np.ndarray:
    """Exact gradient of contrastive_loss with respect to every embedding entry.

    Because cosine similarity ignores row scale, each gradient row is
    orthogonal to its embedding row.
    """
    rows = _rows(batch)
    n = rows.shape[0]
    temperature = _real(temperature, "temperature", above=0)
    p = np.exp(-_neg_log_softmax(rows, temperature))
    unit, norms = _unit_rows(rows)
    # d loss / d logit is softmax - onehot; each row's softmax sums to one,
    # so the positive's entry is minus the other entries' sum, which keeps
    # its precision where that softmax saturates at tiny temperatures
    positive = (np.arange(n), _partners(n))
    p[positive] = 0.0
    p[positive] -= p.sum(axis=1)
    sim_grad = p / (n * temperature)
    g_unit = (sim_grad + sim_grad.T) @ unit
    radial = np.einsum("ij,ij->i", g_unit, unit)
    return (g_unit - radial[:, None] * unit) / norms[:, None]


def _pred_target(pred, target) -> tuple[np.ndarray, np.ndarray]:
    """Accept wrapped volumes or plain arrays; return float64 arrays."""
    if hasattr(pred, "grid") and hasattr(target, "grid"):
        require_same_grid(pred, target)
    p = np.asarray(pred.voxels if hasattr(pred, "voxels") else pred, dtype=np.float64)
    g = np.asarray(target.voxels if hasattr(target, "voxels") else target, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} != target shape {g.shape}")
    return p, g


def _overlap_terms(p: np.ndarray, g: np.ndarray) -> tuple[float, float, float]:
    """(tp, fn, fp) from one dot product and two sums, with no full-size temporary."""
    tp = float(np.vdot(p, g))
    return tp, float(g.sum()) - tp, float(p.sum()) - tp


def _weights(loss: str, alpha: float, beta: float) -> tuple[float, float, float]:
    """Weights of (tp, fn, fp) in the Tversky ratio."""
    if loss == "dice":
        return 2.0, 1.0, 1.0
    if loss != "tversky":
        raise ValueError(f"loss must be 'dice' or 'tversky', got {loss!r}")
    return 1.0, _real(alpha, "alpha", low=0), _real(beta, "beta", low=0)


def _ratio(loss: str, pred, target, alpha: float, beta: float, smooth: float):
    """Target array, (tp, fn, fp) weights, and the numerator and denominator of the ratio."""
    smooth = _real(smooth, "smooth", low=0)
    k, a, b = _weights(loss, alpha, beta)
    p, g = _pred_target(pred, target)
    tp, fn, fp = _overlap_terms(p, g)
    den = ((k * tp + a * fn) + b * fp) + smooth
    if den == 0:
        raise ZeroDenominatorError(f"{loss} loss undefined: its ratio's denominator is 0")
    return g, (k, a, b), k * tp + smooth, den


def _seg_loss(loss: str, pred, target, alpha: float, beta: float, smooth: float) -> float:
    _, _, num, den = _ratio(loss, pred, target, alpha, beta, smooth)
    return 1.0 - num / den


def soft_dice_loss(pred, target, smooth: float = DEFAULT_SMOOTH) -> float:
    """1 - (2*overlap + smooth) / (total mass + smooth)."""
    return _seg_loss("dice", pred, target, 0.5, 0.5, smooth)


def tversky_loss(
    pred, target, alpha: float = 0.5, beta: float = 0.5, smooth: float = DEFAULT_SMOOTH
) -> float:
    """Tversky loss: alpha weights false negatives, beta false positives.

    At alpha = beta = 0.5 and smooth = 0 this reduces to soft_dice_loss,
    bitwise. Raising alpha penalizes misses, useful when the foreground is a
    tiny fraction of the volume.
    """
    return _seg_loss("tversky", pred, target, alpha, beta, smooth)


def seg_loss_grad(
    loss: str,
    pred,
    target,
    alpha: float = 0.5,
    beta: float = 0.5,
    smooth: float = DEFAULT_SMOOTH,
) -> np.ndarray:
    """Exact gradient of a segmentation loss w.r.t. each predicted probability.

    ``loss`` is "dice" or "tversky"; alpha/beta apply to tversky only.
    Returns an array of the prediction's shape.
    """
    g, (k, a, b), num, den = _ratio(loss, pred, target, alpha, beta, smooth)
    # d num/dp = k*g and d den/dp = (k - a - b)*g + b, so the quotient rule
    # is one scaled copy of g plus a constant
    den2 = den * den
    return (-(k * den - (k - a - b) * num) / den2) * g + b * num / den2


def multitask_loss(seg: float, contrastive: float) -> float:
    """Unweighted sum of the segmentation and contrastive losses."""
    try:
        return _real(seg, "seg") + _real(contrastive, "contrastive")
    except ValueError as exc:
        raise NonFiniteError(str(exc)) from exc


def _loss_and_gradient(loss_id: str, point: dict):
    """The loss as a function of its first input, that input, and the analytic gradient.

    ``point`` is read as documented in finite_difference_check. The input is
    a fresh float64 copy, so callers may perturb it in place.
    """
    if loss_id == "contrastive":
        x = np.array(point["batch"], dtype=np.float64)
        tau = point.get("temperature", DEFAULT_TEMPERATURE)
        return (lambda a: contrastive_loss(a, tau)), x, contrastive_loss_grad(x, tau)
    if loss_id in ("dice", "tversky"):
        x = np.array(point["pred"], dtype=np.float64)
        target = np.asarray(point["target"], dtype=np.float64)
        params = point.get("alpha", 0.5), point.get("beta", 0.5), point.get("smooth", DEFAULT_SMOOTH)
        analytic = seg_loss_grad(loss_id, x, target, *params)
        return (lambda a: _seg_loss(loss_id, a, target, *params)), x, analytic
    raise ValueError(f"unknown loss_id {loss_id!r}")


def finite_difference_check(loss_id: str, point: dict, eps: float = 1e-4) -> float:
    """Max relative error between an analytic gradient and central differences.

    ``loss_id`` selects the loss; ``point`` carries its inputs:
      contrastive -- {"batch": 2N x D array, "temperature": tau}
      dice        -- {"pred": array, "target": array, "smooth": s}
      tversky     -- dice keys plus "alpha" and "beta"
    The relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    eps = _real(eps, "eps", above=0)
    func, x, analytic = _loss_and_gradient(loss_id, point)
    return max_rel_error(analytic, central_difference(func, x, eps))


class DescentRecord(NamedTuple):
    """Per-step metrics of the embedding descent demo."""

    loss: float
    positive_similarity: float
    negative_similarity: float


def _pair_similarities(rows: np.ndarray) -> tuple[float, float]:
    unit, _ = _unit_rows(rows)
    sims = unit @ unit.T
    n = rows.shape[0]
    pos = sims[np.arange(0, n, 2), np.arange(1, n, 2)]
    iu, ju = np.triu_indices(n, k=1)
    negative = (ju - iu > 1) | (iu % 2 == 1)
    neg_vals = sims[iu[negative], ju[negative]]
    # a single pair has no negatives; report 0 rather than NaN
    return float(pos.mean()), float(neg_vals.mean()) if neg_vals.size else 0.0


def optimize_embeddings_demo(
    batch_init,
    temperature: float = DEFAULT_TEMPERATURE,
    steps: int = 200,
    step_size: float = 0.5,
) -> list[DescentRecord]:
    """Plain gradient descent on free embedding vectors.

    Runs ``steps`` updates of x <- x - step_size * grad and records loss,
    mean positive-pair cosine and mean negative-pair cosine before each step
    and after the last, so the trajectory has steps + 1 records. Pure
    function of its arguments.
    """
    steps = _int(steps, "steps", low=1)
    step_size = _real(step_size, "step_size", above=0)
    x = np.array(_rows(batch_init), dtype=np.float64)
    trajectory = []
    for _ in range(steps):
        pos, neg = _pair_similarities(x)
        trajectory.append(DescentRecord(contrastive_loss(x, temperature), pos, neg))
        x -= step_size * contrastive_loss_grad(x, temperature)
    pos, neg = _pair_similarities(x)
    trajectory.append(DescentRecord(contrastive_loss(x, temperature), pos, neg))
    return trajectory
