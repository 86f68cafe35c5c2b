"""Independent reference computations shared by ``sulcikit check`` and the tests.

Each oracle computes its answer the slow, obvious way: voxel-by-voxel
neighbour growth, breadth-first flood fill, exhaustive pairwise distances,
explicit loops over a contrastive batch, one-coordinate-at-a-time central
differences. This module imports only the standard library and numpy,
never another sulcikit module, so a reference can never quietly become the
code it is meant to check.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

__all__ = [
    "neighbour_offsets",
    "grow_by_neighbours",
    "flood_fill_components",
    "postprocess_by_flood_fill",
    "brute_force_hausdorff",
    "brute_force_pair_term",
    "brute_force_contrastive",
    "central_difference",
    "max_rel_error",
]


def neighbour_offsets(connectivity: int) -> list[tuple[int, int, int]]:
    """The 6, 18 or 26 voxel offsets of a 3D neighbourhood."""
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if manhattan == 0:
                    continue
                if connectivity == 6 and manhattan > 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def _neighbours(shape, connectivity: int):
    """``neighbours(v)``: flat C-order indices of voxel v's in-volume neighbours."""
    nx, ny, nz = shape
    steps = [
        (dx, dy, dz, (dx * ny + dy) * nz + dz) for dx, dy, dz in neighbour_offsets(connectivity)
    ]

    def neighbours(v):
        cx, rest = divmod(v, ny * nz)
        cy, cz = divmod(rest, nz)
        return [
            v + dv
            for dx, dy, dz, dv in steps
            if 0 <= cx + dx < nx and 0 <= cy + dy < ny and 0 <= cz + dz < nz
        ]

    return neighbours


def grow_by_neighbours(mask: np.ndarray, connectivity: int, radius: int) -> np.ndarray:
    """Binary dilation one voxel at a time, ``radius`` times.

    Each step switches on every in-volume neighbour of every foreground
    voxel; nothing outside the volume is kept between steps. Voxels are
    Python values in a flat C-order list, not numpy scalars.
    """
    neighbours = _neighbours(mask.shape, connectivity)
    grown = np.asarray(mask, dtype=bool).ravel().tolist()
    for _ in range(radius):
        step = list(grown)
        for voxel, on in enumerate(grown):
            if on:
                for n in neighbours(voxel):
                    step[n] = True
        grown = step
    return np.array(grown, dtype=bool).reshape(mask.shape)


def flood_fill_components(mask: np.ndarray, connectivity: int) -> np.ndarray:
    """Breadth-first flood fill with the canonical component id ordering.

    Components are ranked by size descending, ties broken by their smallest
    linear voxel index; background is 0. Voxels are Python values in a flat
    C-order list, not numpy scalars.
    """
    neighbours = _neighbours(mask.shape, connectivity)
    flat = np.asarray(mask, dtype=bool).ravel().tolist()
    labels = [0] * len(flat)
    components = []
    next_id = 0
    # starts are visited in C order, so each component's start is its first voxel
    for start, on in enumerate(flat):
        if not on or labels[start]:
            continue
        next_id += 1
        labels[start] = next_id
        size = 1
        queue = deque([start])
        while queue:
            for n in neighbours(queue.popleft()):
                if flat[n] and not labels[n]:
                    labels[n] = next_id
                    size += 1
                    queue.append(n)
        components.append((next_id, size, start))
    components.sort(key=lambda c: (-c[1], c[2]))
    remap = np.zeros(next_id + 1, dtype=np.int64)
    for rank, (raw_id, _, _) in enumerate(components, start=1):
        remap[raw_id] = rank
    return remap[np.array(labels, dtype=np.int64).reshape(mask.shape)]


def postprocess_by_flood_fill(
    mask: np.ndarray, connectivity: int, radius: int, keep: int
) -> np.ndarray:
    """Prediction clean-up from the oracles: grow, flood fill, keep.

    The input voxels whose grown component ranks within ``keep``.
    """
    grown = grow_by_neighbours(mask, connectivity, radius)
    components = flood_fill_components(grown, connectivity)
    return np.asarray(mask, dtype=bool) & (components > 0) & (components <= keep)


def brute_force_hausdorff(x: np.ndarray, y: np.ndarray, spacing) -> float:
    """Exhaustive max-min distance over all foreground voxel pairs."""
    sp = np.asarray(spacing, dtype=np.float64)
    xs = np.argwhere(x).astype(np.float64)
    ys = np.argwhere(y).astype(np.float64)
    d = np.sqrt((((xs[:, None, :] - ys[None, :, :]) * sp) ** 2).sum(axis=2))
    return max(float(d.min(axis=1).max()), float(d.min(axis=0).max()))


def brute_force_pair_term(rows, i: int, j: int, temperature: float) -> float:
    """Direct loop evaluation of the contrastive term for anchor i, positive j."""

    def sim(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    num = math.exp(sim(rows[i], rows[j]) / temperature)
    den = sum(
        math.exp(sim(rows[i], rows[k]) / temperature)
        for k in range(len(rows))
        if k != i
    )
    return -math.log(num / den)


def brute_force_contrastive(rows, temperature: float) -> float:
    """Direct loop evaluation of the paired contrastive loss.

    Rows (2k, 2k+1) are the two views of input k; the loss averages both
    ordered terms of every pair.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n_pairs = rows.shape[0] // 2
    total = 0.0
    for k in range(n_pairs):
        total += brute_force_pair_term(rows, 2 * k, 2 * k + 1, temperature)
        total += brute_force_pair_term(rows, 2 * k + 1, 2 * k, temperature)
    return total / (2 * n_pairs)


def central_difference(func, x: np.ndarray, eps: float) -> np.ndarray:
    """Numerical gradient of scalar ``func`` at ``x``, one entry at a time.

    ``x`` is perturbed in place and restored after each entry.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for k in range(xf.size):
        orig = xf[k]
        xf[k] = orig + eps
        f_plus = func(x)
        xf[k] = orig - eps
        f_minus = func(x)
        xf[k] = orig
        flat[k] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)."""
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
