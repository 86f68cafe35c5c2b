"""Independent reference computations shared by ``sulcikit check`` and the tests.

Each oracle computes its answer the slow, obvious way: voxel-by-voxel
neighbour growth, breadth-first flood fill, exhaustive pairwise distances,
explicit loops over a contrastive batch, one-coordinate-at-a-time central
differences, an 8-corner trilinear read per point, a per-voxel warp,
resample and bias product, a direct (not separable) reflected convolution.
This module imports only the standard library and numpy, never another
sulcikit module, so a reference can never quietly become the code it is
meant to check.
"""

from __future__ import annotations

import itertools
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
    "trilinear_read",
    "resample_by_voxel",
    "deform_by_voxel",
    "bias_by_voxel",
    "reflected_blur",
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


def _at(src: np.ndarray, idx):
    """``src[idx]`` at a voxel index of its first three axes, 0 outside the volume."""
    return src[idx] if all(0 <= i < n for i, n in zip(idx, src.shape)) else 0.0


def trilinear_read(src: np.ndarray, coord):
    """Direct evaluation of the 8-corner interpolation with zero padding.

    ``src`` is read at one fractional index ``coord`` of its first three
    axes; a trailing axis (a lattice's three components) is read as a vector.
    """
    base = [math.floor(c) for c in coord]
    frac = [c - b for c, b in zip(coord, base)]
    out = 0.0
    for corner in itertools.product((0, 1), repeat=3):
        w = 1.0
        for f, d in zip(frac, corner):
            w *= f if d else 1.0 - f
        out += w * _at(src, tuple(b + d for b, d in zip(base, corner)))
    return out


def _nearest_read(src: np.ndarray, coord):
    """The voxel nearest ``coord``, ties rounding up (``floor(p + 0.5)``); 0 outside."""
    return _at(src, tuple(math.floor(c + 0.5) for c in coord))


def resample_by_voxel(src: np.ndarray, target_shape, mode: str) -> np.ndarray:
    """Per voxel: target voxel t reads source index ``(t + 0.5) * (S / T) - 0.5``,
    the centre-aligned mapping of S source onto T target voxels, by
    ``trilinear_read`` (float64) or as the nearest voxel (in ``src``'s dtype)."""
    read = trilinear_read if mode == "trilinear" else _nearest_read
    out = np.zeros(target_shape, dtype=np.float64 if mode == "trilinear" else src.dtype)
    scale = [s / t for s, t in zip(src.shape, target_shape)]
    for t in np.ndindex(*target_shape):
        out[t] = read(src, [(t[ax] + 0.5) * scale[ax] - 0.5 for ax in range(3)])
    return out


def deform_by_voxel(labels: np.ndarray, affine, lattice) -> np.ndarray:
    """Per voxel: read the label nearest ``centre + A @ (x + u(x) - centre)``.

    ``u(x)`` is the displacement lattice read by ``trilinear_read`` at x's
    lattice coordinates, the lattice corner-aligned with the volume; a
    lattice of one node per voxel reads each node at frac 0. Ties round up
    (``floor(p + 0.5)``); reads outside the volume give 0.
    """
    shape = labels.shape
    lattice = np.asarray(lattice, dtype=np.float64)
    stretch = [(g - 1) / (n - 1) if n > 1 else 0.0 for g, n in zip(lattice.shape, shape)]
    centre = [(s - 1) / 2.0 for s in shape]
    out = np.zeros(shape, dtype=labels.dtype)
    for x in np.ndindex(*shape):
        u = trilinear_read(lattice, [x[i] * stretch[i] for i in range(3)])
        d = [x[i] + u[i] - centre[i] for i in range(3)]
        p = [centre[i] + sum(affine[i][j] * d[j] for j in range(3)) + affine[i][3]
             for i in range(3)]
        out[x] = _nearest_read(labels, p)
    return out


def bias_by_voxel(voxels: np.ndarray, control: np.ndarray) -> np.ndarray:
    """Per voxel, in float64: ``v * exp(u(x))``.

    ``u(x)`` is the log-field lattice ``control`` read by ``trilinear_read``
    at x's lattice coordinates, the lattice corner-aligned with the volume.
    """
    stretch = [(g - 1) / (n - 1) if n > 1 else 0.0 for g, n in zip(control.shape, voxels.shape)]
    out = np.zeros(voxels.shape)
    for x in np.ndindex(*voxels.shape):
        out[x] = voxels[x] * math.exp(trilinear_read(control, [x[i] * stretch[i] for i in range(3)]))
    return out


def reflected_blur(data: np.ndarray, sigma: float) -> np.ndarray:
    """Direct (not separable) 3-D convolution with the truncated Gaussian, in float64.

    The normalized kernel ``exp(-o^2 / 2 sigma^2)``, ``|o| <= int(3 sigma)``,
    weighs an offset triple by the product of its three 1-D weights. Along an
    axis of length n, index i reads ``m = i mod 2n``, or ``2n - 1 - m`` when
    ``m >= n``: reflection about the edge, repeated for any kernel width.
    """
    radius = int(3 * sigma)
    offsets = np.arange(-radius, radius + 1)
    k1 = np.exp(-(offsets.astype(float) ** 2) / (2 * sigma * sigma))
    k1 /= k1.sum()
    data = np.asarray(data, dtype=np.float64)
    axes = []  # per axis, each offset's reflected source index of every voxel, and its weight
    for n in data.shape:
        m = (np.arange(n)[None, :] + offsets[:, None]) % (2 * n)
        axes.append(list(zip(np.where(m >= n, 2 * n - 1 - m, m), k1)))
    out = np.zeros(data.shape)
    for (ix, wx), (iy, wy), (iz, wz) in itertools.product(*axes):
        out += wx * wy * wz * data[np.ix_(ix, iy, iz)]
    return out
