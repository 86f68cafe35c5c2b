"""Acceptance gate: every release criterion at its stated tolerance.

A criterion that a ``sulcikit check`` row states is run through that row,
by name; the tests below it hold the criteria that no row holds. Each test
prints one ACCEPTANCE PASS/FAIL line so the suite doubles as a
human-readable report (run with ``pytest -s tests/test_acceptance.py``).
"""

import gzip
import json
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csgraph

from sulcikit.checks import run_checks
from sulcikit.cli import main
from sulcikit.metrics import dice, hausdorff
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.oracles import neighbour_offsets
from sulcikit.postproc import connected_components, postprocess_cs
from sulcikit.presets import default_generator_config, default_priors, make_phantom
from sulcikit.synth import generate_sample
from sulcikit.volume import BinaryMask, VoxelGrid


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


# criteria a sulcikit check row states: the row is their only statement, reported here by name
CHECK_ROWS = (
    "nt-xent-fixture",
    "contrastive-degenerate",
    "contrastive-gradient",
    "dice-gradient",
    "tversky-gradient",
    "tversky-dice-identity",
    "contrastive-invariance",
    "descent-demo",
    "generator-determinism",
    "generator-closure",
    "generator-identity",
    "postproc-fixture",
    "hausdorff-oracle",
    "nifti-roundtrip",
)


@pytest.mark.parametrize("name", CHECK_ROWS)
def test_check_row(name):
    (result,) = [r for r in run_checks(name) if r.name == name]
    with criterion(f"{name}: {result.note}"):
        assert result.passed, result


def edge_list_oracle(mask, connectivity):
    """Canonical component labeling from an explicit voxel adjacency graph.

    Every foreground voxel is a node and every pair of neighbouring foreground
    voxels one edge; scipy's sparse-graph components partition the nodes.
    Components are then ranked by size descending, ties broken by their
    smallest linear voxel index. A test-only second opinion on the flood
    fill: it uses ``scipy.sparse.csgraph``, which ``sulcikit.oracles`` (numpy
    only) may not import.
    """
    shape = mask.shape
    fg = np.flatnonzero(mask)
    node = np.cumsum(mask).reshape(shape) - 1  # foreground voxels in linear order
    offsets = neighbour_offsets(connectivity)
    rows, cols = [], []
    # the offsets come in +/- pairs, mirrored about the middle: the second half
    # names each undirected edge once
    for offset in offsets[len(offsets) // 2 :]:
        src = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(offset, shape))
        dst = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(offset, shape))
        both = mask[src] & mask[dst]
        rows.append(node[src][both])
        cols.append(node[dst][both])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(fg), len(fg)))
    n, comp = csgraph.connected_components(graph, directed=False)

    size = np.bincount(comp, minlength=n)
    first = np.full(n, mask.size)
    np.minimum.at(first, comp, fg)
    remap = np.zeros(n, dtype=np.int64)
    remap[np.lexsort((first, -size))] = np.arange(1, n + 1)
    labels = np.zeros(mask.size, dtype=np.int64)
    labels[fg] = remap[comp]
    return labels.reshape(shape)


def test_connected_components_oracle():
    with criterion("component partition matches an edge-list graph oracle on 100 random 32^3 masks x 3 connectivities"):
        rng = np.random.default_rng(3)
        grid = VoxelGrid.from_spacing((32, 32, 32))
        for trial in range(100):
            data = rng.random((32, 32, 32)) < 0.25
            for connectivity in (6, 18, 26):
                ours = connected_components(BinaryMask(grid, data), connectivity)
                expected = edge_list_oracle(data, connectivity)
                assert np.array_equal(ours.labels.voxels.astype(np.int64), expected)


def test_postprocessing_criteria(mask_from):
    with criterion("postproc: idempotent; output subset of input on 50 random masks"):
        rng = np.random.default_rng(4)
        for _ in range(50):
            data = rng.random((12, 12, 12)) < 0.15
            mask = mask_from(data)
            once = postprocess_cs(mask)
            assert not (once.voxels & ~data).any()
            assert np.array_equal(postprocess_cs(once).voxels, once.voxels)


def test_hausdorff_criteria(mask_from):
    with criterion("hausdorff obeys the triangle inequality on 50 random triples (1e-9)"):
        rng = np.random.default_rng(5)
        triples = 0
        while triples < 50:
            masks = [rng.random((10, 10, 10)) < 0.1 for _ in range(3)]
            if not all(m.any() for m in masks):
                continue
            triples += 1
            mx, my, mz = (mask_from(m) for m in masks)
            assert hausdorff(mx, mz) <= hausdorff(mx, my) + hausdorff(my, mz) + 1e-9


def test_dice_fixtures(mask_from):
    with criterion("dice fixtures: identity 1, disjoint 0, half overlap 0.5 (1e-12)"):
        same = np.zeros((4, 4, 4), dtype=bool)
        same[1:3, 1:3, 1:3] = True
        assert abs(dice(mask_from(same), mask_from(same)) - 1.0) < 1e-12

        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert abs(dice(mask_from(a), mask_from(b))) < 1e-12

        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = a[0, 0, 1] = True
        b[0, 0, 0] = b[0, 0, 2] = True
        assert abs(dice(mask_from(a), mask_from(b)) - 0.5) < 1e-12


def test_geometry_preservation():
    with criterion("every generated sample keeps the source shape and spacing"):
        labels = make_phantom(shape=(18, 20, 16), spacing=(1.0, 1.0, 1.25))
        priors = default_priors()
        config = default_generator_config()
        for seed in range(10):
            image, seg = generate_sample(labels, priors, config, seed)
            for vol in (image, seg):
                assert vol.grid.shape == labels.grid.shape
                assert vol.grid.spacing == labels.grid.spacing


def _int16_nifti_bytes(values: np.ndarray) -> bytes:
    """Craft a minimal little-endian int16 single-file NIfTI-1 payload."""
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, *values.shape, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, 4)  # int16
    struct.pack_into("<h", header, 72, 16)
    struct.pack_into("<8f", header, 76, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)  # vox_offset
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    return bytes(header) + b"\x00" * 4 + values.astype("<i2").tobytes(order="F")


def test_nifti_round_trip(tmp_path):
    with criterion("crafted int16 NIfTI reads back bit-identical, plain and gzip"):
        int_data = np.random.default_rng(6).integers(0, 3000, (5, 4, 3)).astype(np.int16)
        payload = _int16_nifti_bytes(int_data)
        plain = tmp_path / "i16.nii"
        plain.write_bytes(payload)
        packed = tmp_path / "i16.nii.gz"
        packed.write_bytes(gzip.compress(payload))
        for path in (plain, packed):
            back = read_nifti(path, kind="labels")
            assert np.array_equal(back.voxels.astype(np.int16), int_data)


def test_end_to_end_cli(tmp_path, capsys):
    with criterion("CLI generate -> postprocess -> evaluate pipeline, deterministic and exit 0"):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for sid in ("s1", "s2"):
            write_nifti(make_phantom(shape=(20, 20, 16)), data_dir / f"{sid}_labels.nii.gz")
        (data_dir / "manifest.json").write_text(json.dumps({
            "entries": [
                {"id": "s1", "label_map_path": "s1_labels.nii.gz"},
                {"id": "s2", "label_map_path": "s2_labels.nii.gz"},
            ],
        }))
        (data_dir / "config.json").write_text(json.dumps({
            "samples_per_subject": 3,
            "master_seed": 3,
        }))

        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        for out in (out_a, out_b):
            code = main(["generate", "--manifest", str(data_dir / "manifest.json"),
                         "--config", str(data_dir / "config.json"), "--out", str(out)])
            assert code == 0
        names = sorted(p.name for p in out_a.glob("*.nii.gz"))
        assert len(names) == 12  # 2 subjects x 3 samples x (img + seg)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        # binarize the generated sulcus segmentations as mock predictions
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        for seg_path in sorted(out_a.glob("*_seg.nii.gz")):
            seg = read_nifti(seg_path, kind="labels")
            sulci = BinaryMask(seg.grid, seg.voxels >= 48)
            write_nifti(sulci, pred_dir / seg_path.name)
            write_nifti(sulci, gt_dir / seg_path.name)

        mask_paths = sorted(str(p) for p in pred_dir.glob("*.nii.gz"))
        assert main(["postprocess", "--in", *mask_paths]) == 0
        cleaned = sorted(pred_dir.glob("*_pp.nii.gz"))
        assert len(cleaned) == 6
        for path in cleaned:
            path.rename(path.with_name(path.name.replace("_pp", "")))

        report_path = tmp_path / "report.json"
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir),
                     "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert len(doc["pairs"]) == 6
        assert doc["summary"]["metrics"]["dsc"]["count"] == 6
        for pair in doc["pairs"]:
            assert pair["dsc"] is not None
