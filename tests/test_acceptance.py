"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ACCEPTANCE PASS/FAIL line so the suite doubles as a
human-readable report (run with ``pytest -s tests/test_acceptance.py``).
"""

import gzip
import json
import math
import struct
from contextlib import contextmanager

import numpy as np
import pytest

from sulcikit.cli import main
from sulcikit.losses import (
    contrastive_loss,
    contrastive_loss_grad,
    finite_difference_check,
    optimize_embeddings_demo,
    soft_dice_loss,
    tversky_loss,
)
from sulcikit.metrics import dice, hausdorff
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.postproc import connected_components, postprocess_cs
from sulcikit.presets import default_generator_config, default_priors, make_phantom
from sulcikit.synth import (
    TissuePriors,
    GeneratorConfig,
    generate_sample,
    generate_views,
    substitute_sulci,
)
from sulcikit.volume import BinaryMask, VoxelGrid

from test_metrics import brute_force_hausdorff
from test_postproc import flood_fill_oracle


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def _mask(array, spacing=(1.0, 1.0, 1.0)):
    array = np.asarray(array, dtype=bool)
    return BinaryMask(VoxelGrid.from_spacing(array.shape, spacing), array)


def test_nt_xent_fixture():
    with criterion("NT-Xent fixture equals ln(1 + 2/e) and brute force within 1e-9"):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        loss = contrastive_loss(rows, temperature=1.0)

        def sim(a, b):
            return np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))

        def term(i, j):
            num = math.exp(sim(rows[i], rows[j]))
            den = sum(math.exp(sim(rows[i], rows[k])) for k in range(4) if k != i)
            return -math.log(num / den)

        brute = (term(0, 1) + term(1, 0) + term(2, 3) + term(3, 2)) / 4.0
        assert abs(loss - brute) < 1e-9
        assert abs(loss - math.log(1.0 + 2.0 / math.e)) < 1e-9


def test_degenerate_batch():
    with criterion("single-pair batch gives exactly zero loss and gradient"):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2, 32))
        assert contrastive_loss(rows, 0.5) == 0.0
        assert np.array_equal(contrastive_loss_grad(rows, 0.5), np.zeros((2, 32)))


@pytest.mark.parametrize("loss_id", ["contrastive", "dice", "tversky"])
def test_gradient_checks(loss_id):
    with criterion(f"{loss_id} gradient matches central differences on 20 seeded inputs"):
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(10_000 + seed)
            if loss_id == "contrastive":
                point = {"batch": rng.standard_normal((8, 8)), "temperature": 0.5}
            else:
                point = {
                    "pred": rng.uniform(0.05, 0.95, (4, 4, 4)),
                    "target": (rng.random((4, 4, 4)) < 0.4).astype(float),
                    "smooth": 1.0,
                    "alpha": 0.3,
                    "beta": 0.7,
                }
            worst = max(worst, finite_difference_check(loss_id, point, eps=1e-4))
        assert worst < 1e-5


def test_tversky_dice_identity():
    with criterion("tversky(0.5, 0.5) equals soft dice bitwise on 20 random inputs"):
        for seed in range(20):
            rng = np.random.default_rng(20_000 + seed)
            pred = rng.random((5, 5, 5))
            target = (rng.random((5, 5, 5)) < 0.4).astype(float)
            assert tversky_loss(pred, target, 0.5, 0.5, smooth=0.0) == soft_dice_loss(
                pred, target, smooth=0.0
            )


def test_scale_and_rotation_invariance():
    with criterion("contrastive loss invariant to row scaling and common rotation (1e-6)"):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((8, 12))
        base = contrastive_loss(rows, 0.5)
        for row in range(8):
            scaled = rows.copy()
            scaled[row] *= 1.0 + 2.0 * rng.random()
            assert abs(contrastive_loss(scaled, 0.5) - base) < 1e-6
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        assert abs(contrastive_loss(rows @ q, 0.5) - base) < 1e-6


def test_ssl_descent_demo():
    with criterion("descent demo: loss strictly drops and positives beat negatives"):
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((16, 16))  # N=8 pairs, D=16
        trajectory = optimize_embeddings_demo(
            rows, temperature=0.5, steps=200, step_size=0.5
        )
        assert trajectory[-1].loss < trajectory[0].loss
        assert trajectory[-1].positive_similarity > trajectory[-1].negative_similarity


def test_connected_components_oracle():
    with criterion("component partition matches flood fill on 100 random 32^3 masks x 3 connectivities"):
        rng = np.random.default_rng(3)
        grid = VoxelGrid.from_spacing((32, 32, 32))
        for trial in range(100):
            data = rng.random((32, 32, 32)) < 0.25
            for connectivity in (6, 18, 26):
                ours = connected_components(BinaryMask(grid, data), connectivity)
                expected = flood_fill_oracle(data, connectivity)
                assert np.array_equal(ours.labels.voxels.astype(np.int64), expected)


def test_postprocessing_criteria():
    with criterion("postproc: 10/5/1 blobs keep 15 voxels; idempotent; output subset of input"):
        blobs = np.zeros((30, 12, 12), dtype=bool)
        blobs[1:6, 2:3, 2:4] = True
        blobs[12:17, 2:3, 2:3] = True
        blobs[25, 8, 8] = True
        assert postprocess_cs(_mask(blobs)).count == 15

        rng = np.random.default_rng(4)
        for _ in range(50):
            data = rng.random((12, 12, 12)) < 0.15
            mask = _mask(data)
            once = postprocess_cs(mask)
            assert not (once.voxels & ~data).any()
            assert np.array_equal(postprocess_cs(once).voxels, once.voxels)


def test_hausdorff_criteria():
    with criterion("hausdorff equals brute force on 50 pairs; 3-4-5 fixture; triangle inequality"):
        rng = np.random.default_rng(5)
        pairs = 0
        while pairs < 50:
            a = rng.random((16, 16, 16)) < 0.05
            b = rng.random((16, 16, 16)) < 0.05
            if not (a.any() and b.any()):
                continue
            pairs += 1
            assert hausdorff(_mask(a), _mask(b)) == brute_force_hausdorff(
                a, b, (1.0, 1.0, 1.0)
            )

        x = np.zeros((5, 6, 4), dtype=bool)
        y = np.zeros((5, 6, 4), dtype=bool)
        x[0, 0, 0] = True
        y[3, 4, 0] = True
        assert hausdorff(_mask(x), _mask(y)) == 5.0

        triples = 0
        while triples < 50:
            masks = [rng.random((10, 10, 10)) < 0.1 for _ in range(3)]
            if not all(m.any() for m in masks):
                continue
            triples += 1
            mx, my, mz = (_mask(m) for m in masks)
            assert hausdorff(mx, mz) <= hausdorff(mx, my) + hausdorff(my, mz) + 1e-9


def test_dice_fixtures():
    with criterion("dice fixtures: identity 1, disjoint 0, half overlap 0.5 (1e-12)"):
        same = np.zeros((4, 4, 4), dtype=bool)
        same[1:3, 1:3, 1:3] = True
        assert abs(dice(_mask(same), _mask(same)) - 1.0) < 1e-12

        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = True
        b[3, 3, 3] = True
        assert abs(dice(_mask(a), _mask(b))) < 1e-12

        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros((4, 4, 4), dtype=bool)
        a[0, 0, 0] = a[0, 0, 1] = True
        b[0, 0, 0] = b[0, 0, 2] = True
        assert abs(dice(_mask(a), _mask(b)) - 0.5) < 1e-12


def test_generator_determinism_and_closure():
    with criterion("generator: bit-identical under one seed (serial and parallel), label closure, exact identity painting"):
        labels = make_phantom(shape=(20, 20, 16))
        priors = default_priors()
        config = default_generator_config()

        img_a, seg_a = generate_sample(labels, priors, config, seed=77)
        img_b, seg_b = generate_sample(labels, priors, config, seed=77)
        assert np.array_equal(img_a.voxels, img_b.voxels)
        assert np.array_equal(seg_a.voxels, seg_b.voxels)

        serial = generate_views(labels, priors, config, seed=5, n=4, jobs=1)
        parallel = generate_views(labels, priors, config, seed=5, n=4, jobs=4)
        for (im_s, sg_s), (im_p, sg_p) in zip(serial, parallel):
            assert np.array_equal(im_s.voxels, im_p.voxels)
            assert np.array_equal(sg_s.voxels, sg_p.voxels)

        allowed = set(labels.labels_present()) | {0}
        views = generate_views(labels, priors, config, seed=6, n=100, jobs=4)
        for _, seg in views:
            assert set(seg.labels_present()) <= allowed

        means = {1: 30.0, 2: 100.0, 3: 150.0}
        flat_priors = TissuePriors({l: ((m, m), (0.0, 0.0)) for l, m in means.items()})
        identity = GeneratorConfig.identity(substitution_table={48: 2, 49: 2})
        image, seg = generate_sample(labels, flat_priors, identity, seed=1)
        synth_map = substitute_sulci(labels, identity.substitution_table)
        paint = np.zeros(labels.grid.shape)
        for label, mu in means.items():
            paint[synth_map.voxels == label] = np.float32(mu)
        expected = (paint / max(means.values())).astype(np.float32)
        assert np.array_equal(image.voxels, expected)
        assert np.array_equal(seg.voxels, labels.voxels)


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
    with criterion("NIfTI round trip bit-identical for uint8/int16/float32, plain and gzip"):
        grid = VoxelGrid.from_spacing((5, 4, 3))
        rng = np.random.default_rng(6)

        float_data = rng.random((5, 4, 3)).astype(np.float32)
        from sulcikit.volume import IntensityVolume

        for name in ("f32.nii", "f32.nii.gz"):
            path = tmp_path / name
            write_nifti(IntensityVolume(grid, float_data), path)
            assert np.array_equal(read_nifti(path).voxels, float_data)

        mask_data = rng.random((5, 4, 3)) < 0.5
        for name in ("u8.nii", "u8.nii.gz"):
            path = tmp_path / name
            write_nifti(BinaryMask(grid, mask_data), path)
            back = read_nifti(path, kind="labels")
            assert np.array_equal(back.voxels.astype(bool), mask_data)

        int_data = rng.integers(0, 3000, (5, 4, 3)).astype(np.int16)
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
