import json
import struct

import numpy as np
import pytest

from sulcikit.cli import main
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.postproc import connected_components
from sulcikit.presets import make_phantom
from sulcikit.volume import BinaryMask, VoxelGrid

PHANTOM_SHAPE = (20, 20, 16)


@pytest.fixture
def dataset(tmp_path):
    """Two phantom subjects, a manifest and a small run config."""
    root = tmp_path / "data"
    root.mkdir()
    for sid, shape in (("s1", PHANTOM_SHAPE), ("s2", (22, 20, 16))):
        write_nifti(make_phantom(shape=shape), root / f"{sid}_labels.nii.gz")
    manifest = {
        "root": ".",
        "entries": [
            {"id": "s1", "label_map_path": "s1_labels.nii.gz"},
            {"id": "s2", "label_map_path": "s2_labels.nii.gz"},
        ],
    }
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    config = {"samples_per_subject": 2, "master_seed": 11}
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return manifest_path, config_path


def _volume_files(directory):
    return sorted(p.name for p in directory.glob("*.nii.gz"))


class TestGenerate:
    def test_counts_and_manifest(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        code = main(
            ["generate", "--manifest", str(manifest_path), "--config", str(config_path),
             "--out", str(out)]
        )
        assert code == 0
        files = _volume_files(out)
        assert len(files) == 8  # 2 subjects x 2 samples x (img + seg)
        listing = json.loads((out / "manifest.json").read_text())["samples"]
        assert len(listing) == 4
        for record in listing:
            assert (out / record["image"]).exists()
            assert (out / record["labels"]).exists()

    def test_rerun_is_idempotent(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out)]
        assert main(args) == 0
        before_files = {p.name: p.stat().st_mtime_ns for p in out.glob("*.nii.gz")}
        before_manifest = (out / "manifest.json").read_bytes()
        assert main(args) == 0
        after_files = {p.name: p.stat().st_mtime_ns for p in out.glob("*.nii.gz")}
        assert after_files == before_files  # nothing regenerated
        assert (out / "manifest.json").read_bytes() == before_manifest

    def test_same_seed_fresh_dirs_byte_identical(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["generate", "--manifest", str(manifest_path), "--config",
                 str(config_path), "--out", str(out), "--seed", "99"]
            ) == 0
        names = _volume_files(out_a)
        assert names == _volume_files(out_b)
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_output(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, seed in ((out_a, "1"), (out_b, "2")):
            assert main(
                ["generate", "--manifest", str(manifest_path), "--config",
                 str(config_path), "--out", str(out), "--seed", seed]
            ) == 0
        name = _volume_files(out_a)[0]
        assert (out_a / name).read_bytes() != (out_b / name).read_bytes()

    def test_parallel_jobs_identical(self, dataset, tmp_path, monkeypatch):
        manifest_path, config_path = dataset
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        assert main(
            ["generate", "--manifest", str(manifest_path), "--config",
             str(config_path), "--out", str(out_serial)]
        ) == 0
        monkeypatch.setenv("SULCIKIT_JOBS", "4")
        assert main(
            ["generate", "--manifest", str(manifest_path), "--config",
             str(config_path), "--out", str(out_parallel), "--jobs", "1"]
        ) == 0
        for name in _volume_files(out_serial):
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    def test_tissue_map_overlay(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        phantom = make_phantom(shape=PHANTOM_SHAPE)
        tissues = phantom.with_voxels(
            np.where(phantom.voxels >= 48, 0, phantom.voxels).astype(np.uint16)
        )
        sulci = phantom.with_voxels(
            np.where(phantom.voxels >= 48, phantom.voxels, 0).astype(np.uint16)
        )
        write_nifti(tissues, root / "tissue.nii.gz")
        write_nifti(sulci, root / "sulci.nii.gz")
        (root / "m.json").write_text(json.dumps({
            "entries": [{"id": "s", "label_map_path": "sulci.nii.gz",
                         "tissue_map_path": "tissue.nii.gz"}],
        }))
        (root / "c.json").write_text(json.dumps({"samples_per_subject": 1}))
        out = tmp_path / "out"
        assert main(["generate", "--manifest", str(root / "m.json"), "--config",
                     str(root / "c.json"), "--out", str(out)]) == 0
        seg = read_nifti(out / "s_000_seg.nii.gz", kind="labels")
        assert 48 in seg.labels_present() or 49 in seg.labels_present()

    def test_missing_manifest_is_config_error(self, tmp_path):
        assert main(["generate", "--manifest", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_manifest_with_missing_volume_is_config_error(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "entries": [{"id": "a", "label_map_path": "missing.nii.gz"}],
        }))
        assert main(["generate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")]) == 1

    def test_missing_substitution_is_config_error(self, dataset, tmp_path):
        manifest_path, _ = dataset
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({
            "samples_per_subject": 1,
            "generator": {"substitution_table": {}},  # phantom has labels 48/49
        }))
        assert main(["generate", "--manifest", str(manifest_path), "--config",
                     str(config), "--out", str(tmp_path / "o")]) == 1

    def test_geometry_mismatch_is_io_error(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        write_nifti(make_phantom(shape=(20, 20, 16)), root / "sulci.nii.gz")
        write_nifti(make_phantom(shape=(18, 18, 14)), root / "tissue.nii.gz")
        (root / "m.json").write_text(json.dumps({
            "entries": [{"id": "s", "label_map_path": "sulci.nii.gz",
                         "tissue_map_path": "tissue.nii.gz"}],
        }))
        assert main(["generate", "--manifest", str(root / "m.json"),
                     "--out", str(tmp_path / "o")]) == 2


def _write_mask(data, path):
    mask = BinaryMask(VoxelGrid.from_spacing(data.shape), data)
    write_nifti(mask, path)
    return mask


class TestPostprocess:
    def test_clean_mask_fixed_point(self, tmp_path):
        data = np.zeros((16, 16, 16), dtype=bool)
        data[2:6, 4:8, 4:8] = True
        data[10:14, 4:8, 4:8] = True
        path = tmp_path / "clean.nii.gz"
        _write_mask(data, path)
        assert main(["postprocess", "--in", str(path)]) == 0
        out = read_nifti(tmp_path / "clean_pp.nii.gz", kind="labels")
        assert np.array_equal(out.voxels != 0, data)

    def test_noisy_mask_reduced_to_two_components(self, tmp_path):
        data = np.zeros((24, 24, 24), dtype=bool)
        data[2:8, 10:12, 10:12] = True
        data[16:22, 10:12, 10:12] = True
        noisy = data.copy()
        noisy[0, 0, 0] = noisy[23, 23, 23] = noisy[12, 0, 23] = True
        path = tmp_path / "noisy.nii.gz"
        _write_mask(noisy, path)
        assert main(["postprocess", "--in", str(path)]) == 0
        out = read_nifti(tmp_path / "noisy_pp.nii.gz", kind="labels")
        cleaned = BinaryMask(out.grid, out.voxels != 0)
        assert connected_components(cleaned, 26).count == 2
        assert np.array_equal(cleaned.voxels, data)

    def test_missing_input_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "ghost.nii.gz"
        assert main(["postprocess", "--in", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_flags_are_honoured(self, tmp_path):
        data = np.zeros((20, 8, 8), dtype=bool)
        data[2:5, 3, 3] = True
        data[9:11, 3, 3] = True
        data[16, 3, 3] = True
        path = tmp_path / "m.nii.gz"
        _write_mask(data, path)
        assert main(["postprocess", "--in", str(path), "--radius", "0",
                     "--connectivity", "6", "--keep", "1"]) == 0
        out = read_nifti(tmp_path / "m_pp.nii.gz", kind="labels")
        assert int((out.voxels != 0).sum()) == 3  # only the largest blob survives


class TestEvaluate:
    def _cohort(self, tmp_path):
        pred = tmp_path / "pred"
        gt = tmp_path / "gt"
        pred.mkdir()
        gt.mkdir()
        return pred, gt

    def test_identical_dirs(self, tmp_path, capsys):
        pred, gt = self._cohort(tmp_path)
        rng = np.random.default_rng(0)
        for stem in ("a", "b"):
            data = rng.random((8, 8, 8)) < 0.3
            data[4, 4, 4] = True
            _write_mask(data, pred / f"{stem}.nii.gz")
            _write_mask(data, gt / f"{stem}.nii.gz")
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(p["dsc"] == 1.0 and p["hd_mm"] == 0.0 for p in doc["pairs"])
        assert doc["summary"]["metrics"]["dsc"]["mean"] == 1.0

    def test_summary_mean_matches_hand_computation(self, tmp_path):
        pred, gt = self._cohort(tmp_path)
        gt_data = np.zeros((8, 8, 8), dtype=bool)
        gt_data[2:6, 2:6, 2:6] = True  # 64 voxels
        overlaps = {"a": 64, "b": 32, "c": 16}
        for stem, keep in overlaps.items():
            pred_data = np.zeros_like(gt_data)
            pred_data.ravel()[np.flatnonzero(gt_data.ravel())[:keep]] = True
            _write_mask(pred_data, pred / f"{stem}.nii.gz")
            _write_mask(gt_data, gt / f"{stem}.nii.gz")
        out_file = tmp_path / "report.json"
        csv_file = tmp_path / "report.csv"
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(out_file), "--csv", str(csv_file)]) == 0
        doc = json.loads(out_file.read_text())
        expected = {stem: 2 * k / (k + 64) for stem, k in overlaps.items()}
        by_id = {p["id"]: p["dsc"] for p in doc["pairs"]}
        assert by_id == pytest.approx(expected)
        mean = sum(expected.values()) / 3
        assert doc["summary"]["metrics"]["dsc"]["mean"] == pytest.approx(mean, abs=1e-12)
        assert csv_file.read_text().count("\n") == 4  # header + 3 rows

    def test_unmatched_files_warn(self, tmp_path, capsys):
        pred, gt = self._cohort(tmp_path)
        data = np.zeros((6, 6, 6), dtype=bool)
        data[2, 2, 2] = True
        _write_mask(data, pred / "a.nii.gz")
        _write_mask(data, gt / "a.nii.gz")
        _write_mask(data, pred / "only_pred.nii.gz")
        _write_mask(data, gt / "only_gt.nii.gz")
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 0
        captured = capsys.readouterr()
        assert "only_pred" in captured.err
        assert "only_gt" in captured.err
        doc = json.loads(captured.out)
        assert doc["unmatched"] == {"pred": ["only_pred"], "gt": ["only_gt"]}

    def test_empty_gt_dir_exits_3(self, tmp_path):
        pred, gt = self._cohort(tmp_path)
        data = np.zeros((6, 6, 6), dtype=bool)
        data[1, 1, 1] = True
        _write_mask(data, pred / "a.nii.gz")
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 3

    def test_all_flagged_cohort_reports_null_summary(self, tmp_path, capsys):
        pred, gt = self._cohort(tmp_path)
        empty = np.zeros((6, 6, 6), dtype=bool)
        _write_mask(empty, pred / "a.nii.gz")
        _write_mask(empty, gt / "a.nii.gz")
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] is None
        assert doc["pairs"][0]["dsc"] is None
        assert doc["pairs"][0]["hd_mm"] is None

    @pytest.mark.parametrize(
        "offset, payload",
        [(42, struct.pack("<3h", -1, -1, 4)), (108, struct.pack("<f", float("nan")))],
        ids=["two-negative-dims", "nan-vox-offset"],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, offset, payload):
        pred, gt = self._cohort(tmp_path)
        data = np.zeros((4, 4, 4), dtype=bool)
        data[1, 1, 1] = True
        for directory in (pred, gt):
            _write_mask(data, directory / "a.nii")
        path = pred / "a.nii"
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(payload)] = payload
        path.write_bytes(bytes(raw))
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestCheck:
    def test_filtered_check_passes(self, capsys):
        assert main(["check", "--filter", "nt-xent"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        fixture = [c for c in doc["checks"] if c["name"] == "nt-xent-fixture"][0]
        assert fixture["observed"] == pytest.approx(0.551445, abs=1e-6)

    def test_fault_injection_fails_named_check(self, capsys):
        code = main(["check", "--filter", "dice-gradient",
                     "--inject-fault", "dice-gradient"])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        failing = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == ["dice-gradient"]

    def test_unknown_filter_is_config_error(self):
        assert main(["check", "--filter", "no-such-check"]) == 1
