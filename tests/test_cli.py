import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sulcikit import cli
from sulcikit.checks import CHECK_NAMES
from sulcikit.cli import main
from sulcikit.errors import (
    ConfigError,
    MissingPriorError,
    MissingSubstitutionError,
    SulcikitError,
)
from sulcikit.nifti import read_nifti, write_nifti
from sulcikit.postproc import PostprocConfig, connected_components
from sulcikit.presets import default_generator_config, make_phantom
from sulcikit.volume import BinaryMask, VoxelGrid

PHANTOM_SHAPE = (20, 20, 16)
# config_sha256 of the default generator config and priors; a change to their
# serialized form would make resume regenerate every existing sample
DEFAULT_CONFIG_SHA256 = "cd48cf8e73eb8c7640859fe07da587f1898945d80ce7443b5df5b380c48c745f"
# a config that sets every kind of generator field and non-default priors, and its
# config_sha256: reading it must keep the values, so resume keeps its samples
PINNED_CONFIG = {
    "generator": {
        "rotation_range": [[-5, 5], [-10, 10], [0, 0]],
        "elastic_grid": [6, 5, 4],
        "substitution_table": {"9": 1, "48": 2, "49": 3},
        "sulcus_label_start": 9,
        "normalize": False,
    },
    "priors": [
        {"label": 1, "mean_range": [20, 40], "std_range": [3, 10]},
        {"label": 2, "mean_range": [90, 110.5], "std_range": [0, 10]},
        {"label": 3, "mean_range": [140, 160], "std_range": [3, 10]},
    ],
}
PINNED_CONFIG_SHA256 = "2d22272d46bda011643ad6ab31cbc0ebb161f65487e5b5ce5cfa275be5a689f7"


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
            # keys other than the known ones hold subject metadata
            {"id": "s1", "label_map_path": "s1_labels.nii.gz", "age": 63},
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
            # the fixture's config leaves generator and priors at their defaults
            assert record["config_sha256"] == DEFAULT_CONFIG_SHA256

    def test_pinned_config_keeps_its_hash(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        config_path.write_text(json.dumps({**PINNED_CONFIG, "samples_per_subject": 1}))
        out = tmp_path / "out"
        assert main(_generate(manifest_path, config_path, out)) == 0
        listing = json.loads((out / "manifest.json").read_text())["samples"]
        assert [r["config_sha256"] for r in listing] == [PINNED_CONFIG_SHA256] * 2

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

    def test_parallel_jobs_identical(self, dataset, tmp_path):
        manifest_path, config_path = dataset
        out_serial = tmp_path / "serial"
        out_parallel = tmp_path / "parallel"
        assert main(
            ["generate", "--manifest", str(manifest_path), "--config",
             str(config_path), "--out", str(out_serial)]
        ) == 0
        assert main(
            ["generate", "--manifest", str(manifest_path), "--config",
             str(config_path), "--out", str(out_parallel), "--jobs", "4"]
        ) == 0
        names = sorted(p.name for p in out_serial.iterdir())
        assert names == sorted(p.name for p in out_parallel.iterdir())
        assert "manifest.json" in names
        for name in names:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    def test_changed_config_regenerates(self, dataset, tmp_path, capsys):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out)]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in _volume_files(out)}
        old_hash = json.loads((out / "manifest.json").read_text())["samples"][0]["config_sha256"]

        config = json.loads(config_path.read_text())
        config["generator"] = default_generator_config().to_dict()
        config["generator"]["blur_sigma_range"] = [2.0, 2.5]
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        assert main(args) == 0
        assert "(4 new)" in capsys.readouterr().err
        listing = json.loads((out / "manifest.json").read_text())["samples"]
        assert all(r["config_sha256"] != old_hash for r in listing)
        for record in listing:
            assert (out / record["image"]).read_bytes() != before[record["image"]]

    def test_record_without_config_hash_regenerates(self, dataset, tmp_path, capsys):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out)]
        assert main(args) == 0
        written = (out / "manifest.json").read_bytes()
        doc = json.loads(written)
        for record in doc["samples"]:
            del record["config_sha256"]
        (out / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(args) == 0
        assert "(4 new)" in capsys.readouterr().err
        assert (out / "manifest.json").read_bytes() == written

    def test_rerun_after_killed_write_serves_intact_files(
        self, dataset, tmp_path, monkeypatch, fail_mid_write
    ):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out)]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in _volume_files(out)}

        # a run under another config dies in its first sample's image write,
        # leaving the first run's manifest in place
        config = json.loads(config_path.read_text())
        other = dict(config, generator=dict(default_generator_config().to_dict(),
                                            blur_sigma_range=[2.0, 2.5]))
        config_path.write_text(json.dumps(other))
        failed = fail_mid_write(KeyboardInterrupt, lambda name: name.endswith("_img.nii.gz.tmp"))
        with pytest.raises(KeyboardInterrupt):
            main(args)
        monkeypatch.undo()
        assert failed == [".s1_000_img.nii.gz.tmp"]

        config_path.write_text(json.dumps(config))
        assert main(args) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, "manifest.json"])
        for name, data in before.items():
            assert (out / name).read_bytes() == data

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rerun_after_interrupted_other_config_regenerates(
        self, dataset, tmp_path, monkeypatch, jobs
    ):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out), "--jobs", jobs]
        assert main(args) == 0
        before = {name: (out / name).read_bytes() for name in _volume_files(out)}

        # a run under another config is interrupted at its third volume write,
        # after replacing files the first run's manifest listed
        config = json.loads(config_path.read_text())
        other = dict(config, generator=dict(default_generator_config().to_dict(),
                                            blur_sigma_range=[2.0, 2.5]))
        config_path.write_text(json.dumps(other))
        writes = []

        def interrupt_third_write(volume, path):
            writes.append(path)
            if len(writes) == 3:
                raise KeyboardInterrupt
            write_nifti(volume, path)

        with monkeypatch.context() as patch:
            patch.setattr("sulcikit.cli.write_nifti", interrupt_third_write)
            with pytest.raises(KeyboardInterrupt):
                main(args)
        assert any((out / name).read_bytes() != data for name, data in before.items())

        config_path.write_text(json.dumps(config))
        assert main(args) == 0
        for name, data in before.items():
            assert (out / name).read_bytes() == data

    def test_manifest_rewrites_are_throttled(self, tmp_path, monkeypatch):
        root = tmp_path / "data"
        root.mkdir()
        write_nifti(make_phantom(shape=(10, 10, 8)), root / "s_labels.nii.gz")
        manifest_path = root / "manifest.json"
        manifest_path.write_text(json.dumps(
            {"root": ".", "entries": [{"id": "s", "label_map_path": "s_labels.nii.gz"}]}
        ))
        config_path = root / "config.json"
        config_path.write_text(json.dumps({"samples_per_subject": 30, "master_seed": 3}))
        ticks = iter(range(10**6))
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks) * 0.25)
        write_manifest = cli._write_manifest
        writes = []

        def counting_write(path, records):
            writes.append(len(records))
            write_manifest(path, records)

        monkeypatch.setattr(cli, "_write_manifest", counting_write)
        manifests = {}
        counts = {}
        for interval in (cli._MANIFEST_INTERVAL_S, 0.0):
            monkeypatch.setattr(cli, "_MANIFEST_INTERVAL_S", interval)
            writes.clear()
            out = tmp_path / f"out{interval}"
            assert main(["generate", "--manifest", str(manifest_path), "--config",
                         str(config_path), "--out", str(out)]) == 0
            manifests[interval] = (out / "manifest.json").read_bytes()
            counts[interval] = len(writes)
            # the first write lists no records, the last one all 30
            assert writes[0] == 0 and writes[-1] == 30
            assert writes == sorted(set(writes))
        # a clock tick of 0.25 s per sample: a write every fourth sample,
        # against one per sample when unthrottled
        assert counts == {1.0: 9, 0.0: 31}
        assert manifests[1.0] == manifests[0.0]
        assert len(json.loads(manifests[1.0])["samples"]) == 30

    @pytest.mark.parametrize("error", [KeyboardInterrupt, OSError])
    def test_samples_finished_before_a_failure_are_listed(
        self, dataset, tmp_path, monkeypatch, error
    ):
        manifest_path, config_path = dataset
        out = tmp_path / "out"
        monkeypatch.setattr(cli.time, "monotonic", lambda: 0.0)  # no throttled rewrite
        writes = []

        def fail_fifth_write(volume, path):
            writes.append(path)
            if len(writes) == 5:
                raise error("interrupted")
            write_nifti(volume, path)

        monkeypatch.setattr("sulcikit.cli.write_nifti", fail_fifth_write)
        args = ["generate", "--manifest", str(manifest_path), "--config",
                str(config_path), "--out", str(out)]
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main(args)
        else:
            assert main(args) == 2
        listing = json.loads((out / "manifest.json").read_text())["samples"]
        assert [(r["id"], r["sample"]) for r in listing] == [("s1", 0), ("s1", 1)]

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "label, message",
        [(7, "tissue label 7 has no intensity prior"),
         (50, "sulcus label 50 has no substitution entry")],
        ids=["prior", "substitution"],
    )
    def test_unmapped_label_names_its_subject(
        self, dataset, tmp_path, capsys, jobs, label, message
    ):
        manifest_path, config_path = dataset
        s2 = manifest_path.parent / "s2_labels.nii.gz"
        voxels = np.array(read_nifti(s2, kind="labels").voxels)
        voxels[voxels == 3] = label
        write_nifti(make_phantom(shape=voxels.shape).with_voxels(voxels), s2)
        out = tmp_path / "out"
        assert main(_generate(manifest_path, config_path, out) + ["--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"generate: configuration error: subject 's2' ({s2}): {message}\n"
        )
        listing = json.loads((out / "manifest.json").read_text())["samples"]
        assert [(r["id"], r["sample"]) for r in listing] == [("s1", 0), ("s1", 1)]

    def test_substitution_table_default_depends_on_generator_block(self, tmp_path):
        # as the README states: a generator block that omits the table gets {},
        # and only a config with no generator block gets the phantom's table
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"generator": {"normalize": True}}))
        assert cli.RunConfig.from_json(config).generator.substitution_table == {}
        config.write_text(json.dumps({"master_seed": 3}))
        assert cli.RunConfig.from_json(config).generator.substitution_table == {48: 2, 49: 2}

    def test_unknown_run_config_field_is_config_error(self, dataset, tmp_path, capsys):
        manifest_path, config_path = dataset
        config_path.write_text(json.dumps({"samples_per_subjects": 1}))
        out = tmp_path / "out"
        assert main(_generate(manifest_path, config_path, out)) == 1
        assert "unknown run config fields: ['samples_per_subjects']" in capsys.readouterr().err
        assert not out.exists()

    def test_geometry_mismatch_is_io_error(self, tmp_path, capsys):
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
        err = capsys.readouterr().err
        assert "subject 's'" in err
        assert str(root / "sulci.nii.gz") in err and str(root / "tissue.nii.gz") in err

    @pytest.mark.parametrize(
        "manifest, field",
        [({}, "entries"), ({"entries": [{"id": "a"}]}, "label_map_path")],
        ids=["empty-object", "entry-without-label-map"],
    )
    def test_manifest_missing_field_names_file_and_field(
        self, tmp_path, capsys, manifest, field
    ):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["generate", "--manifest", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("generate: configuration error: ")
        assert str(path) in err and repr(field) in err

    def test_run_config_prior_missing_field_names_file_and_field(
        self, dataset, tmp_path, capsys
    ):
        manifest_path, _ = dataset
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"priors": [{"label": 1, "mean_range": [0, 1]}]}))
        assert main(["generate", "--manifest", str(manifest_path), "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "'std_range'" in err

    def test_run_config_prior_unknown_field_is_config_error(self, dataset, tmp_path, capsys):
        manifest_path, _ = dataset
        config = tmp_path / "c.json"
        entry = {"label": 1, "mean_range": [1, 2], "std_range": [0, 1], "std_rnage": [5, 9]}
        config.write_text(json.dumps({"priors": [entry]}))
        out = tmp_path / "o"
        assert main(["generate", "--manifest", str(manifest_path), "--config", str(config),
                     "--out", str(out)]) == 1
        assert "unknown prior entry fields: ['std_rnage']" in capsys.readouterr().err
        assert not out.exists()


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

    def test_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["postprocess", "--in", "m.nii"])
        assert PostprocConfig(args.radius, args.connectivity, args.keep) == PostprocConfig()

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

    def test_csv_columns_and_empty_prediction_row(self, tmp_path):
        pred, gt = self._cohort(tmp_path)
        gt_data = np.zeros((6, 6, 6), dtype=bool)
        gt_data[2:4, 2:4, 2:4] = True
        _write_mask(np.zeros_like(gt_data), pred / "a.nii.gz")
        _write_mask(gt_data, gt / "a.nii.gz")
        csv_file = tmp_path / "report.csv"
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt),
                     "--out", str(tmp_path / "report.json"), "--csv", str(csv_file)]) == 0
        assert csv_file.read_text().splitlines() == [
            "id,dsc,hd_mm,pred_volume_mm3,gt_volume_mm3,pred_surface_mm2,gt_surface_mm2",
            "a,0.0,,0.0,8.0,0.0,24.0",  # Hausdorff to an empty prediction is undefined
        ]
        assert csv_file.read_bytes().count(b"\r\n") == 2  # the csv module's row ends

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, flag):
        """A write cut short, here by a 64-byte file-size limit as a full disk
        would, exits 2 and leaves neither a file under the final name nor a temp file."""
        pred, gt = self._cohort(tmp_path)
        data = np.zeros((6, 6, 6), dtype=bool)
        data[2:4, 2:4, 2:4] = True
        for stem in ("a", "b", "c"):
            _write_mask(data, pred / f"{stem}.nii.gz")
            _write_mask(data, gt / f"{stem}.nii.gz")
        src = Path(cli.__file__).parents[1]  # ``python -m`` puts its cwd on sys.path
        done = subprocess.run(
            [sys.executable, "-m", "sulcikit.cli", "evaluate", "--pred", str(pred),
             "--gt", str(gt), flag, str(tmp_path / "report")],
            cwd=src, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64)),
        )
        assert done.returncode == 2
        assert done.stderr.startswith("evaluate: ") and "Traceback" not in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gt", "pred"]

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_two_files_of_one_stem_exit_2_naming_both(self, tmp_path, capsys, monkeypatch, side):
        dirs = dict(zip(("pred", "gt"), self._cohort(tmp_path)))
        data = np.zeros((6, 6, 6), dtype=bool)
        data[2, 2, 2] = True
        for directory in dirs.values():
            _write_mask(data, directory / "x.nii.gz")
        _write_mask(data, dirs[side] / "x.nii")
        monkeypatch.setattr("sulcikit.cli.read_nifti", None)  # no pair may be read
        assert main(["evaluate", "--pred", str(dirs["pred"]), "--gt", str(dirs["gt"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("evaluate: ") and captured.err.count("\n") == 1
        assert str(dirs[side] / "x.nii") in captured.err
        assert str(dirs[side] / "x.nii.gz") in captured.err

    def test_malformed_header_exits_2(self, tmp_path, capsys, malformed_nifti):
        mutate, _, _ = malformed_nifti
        pred, gt = self._cohort(tmp_path)
        data = np.zeros((4, 4, 4), dtype=bool)
        data[1, 1, 1] = True
        for directory in (pred, gt):
            # both files corrupted alike: the grids agree, so the read itself must fail
            path = directory / "a.nii"
            _write_mask(data, path)
            path.write_bytes(mutate(path.read_bytes()))
        assert main(["evaluate", "--pred", str(pred), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "grids differ" not in err


class TestCheck:
    def test_filtered_check_passes(self, capsys):
        assert main(["check", "--filter", "nt-xent"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        fixture = [c for c in doc["checks"] if c["name"] == "nt-xent-fixture"][0]
        assert fixture["observed"] == pytest.approx(0.551445, abs=1e-6)

    @pytest.mark.parametrize("name", ["contrastive-gradient", "dice-gradient", "tversky-gradient"])
    def test_fault_injection_fails_named_check(self, capsys, name):
        code = main(["check", "--filter", "gradient", "--inject-fault", name])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        failing = [c for c in doc["checks"] if not c["passed"]]
        assert [c["name"] for c in failing] == [name]

    @pytest.mark.parametrize(
        "selected, faulted, message",
        [
            ("hausdorff", "hausdorff-oracle", "has no fault mode"),
            ("nt-xent", "dice-gradient", "excludes the faulted check"),
        ],
        ids=["no-fault-mode", "filtered-out"],
    )
    def test_fault_that_cannot_apply_is_config_error(self, capsys, selected, faulted, message):
        assert main(["check", "--filter", selected, "--inject-fault", faulted]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_full_suite_passes(self, capsys):
        assert main(["check"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in doc["checks"]] == list(CHECK_NAMES)
        assert len(CHECK_NAMES) == 15
        assert all(c["passed"] is True for c in doc["checks"])
        keys = {"name", "passed", "tolerance", "observed", "expected", "note"}
        assert all(set(c) == keys for c in doc["checks"])

    def test_unknown_filter_is_config_error(self):
        assert main(["check", "--filter", "no-such-check"]) == 1


def _inf_srow(path):
    """Overwrite srow_x[0] of the .nii at ``path`` with +inf."""
    raw = bytearray(path.read_bytes())
    raw[280:284] = np.float32(np.inf).tobytes()
    path.write_bytes(bytes(raw))


def _mask_pair(tmp_path):
    """A pred/ and a gt/ directory holding one identical mask ``a.nii``."""
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    data = np.zeros((6, 6, 6), dtype=bool)
    data[2:4, 2:4, 2:4] = True
    for directory in (pred, gt):
        directory.mkdir()
        _write_mask(data, directory / "a.nii")
    return pred, gt


def _generate(manifest_path, config_path, out):
    return ["generate", "--manifest", str(manifest_path), "--config", str(config_path),
            "--out", str(out)]


def _probe_evaluate_out_in_missing_dir(tmp_path, dataset):
    pred, gt = _mask_pair(tmp_path)
    out = tmp_path / "nodir" / "r.json"
    return ["evaluate", "--pred", str(pred), "--gt", str(gt), "--out", str(out)], 2


def _probe_evaluate_csv_in_missing_dir(tmp_path, dataset):
    pred, gt = _mask_pair(tmp_path)
    out = tmp_path / "nodir" / "r.csv"
    return ["evaluate", "--pred", str(pred), "--gt", str(gt), "--csv", str(out)], 2


def _probe_generate_out_is_a_file(tmp_path, dataset):
    out = tmp_path / "taken"
    out.write_text("")
    return _generate(*dataset, out), 1


def _probe_run_config_is_a_list(tmp_path, dataset):
    manifest_path, config_path = dataset
    config_path.write_text("[1]")
    return _generate(manifest_path, config_path, tmp_path / "out"), 1


def _probe_manifest_samples_not_records(tmp_path, dataset):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"samples": [1]}))
    return _generate(*dataset, out), 0


def _probe_manifest_is_a_list(tmp_path, dataset):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text("[1]")
    return _generate(*dataset, out), 0


def _probe_degenerate_lattice(tmp_path, dataset):
    manifest_path, config_path = dataset
    config_path.write_text(json.dumps({"generator": {"elastic_grid": [1, 1, 1]}}))
    return _generate(manifest_path, config_path, tmp_path / "out"), 1


def _generate_with_config(tmp_path, dataset, config):
    manifest_path, config_path = dataset
    config_path.write_text(json.dumps(config))
    return _generate(manifest_path, config_path, tmp_path / "out")


def _probe_one_value_range(tmp_path, dataset):
    return _generate_with_config(tmp_path, dataset, {"generator": {"blur_sigma_range": [1]}}), 1


def _probe_one_value_prior_range(tmp_path, dataset):
    priors = [{"label": label, "mean_range": [1], "std_range": [3, 10]} for label in (1, 2, 3)]
    return _generate_with_config(tmp_path, dataset, {"priors": priors}), 1


def _probe_three_value_range(tmp_path, dataset):
    # the phantom's table, so that nothing but the third value is at fault
    generator = {"blur_sigma_range": [0.5, 1.0, 9.0], "substitution_table": {"48": 2, "49": 2}}
    return _generate_with_config(tmp_path, dataset, {"generator": generator}), 1


def _probe_substitution_table_is_a_list(tmp_path, dataset):
    generator = {"substitution_table": [1, 2]}
    return _generate_with_config(tmp_path, dataset, {"generator": generator}), 1


def _config_probe(name, config):
    def probe(tmp_path, dataset):
        return _generate_with_config(tmp_path, dataset, config), 1

    probe.__name__ = f"_probe_{name}"
    return probe


def _manifest_probe(name, manifest):
    def probe(tmp_path, dataset):
        manifest_path, config_path = dataset
        manifest_path.write_text(json.dumps(manifest))
        return _generate(manifest_path, config_path, tmp_path / "out"), 1

    probe.__name__ = f"_probe_{name}"
    return probe


def _prior_config(field, value):
    """Valid priors for the phantom's tissue labels, with label 1's ``field`` set to ``value``."""
    priors = [{"label": label, "mean_range": [1, 2], "std_range": [0, 1]} for label in (1, 2, 3)]
    priors[0][field] = value
    return {"priors": priors}


# NaN and Infinity (which json reads and writes), a digit string in place of a
# pair, which a reader that iterated it would take as [1, 2], and a bool
_BAD_RANGES = {
    "nan": [float("nan"), 1], "infinity": [0, float("inf")], "digit_string": "12", "bool": [True, 1],
}

# the field each run-config or manifest probe's one-line error must name
_FIELD_AT_FAULT = {
    _probe_one_value_range: "blur_sigma_range",
    _probe_one_value_prior_range: "mean_range[1]",
    _probe_three_value_range: "blur_sigma_range",
    _probe_substitution_table_is_a_list: "substitution_table",
    _config_probe("fractional_count", {"samples_per_subject": 1.7}): "samples_per_subject",
    _config_probe("bool_count", {"samples_per_subject": True}): "samples_per_subject",
    _config_probe("string_seed", {"master_seed": "x"}): "master_seed",
    _config_probe("fractional_lattice", {"generator": {"elastic_grid": [2.9, 2, 2]}}):
        "elastic_grid[0]",
    _config_probe("string_lattice", {"generator": {"elastic_grid": ["a", 2, 2]}}):
        "elastic_grid[0]",
    _config_probe("fractional_table_value",
                  {"generator": {"substitution_table": {"48": 2.5, "49": 2}}}):
        "substitution_table[48]",
    _config_probe("negative_table_key",
                  {"generator": {"substitution_table": {"-1": 3, "48": 2, "49": 2}}}):
        "substitution_table key -1",
    _config_probe("table_key_past_uint16",
                  {"generator": {"substitution_table": {"70000": 3, "48": 2, "49": 2}}}):
        "substitution_table key 70000",
    _config_probe("non_numeric_table_key", {"generator": {"substitution_table": {"abc": 2}}}):
        "substitution_table key abc",
    _config_probe("string_sulcus_label_start",
                  {"generator": {"substitution_table": {"48": 2, "49": 2},
                                 "sulcus_label_start": "forty-eight"}}): "sulcus_label_start",
    _config_probe("string_normalize",
                  {"generator": {"substitution_table": {"48": 2, "49": 2}, "normalize": "no"}}):
        "normalize",
    _config_probe("generator_is_a_list", {"generator": [1, 2]}): "generator",
    **{_config_probe(f"{field}_{kind}", {"generator": {field: value}}): field
       for field in ("rotation_range", "elastic_std_range", "blur_sigma_range", "bias_std_range")
       for kind, value in _BAD_RANGES.items()},
    **{_config_probe(f"prior_{field}_{kind}", _prior_config(field, value)): f"{field}[1]"
       for field in ("mean_range", "std_range") for kind, value in _BAD_RANGES.items()},
    # labels 2 and 3 are present, so a reader that truncated 1.5 to 1 would generate
    _config_probe("fractional_prior_label", {"priors": [
        {"label": label, "mean_range": [1, 2], "std_range": [0, 1]} for label in (1.5, 2, 3)
    ]}): "label",
    _config_probe("priors_is_an_object", {"priors": {"label": 1}}): "priors",
    _config_probe("numeric_output_dir", {"output_dir": 5}): "output_dir",
    _config_probe("zero_output_dir", {"output_dir": 0}): "output_dir",
    _config_probe("empty_output_dir", {"output_dir": ""}): "output_dir",
    _manifest_probe("entries_is_an_object", {"entries": {"a": 1}}): "entries",
    _manifest_probe("numeric_label_map_path", {"entries": [{"id": "a", "label_map_path": 5}]}):
        "label_map_path",
    _manifest_probe("false_tissue_map_path", {"entries": [
        {"id": "s1", "label_map_path": "s1_labels.nii.gz", "tissue_map_path": False}
    ]}): "tissue_map_path",
    # an id is a prefix of the file names written under --out
    **{_manifest_probe(f"{name}_id", {"entries": [{"id": sid, "label_map_path": "s1.nii.gz"}]}):
       "id"
       for name, sid in [("parent_dir", "../escaped"), ("null", None), ("nested", "a/b"),
                         ("backslash", "a\\b"), ("empty", ""), ("dot", "."), ("number", 7)]},
}


def _probe_inf_srow_evaluate(tmp_path, dataset):
    pred, gt = _mask_pair(tmp_path)
    _inf_srow(pred / "a.nii")
    _inf_srow(gt / "a.nii")  # equal grids: no GridMismatchError to hide behind
    return ["evaluate", "--pred", str(pred), "--gt", str(gt)], 2


def _probe_inf_srow_postprocess(tmp_path, dataset):
    pred, _ = _mask_pair(tmp_path)
    _inf_srow(pred / "a.nii")
    return ["postprocess", "--in", str(pred / "a.nii")], 2


def _probe_inf_srow_generate(tmp_path, dataset):
    manifest_path, config_path = dataset
    path = manifest_path.parent / "s1.nii"
    write_nifti(make_phantom(shape=PHANTOM_SHAPE), path)
    _inf_srow(path)
    manifest_path.write_text(json.dumps({"entries": [{"id": "s1", "label_map_path": "s1.nii"}]}))
    return _generate(manifest_path, config_path, tmp_path / "out"), 2


def _probe_negative_radius(tmp_path, dataset):
    pred, _ = _mask_pair(tmp_path)
    return ["postprocess", "--in", str(pred / "a.nii"), "--radius", "-1"], 1


def _probe_evaluate_missing_dir(tmp_path, dataset):
    return ["evaluate", "--pred", str(tmp_path / "p"), "--gt", str(tmp_path / "g")], 2


def _probe_check_unknown_fault(tmp_path, dataset):
    return ["check", "--inject-fault", "no-such-check"], 1


def _probe_zero_jobs(tmp_path, dataset):
    return _generate(*dataset, tmp_path / "out") + ["--jobs", "0"], 1


def _probe_negative_jobs(tmp_path, dataset):
    return _generate(*dataset, tmp_path / "out") + ["--jobs", "-2"], 1


def _probe_unknown_connectivity(tmp_path, dataset):
    pred, _ = _mask_pair(tmp_path)
    return ["postprocess", "--in", str(pred / "a.nii"), "--connectivity", "7"], 1


def _probe_non_integer_radius(tmp_path, dataset):
    pred, _ = _mask_pair(tmp_path)
    return ["postprocess", "--in", str(pred / "a.nii"), "--radius", "x"], 1


def _probe_non_integer_jobs(tmp_path, dataset):
    return _generate(*dataset, tmp_path / "out") + ["--jobs", "x"], 1


def _probe_non_integer_seed(tmp_path, dataset):
    return _generate(*dataset, tmp_path / "out") + ["--seed", "x"], 1


def _probe_unknown_flag(tmp_path, dataset):
    pred, gt = _mask_pair(tmp_path)
    return ["evaluate", "--pred", str(pred), "--gt", str(gt), "--no-such-flag"], 1


def _probe_unknown_top_level_flag(tmp_path, dataset):
    return ["--no-such-flag"], 1


def _probe_missing_manifest_flag(tmp_path, dataset):
    return ["generate", "--out", str(tmp_path / "out")], 1


def _probe_unknown_command(tmp_path, dataset):
    return ["frobnicate"], 1


def _probe_no_command(tmp_path, dataset):
    return [], 1


# usage errors: argparse would exit 2 with a usage block
_FLAG_PROBES = (
    _probe_unknown_connectivity,
    _probe_non_integer_radius,
    _probe_non_integer_jobs,
    _probe_non_integer_seed,
    _probe_unknown_flag,
    _probe_unknown_top_level_flag,
    _probe_missing_manifest_flag,
    _probe_unknown_command,
    _probe_no_command,
)

_COMMANDS = ("generate", "postprocess", "evaluate", "check")


def _command_of(argv):
    """The prefix of a one-line error: the command, or the program when argv names none."""
    return argv[0] if argv[:1] and argv[0] in _COMMANDS else "sulcikit"


_PROBES = (
    _probe_evaluate_out_in_missing_dir,
    _probe_evaluate_csv_in_missing_dir,
    _probe_generate_out_is_a_file,
    _probe_run_config_is_a_list,
    _probe_manifest_samples_not_records,
    _probe_manifest_is_a_list,
    _probe_degenerate_lattice,
    _probe_inf_srow_evaluate,
    _probe_inf_srow_postprocess,
    _probe_inf_srow_generate,
    _probe_negative_radius,
    _probe_evaluate_missing_dir,
    _probe_check_unknown_fault,
    _probe_zero_jobs,
    _probe_negative_jobs,
    *_FLAG_PROBES,
    *_FIELD_AT_FAULT,
)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


_SULCIKIT_ERRORS = [SulcikitError, *_all_subclasses(SulcikitError)]


class TestExitCodes:
    @pytest.mark.parametrize("probe", _PROBES, ids=lambda p: p.__name__[len("_probe_"):])
    def test_malformed_input_ends_in_documented_code(self, dataset, tmp_path, capsys, probe):
        argv, expected = probe(tmp_path, dataset)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == expected
        assert "Traceback" not in err
        if code:
            kind = "configuration error: " if code == 1 else ""
            assert err.startswith(f"{_command_of(argv)}: {kind}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sulcikit")

    @pytest.mark.parametrize(
        "probe", _FIELD_AT_FAULT, ids=lambda p: p.__name__[len("_probe_"):]
    )
    def test_malformed_run_config_names_the_field(self, dataset, tmp_path, capsys, probe):
        argv, _ = probe(tmp_path, dataset)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"generate: configuration error: {_FIELD_AT_FAULT[probe]} ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_degenerate_lattice_fails_before_any_sample(self, dataset, tmp_path, capsys):
        argv, _ = _probe_degenerate_lattice(tmp_path, dataset)
        assert main(argv) == 1
        assert "configuration error: elastic_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_output_manifest_regenerates_cleanly(self, dataset, tmp_path):
        argv, _ = _probe_manifest_is_a_list(tmp_path, dataset)
        assert main(argv) == 0
        fresh = tmp_path / "fresh"
        assert main(_generate(*dataset, fresh)) == 0
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in (tmp_path / "out").iterdir())
        for name in names:
            assert (fresh / name).read_bytes() == (tmp_path / "out" / name).read_bytes()

    @pytest.mark.parametrize("error", _SULCIKIT_ERRORS, ids=lambda e: e.__name__)
    def test_every_sulcikit_error_maps_to_1_or_2(
        self, dataset, tmp_path, monkeypatch, capsys, error
    ):
        def fail(*args, **kwargs):
            # BaseException.__new__ sets args without running a custom __init__
            raise error.__new__(error, "injected")

        pred, gt = _mask_pair(tmp_path)
        # (what each command calls, that command's argv)
        commands = [
            ("generate_sample", _generate(*dataset, tmp_path / "out")),
            ("postprocess_cs", ["postprocess", "--in", str(pred / "a.nii")]),
            ("evaluate_pair", ["evaluate", "--pred", str(pred), "--gt", str(gt)]),
            ("checks_mod.run_checks", ["check"]),
        ]
        expected = 1 if issubclass(
            error, (ConfigError, MissingPriorError, MissingSubstitutionError)
        ) else 2
        for target, argv in commands:
            with monkeypatch.context() as patch:
                patch.setattr(f"sulcikit.cli.{target}", fail)
                assert main(argv) == expected
            err = capsys.readouterr().err
            assert err.startswith(f"{argv[0]}: ") and err.rstrip().endswith("injected")

    def test_entrypoint_prints_no_traceback(self, tmp_path):
        pred, gt = _mask_pair(tmp_path)
        out = tmp_path / "nodir" / "r.json"
        src = Path(cli.__file__).parents[1]  # ``python -m`` puts its cwd on sys.path
        done = subprocess.run(
            [sys.executable, "-m", "sulcikit.cli", "evaluate", "--pred", str(pred),
             "--gt", str(gt), "--out", str(out)],
            cwd=src, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("evaluate: ") and "Traceback" not in done.stderr
