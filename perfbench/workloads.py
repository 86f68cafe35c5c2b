"""The three benchmark workloads, their seeded inputs and their output checks.

Each workload builds its inputs from the run seed alone, runs one item
(sample, pair or training step) at a time, and checks every
output against an oracle that does not share code with sulcikit. With a
Tracer, an item runs through a "mirror": the same public calls made one by
one inside spans, whose outputs must equal the real call's bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import directed_hausdorff

from sulcikit import cli, losses, metrics, nifti, postproc, presets, synth, volume

HEAD_SHAPE = (160, 192, 160)  # ~1 mm head crop
HEAD_2MM_SHAPE = (80, 96, 80)  # ~2 mm head crop: many items per run, smaller working set
PHANTOM_SHAPE = (48, 48, 40)  # the bundled phantom's default size
SULCUS_LABELS = (presets.SULCUS_LEFT, presets.SULCUS_RIGHT)
TRAIN_SHAPE = (96, 96, 96)
EMBED_PAIRS, EMBED_DIM = 64, 128
JOBS_CHECK_SAMPLES = 4
SETUP_INDEX = 2**32 - 1  # seeds set-up inputs; never an item index


def item_seed(seed: int, index: int) -> int:
    """Input seed of item ``index``; deliberately not sulcikit's own mix_seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def files_digest(directory: Path) -> str:
    """Digest of every file's name and bytes; equal digests mean identical outputs."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---- independent oracles -------------------------------------------------

def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def hausdorff_oracle(x: np.ndarray, y: np.ndarray, spacing) -> float:
    """Symmetric Hausdorff distance between foreground coordinates, in mm, via scipy."""
    sp = np.asarray(spacing, dtype=np.float64)
    a, b = np.argwhere(x) * sp, np.argwhere(y) * sp
    return max(directed_hausdorff(a, b)[0], directed_hausdorff(b, a)[0])


def dice_from_counts(x: np.ndarray, y: np.ndarray) -> float:
    both = int(np.count_nonzero(x & y))
    return 2.0 * both / (int(np.count_nonzero(x)) + int(np.count_nonzero(y)))


def rows_orthogonal(grad: np.ndarray, rows: np.ndarray, rel: float = 1e-9) -> bool:
    """Every gradient row is orthogonal to its embedding row."""
    dots = np.abs(np.einsum("ij,ij->i", grad, rows))
    scale = np.linalg.norm(grad, axis=1) * np.linalg.norm(rows, axis=1)
    return bool((dots <= rel * scale + 1e-300).all())


class Checks:
    """Pass counts per named output check."""

    def __init__(self):
        self.results: dict[str, list[int]] = {}
        self.failures = 0

    def __call__(self, name: str, ok) -> bool:
        ok = bool(ok)
        counts = self.results.setdefault(name, [0, 0])
        counts[0] += ok
        counts[1] += 1
        self.failures += not ok
        return ok


@dataclass
class Item:
    """One measured item: timings in seconds and a fingerprint of its outputs."""

    timings: dict
    fingerprint: str


def _write(vol, path: Path, tr, item) -> None:
    with tr.span("nifti.write", item) as counts:
        nifti.write_nifti(vol, path)
    counts["bytes"] = path.stat().st_size


def _read_mask(path: Path, tr, item) -> volume.BinaryMask:
    """What the CLI's postprocess and evaluate commands do to load a mask."""
    with tr.span("nifti.read", item):
        labels = nifti.read_nifti(path, kind="labels")
    return volume.BinaryMask(labels.grid, labels.voxels != 0)


def _arrays(obj) -> list[np.ndarray]:
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, synth.DeformationField):
        return [obj.displacement]
    if hasattr(obj, "voxels"):
        return [obj.voxels]
    return []


def _subject(directory: Path, labels, samples: int) -> list[str]:
    """Write one subject's label map, manifest and run config; the ``generate`` argv for it."""
    directory.mkdir(parents=True, exist_ok=True)
    nifti.write_nifti(labels, directory / "labels.nii.gz")
    manifest, config = directory / "manifest.json", directory / "config.json"
    manifest.write_text(json.dumps(
        {"root": ".", "entries": [{"id": "subject", "label_map_path": "labels.nii.gz"}]}))
    config.write_text(json.dumps({"samples_per_subject": samples}))
    return ["generate", "--manifest", str(manifest), "--config", str(config)]


class Workload:
    name = ""
    default_shape = HEAD_SHAPE

    def __init__(self, seed: int, work_dir: Path, shape=None):
        self.seed = seed
        self.shape = tuple(shape or self.default_shape)
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Load the fixed inputs through sulcikit; this is what setup_s times."""

    def item(self, i: int, tr, checks: Checks) -> Item:
        raise NotImplementedError

    def finish(self, tr, checks: Checks) -> dict | None:
        """Run-level operation after the items; returns its timings, or None if there is none."""
        return None


class GenerateHeadcrop(Workload):
    """In-process ``sulcikit generate --jobs 1``, one sample per call, on a 2 mm head crop."""

    name = "generate-headcrop"
    default_shape = HEAD_2MM_SHAPE

    def setup(self):
        labels = presets.make_phantom(self.shape)
        self.label_set = set(labels.labels_present())
        self.subject = _subject(self.dir / "subject", labels, 1)

    def _stages(self, labels, priors, c, seed, tr, i):
        """generate_sample's stages, in its order and with its seeds, one span each."""

        def stage(name, fn, *args):
            with tr.span(f"synth.{name}", i, memory=True) as counts:
                out = fn(*args)
            arrays = _arrays(out)
            counts["voxels"] = int(sum(a.size for a in arrays))
            counts["nonzero"] = int(sum(np.count_nonzero(a) for a in arrays))
            counts["bytes_computed"] = int(
                sum(a.nbytes for x in (*args, out) for a in _arrays(x))
            )
            return out

        def blur(image):
            sigma = np.random.default_rng(synth.mix_seed(seed, 4)).uniform(*c.blur_sigma_range)
            return synth.gaussian_blur(image, sigma)

        affine = stage("affine", synth.sample_affine, c, synth.mix_seed(seed, 1))
        field = stage("elastic", synth.sample_elastic, c, labels.grid, synth.mix_seed(seed, 2))
        deformed = stage("deform", synth.deform_labels, labels, affine, field)
        synth_map = stage(
            "substitute", synth.substitute_sulci, deformed, c.substitution_table,
            c.sulcus_label_start,
        )
        image = stage("intensities", synth.sample_intensities, synth_map, priors,
                      synth.mix_seed(seed, 3))
        image = stage("blur", blur, image)
        image = stage("bias", synth.apply_bias_field, image, c, synth.mix_seed(seed, 5))
        if c.normalize:
            image = stage("normalize", synth.normalize_intensity, image)
        return image, deformed

    def _main(self, argv, tr, i, written: dict) -> int:
        """cli.main, with the write_nifti that cli imports keeping each volume it writes.

        Traced, the call and every generate_sample and write_nifti inside it
        run in spans, and generate_sample runs stage by stage.
        """
        real_generate, real_write = cli.generate_sample, cli.write_nifti

        def generate(labels, priors, config, seed):
            with tr.span("cli.generate", i):
                return self._stages(labels, priors, config, seed, tr, i)

        def write(vol, path):
            written[Path(path).name] = vol
            with tr.span("cli.write", i):
                _write(vol, Path(path), tr, i)

        with tr.span("cli.main", i) as counts:
            main = tr.current()
            cli.write_nifti = write
            if tr.enabled:
                cli.generate_sample = generate
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            finally:
                cli.generate_sample, cli.write_nifti = real_generate, real_write
            wall_ms = 1000.0 * (time.perf_counter() - start)
        if tr.enabled:
            busy = tr.busy_ms("cli.generate", main) + tr.busy_ms("cli.write", main)
            counts["utilization"] = busy / wall_ms
        return rc

    def item(self, i, tr, checks):
        out = self.dir / f"out{i}"
        argv = self.subject + ["--seed", str(item_seed(self.seed, i)), "--out", str(out)]
        written = {}
        t0 = time.perf_counter()
        rc = self._main(argv, tr, i, written)
        elapsed = time.perf_counter() - t0

        checks("cli_exit_ok", rc == 0)
        records = json.loads((out / "manifest.json").read_text())["samples"]
        checks("cli_manifest_complete", len(records) == 1)
        image = nifti.read_nifti(out / records[0]["image"])
        seg = nifti.read_nifti(out / records[0]["labels"], kind="labels")
        image_mem, seg_mem = written[records[0]["image"]], written[records[0]["labels"]]
        checks("nifti_readback_equal",
               np.array_equal(image.voxels, image_mem.voxels)
               and np.array_equal(seg.voxels, seg_mem.voxels)
               and np.allclose(image.grid.affine, image_mem.grid.affine))
        checks("image_in_unit_range",
               np.isfinite(image.voxels).all()
               and image.voxels.min() >= 0.0 and image.voxels.max() <= 1.0)
        checks("seg_labels_from_source", set(seg.labels_present()) <= self.label_set)
        fingerprint = files_digest(out)
        shutil.rmtree(out)
        return Item({"item_s": elapsed}, fingerprint)

    def finish(self, tr, checks):
        """``--jobs 2`` must write the same bytes as ``--jobs 1``; phantom size, untimed."""
        subject = _subject(self.dir / "jobs-check", presets.make_phantom(PHANTOM_SHAPE),
                           JOBS_CHECK_SAMPLES)
        seed = str(item_seed(self.seed, SETUP_INDEX))
        digests = []
        for jobs in (2, 1):
            out = self.dir / f"jobs{jobs}"
            rc = cli.main(subject + ["--seed", seed, "--out", str(out), "--jobs", str(jobs)])
            checks("cli_exit_ok", rc == 0)
            digests.append(files_digest(out))
            shutil.rmtree(out)
        checks("jobs2_bytes_equal_serial", digests[0] == digests[1])
        return {}


class EvaluateHeadcrop(Workload):
    """The postprocess and evaluate CLI commands' work on one seeded pair per item."""

    name = "evaluate-headcrop"
    default_shape = HEAD_2MM_SHAPE
    config = postproc.PostprocConfig()

    def setup(self):
        """The phantom's sulcus mask and a zero displacement field, to pose it per item."""
        labels = presets.make_phantom(self.shape)
        mask = volume.binarize(labels, SULCUS_LABELS)
        self.sulci = volume.LabelVolume(mask.grid, mask.voxels)
        self.zero_field = synth.DeformationField(
            labels.grid, np.zeros(self.shape + (3,), dtype=np.float32))
        self.reports = []

    def _ground_truth(self, rng) -> volume.BinaryMask:
        """The sulcus mask under a seeded pose.

        Posed per item, not per run: the metrics' cost depends on the pose, so
        one pose per run would make a run's median depend on its seed.
        """
        affine = synth.sample_affine(synth.GeneratorConfig(), int(rng.integers(2**63)))
        moved = synth.deform_labels(self.sulci, affine, self.zero_field)
        return volume.BinaryMask(moved.grid, moved.voxels != 0)

    def _prediction(self, gt, rng) -> volume.BinaryMask:
        """The ground truth shifted, speckled and given spurious blobs."""
        pred = np.roll(gt.voxels, tuple(rng.integers(-2, 3, size=3)), axis=(0, 1, 2))
        pred.reshape(-1)[rng.integers(0, pred.size, size=pred.size // 20000)] = True
        for _ in range(3):
            r = int(rng.integers(2, 5))
            c = [int(rng.integers(r, s - r)) for s in self.shape]
            x, y, z = np.ogrid[-r:r + 1, -r:r + 1, -r:r + 1]
            ball = x * x + y * y + z * z <= r * r
            pred[c[0] - r:c[0] + r + 1, c[1] - r:c[1] + r + 1, c[2] - r:c[2] + r + 1] |= ball
        return gt.with_voxels(pred)

    def _postprocess(self, mask, tr, i):
        """postprocess_cs, one call per span: dilate, label, keep the largest."""
        c = self.config
        with tr.span("postproc.dilate", i):
            grown = postproc.dilate(mask, c.dilation_radius, c.connectivity)
        with tr.span("postproc.components", i) as counts:
            labeling = postproc.connected_components(grown, c.connectivity)
        counts["raw_components"] = labeling.count
        with tr.span("postproc.keep", i) as counts:
            comp = labeling.labels.voxels
            kept = mask.with_voxels(mask.voxels & (comp > 0) & (comp <= c.keep))
        counts["kept_fraction"] = kept.count / mask.count
        return kept

    def _evaluate(self, pred, gt, identifier, tr, i):
        """evaluate_pair, one metric call per span."""
        with tr.span("metrics.dice", i):
            dsc = metrics.dice(pred, gt)
        with tr.span("metrics.hausdorff", i):
            hd = metrics.hausdorff(pred, gt)
        with tr.span("metrics.volume", i):
            pv, gv = metrics.voxel_volume(pred), metrics.voxel_volume(gt)
        with tr.span("metrics.surface", i):
            ps, gs = metrics.voxel_surface_area(pred), metrics.voxel_surface_area(gt)
        return metrics.PairReport(identifier, dsc, hd, pv, gv, ps, gs)

    def item(self, i, tr, checks):
        rng = np.random.default_rng(item_seed(self.seed, i))
        gt = self._ground_truth(rng)
        raw = self._prediction(gt, rng)
        gt_path = self.dir / f"gt{i}.nii.gz"
        raw_path = self.dir / f"pred{i}.nii.gz"
        pp_path = self.dir / f"pred{i}_pp.nii.gz"
        nifti.write_nifti(gt, gt_path)
        nifti.write_nifti(raw, raw_path)

        t0 = time.perf_counter()
        with tr.span("postprocess", i) as pp_counts:
            mask = _read_mask(raw_path, tr, i)
            if tr.enabled:
                cleaned = self._postprocess(mask, tr, i)
            else:
                cleaned = postproc.postprocess_cs(mask, self.config)
            _write(cleaned, pp_path, tr, i)
        t1 = time.perf_counter()
        with tr.span("evaluate", i) as ev_counts:
            pred = _read_mask(pp_path, tr, i)
            truth = _read_mask(gt_path, tr, i)
            if tr.enabled:
                report = self._evaluate(pred, truth, f"pair{i}", tr, i)
            else:
                report = metrics.evaluate_pair(pred, truth, identifier=f"pair{i}")
        t2 = time.perf_counter()
        self.reports.append(report)
        pp_counts.update(input_foreground=mask.count, kept_foreground=cleaned.count)
        ev_counts.update(pred_foreground=pred.count, gt_foreground=truth.count)

        checks("nifti_readback_equal",
               np.array_equal(pred.voxels, cleaned.voxels)
               and np.array_equal(truth.voxels, gt.voxels))
        checks("postprocess_subset_of_input", not (cleaned.voxels & ~raw.voxels).any())
        checks("inputs_nonempty", gt.count > 0 and cleaned.count > 0)
        spacing = gt.grid.spacing
        checks("hausdorff_vs_scipy",
               close(report.hd_mm, hausdorff_oracle(pred.voxels, truth.voxels, spacing)))
        checks("dice_vs_counts", close(report.dsc, dice_from_counts(pred.voxels, truth.voxels)))
        checks("volume_vs_counts",
               close(report.pred_volume_mm3, cleaned.count * float(np.prod(spacing))))
        fingerprint = digest(cleaned.voxels) + json.dumps(report.to_dict(), sort_keys=True)
        for path in (gt_path, raw_path, pp_path):
            path.unlink()
        timings = {"item_s": t2 - t0, "postprocess_s": t1 - t0, "evaluate_s": t2 - t1}
        return Item(timings, fingerprint)

    def finish(self, tr, checks):
        reports, self.reports = self.reports, []
        t0 = time.perf_counter()
        with tr.span("metrics.aggregate", "run"):
            summary = metrics.aggregate(reports)
        elapsed = time.perf_counter() - t0
        dsc = summary.metrics["dsc"]
        checks("aggregate_matches_pairs",
               dsc.count == len(reports)
               and close(dsc.mean, float(np.mean([r.dsc for r in reports]))))
        return {"aggregate_s": elapsed}


class TrainPrep(Workload):
    """Crop and resample a head-crop pair to 96^3, then segmentation and contrastive losses."""

    name = "train-prep"

    def setup(self):
        self.labels = presets.make_phantom(self.shape)
        tissue = synth.substitute_sulci(self.labels, presets.PHANTOM_SUBSTITUTIONS)
        self.image = synth.sample_intensities(tissue, presets.default_priors(),
                                              item_seed(self.seed, SETUP_INDEX))
        self.label_set = set(self.labels.labels_present())

    def item(self, i, tr, checks):
        rng = np.random.default_rng(item_seed(self.seed, i))
        margin = int(rng.integers(0, 6))
        noise = rng.random(TRAIN_SHAPE)
        batch = rng.standard_normal((2 * EMBED_PAIRS, EMBED_DIM))

        t0 = time.perf_counter()
        with tr.span("volume.crop", i) as crop_counts:
            img_c, img_off = volume.crop_to_content(self.image, margin)
            seg_c, seg_off = volume.crop_to_content(self.labels, margin)
        with tr.span("volume.resample_trilinear", i):
            img_r = volume.resample(img_c, TRAIN_SHAPE, "trilinear")
        with tr.span("volume.resample_nearest", i):
            seg_r = volume.resample(seg_c, TRAIN_SHAPE, "nearest")
        with tr.span("volume.binarize", i):
            target = volume.binarize(seg_r, SULCUS_LABELS)
        t1 = time.perf_counter()
        # stands in for a network's output; not timed
        probs = np.clip(0.6 * target.voxels + 0.4 * noise, 0.0, 1.0)
        t2 = time.perf_counter()
        with tr.span("losses.soft_dice_loss", i):
            dice = losses.soft_dice_loss(probs, target)
        with tr.span("losses.tversky_loss", i):
            tversky = losses.tversky_loss(probs, target, alpha=0.7, beta=0.3)
        with tr.span("losses.seg_loss_grad_dice", i):
            g_dice = losses.seg_loss_grad("dice", probs, target)
        with tr.span("losses.seg_loss_grad_tversky", i):
            g_tversky = losses.seg_loss_grad("tversky", probs, target, alpha=0.7, beta=0.3)
        with tr.span("losses.contrastive_loss", i):
            contrastive = losses.contrastive_loss(batch)
        with tr.span("losses.contrastive_loss_grad", i):
            g_contrastive = losses.contrastive_loss_grad(batch)
        elapsed = (t1 - t0) + (time.perf_counter() - t2)
        crop_counts["voxels"] = img_c.grid.n_voxels + seg_c.grid.n_voxels

        checks("crop_offsets_agree", img_off == seg_off)
        checks("resample_shapes",
               img_r.grid.shape == TRAIN_SHAPE and seg_r.grid.shape == TRAIN_SHAPE)
        checks("resampled_labels_from_source",
               set(seg_r.labels_present()) <= self.label_set and target.count > 0)
        checks("tversky_half_equals_dice_bitwise",
               losses.tversky_loss(probs, target, 0.5, 0.5, smooth=0.0)
               == losses.soft_dice_loss(probs, target, smooth=0.0))
        checks("losses_finite_in_range",
               all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in (dice, tversky))
               and np.isfinite(contrastive)
               and np.isfinite(g_dice).all() and np.isfinite(g_tversky).all())
        checks("contrastive_grad_orthogonal", rows_orthogonal(g_contrastive, batch))
        fingerprint = digest(img_r.voxels, seg_r.voxels, g_dice, g_tversky, g_contrastive,
                             np.array([dice, tversky, contrastive]))
        return Item({"item_s": elapsed}, fingerprint)


WORKLOADS = {w.name: w for w in (GenerateHeadcrop, EvaluateHeadcrop, TrainPrep)}
