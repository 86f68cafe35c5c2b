"""Command-line entry point: generate, postprocess, evaluate, check.

Machine-readable output (JSON, CSV) goes to stdout or files; human messages
go to stderr. Exit codes are stable: 0 success, 1 configuration error, 2 I/O
or data error, 3 empty pairing, 4 failed self-check. Commands raise, and
``main`` alone maps an error to its exit code, through ``_EXIT_CODES``.
Every command is deterministic given its inputs, flags and master seed,
including under the thread-level parallelism selected with --jobs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import checks as checks_mod
from .errors import (
    ConfigError,
    GridMismatchError,
    MissingPriorError,
    MissingSubstitutionError,
    NoValidEntriesError,
    SulcikitError,
)
from .metrics import aggregate, evaluate_pair
from .nifti import read_nifti, write_atomic, write_nifti
from .postproc import PostprocConfig, postprocess_cs
from .presets import default_generator_config, default_priors
from .synth import GeneratorConfig, TissuePriors, _record, generate_sample, mix_seed
from .volume import BinaryMask, LabelVolume, _int, require_same_grid

__all__ = ["main", "entrypoint", "DatasetManifest", "ManifestEntry", "RunConfig"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NO_PAIRS = 3
EXIT_CHECK_FAILED = 4

# error type -> exit code; the first entry the error is an instance of wins
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    MissingPriorError: EXIT_CONFIG,
    MissingSubstitutionError: EXIT_CONFIG,
    SulcikitError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_IO,
}

_NIFTI_SUFFIXES = (".nii.gz", ".nii")
# shortest time between two manifest rewrites during a generate run
_MANIFEST_INTERVAL_S = 1.0


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _configuration():
    """Mark a command's configuration step: what fails in it is a ConfigError."""
    try:
        yield
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


@contextmanager
def _fields_of(path: Path):
    """Mark the parse of the JSON read from ``path``: a missing key in it is a
    ValueError that names the file and the field."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from exc


def _path(value, name: str, base: Path) -> Path:
    """A path field: a non-empty string, read relative to ``base`` unless absolute."""
    if not isinstance(value, (str, Path)) or value == "":
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return base / value


@dataclass(frozen=True)
class ManifestEntry:
    """One subject: id, label map path, optional separate tissue map."""

    id: str
    label_map_path: Path
    tissue_map_path: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Subject list for generation; ids unique, all paths must exist."""

    entries: tuple[ManifestEntry, ...]

    @classmethod
    def from_json(cls, path) -> "DatasetManifest":
        path = Path(path)
        data = _record(json.loads(path.read_text()), ("root", "entries"), "manifest")
        root = _path(data.get("root", "."), "root", path.parent)
        entries = {}
        with _fields_of(path):
            raws = data["entries"]
            if not isinstance(raws, list) or not raws or not all(isinstance(r, dict) for r in raws):
                raise ValueError(f"entries must be a non-empty list of objects in {path}")
            for raw in raws:
                sid = raw["id"]  # a prefix of the file names written under --out
                if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid or "\\" in sid:
                    raise ValueError(f"id must be a file name with no path separator, got {sid!r}")
                if sid in entries:
                    raise ValueError(f"duplicate manifest id {sid!r}")
                label_path = _path(raw["label_map_path"], "label_map_path", root)
                tissue = raw.get("tissue_map_path")
                tissue_path = None if tissue is None else _path(tissue, "tissue_map_path", root)
                for p in filter(None, (label_path, tissue_path)):
                    if not p.exists():
                        raise ValueError(f"manifest path does not exist: {p}")
                entries[sid] = ManifestEntry(sid, label_path, tissue_path)
        return cls(tuple(entries.values()))


@dataclass(frozen=True)
class RunConfig:
    """Generation run parameters: generator ranges, priors, counts, seed."""

    generator: GeneratorConfig = field(default_factory=default_generator_config)
    priors: TissuePriors = field(default_factory=default_priors)
    samples_per_subject: int = 100
    master_seed: int = 0
    output_dir: Path | None = None

    def __post_init__(self):
        samples = _int(self.samples_per_subject, "samples_per_subject", low=1)
        object.__setattr__(self, "samples_per_subject", samples)
        object.__setattr__(self, "master_seed", _int(self.master_seed, "master_seed"))
        out = None if self.output_dir is None else _path(self.output_dir, "output_dir", Path())
        object.__setattr__(self, "output_dir", out)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        data = _record(json.loads(Path(path).read_text()), cls.__dataclass_fields__, "run config")
        if "generator" in data:
            data["generator"] = GeneratorConfig.from_dict(data["generator"])
        with _fields_of(path):
            if "priors" in data:
                data["priors"] = TissuePriors.from_entries(data["priors"])
        return cls(**data)


def _strip_nifti_suffix(name: str) -> str | None:
    for suffix in _NIFTI_SUFFIXES:
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return None


def _read_mask(path) -> BinaryMask:
    labels = read_nifti(path, kind="labels")
    return BinaryMask(labels.grid, labels.voxels != 0)


def _load_subject_labels(entry: ManifestEntry) -> LabelVolume:
    """Combined label map; a separate sulci map overlays the tissue map."""
    labels = read_nifti(entry.label_map_path, kind="labels")
    if entry.tissue_map_path is None:
        return labels
    tissue = read_nifti(entry.tissue_map_path, kind="labels")
    try:
        require_same_grid(tissue, labels)
    except GridMismatchError as exc:
        raise GridMismatchError(
            f"subject {entry.id!r}: tissue map {entry.tissue_map_path} and label map"
            f" {entry.label_map_path}: {exc}"
        ) from exc
    combined = np.where(labels.voxels != 0, labels.voxels, tissue.voxels)
    return LabelVolume(labels.grid, combined)


def cmd_generate(args) -> int:
    with _configuration():
        jobs = _int(args.jobs, "--jobs", low=1)
        manifest = DatasetManifest.from_json(args.manifest)
        run = RunConfig.from_json(args.config) if args.config else RunConfig()
        master_seed = run.master_seed if args.seed is None else args.seed
        out_dir = Path(args.out) if args.out else run.output_dir
        if out_dir is None:
            raise ValueError("no output directory: pass --out or set output_dir in the config")
        out_dir.mkdir(parents=True, exist_ok=True)

    manifest_path = out_dir / "manifest.json"
    previous = {}
    if manifest_path.exists():
        try:
            for rec in json.loads(manifest_path.read_text())["samples"]:
                previous[(rec["id"], rec["sample"])] = rec
        except (ValueError, KeyError, TypeError) as exc:
            _log(f"generate: ignoring unreadable manifest {manifest_path}: {exc}")

    # a record made under another generator config or other priors is stale
    config_sha256 = hashlib.sha256(json.dumps(
        {"generator": run.generator.to_dict(), "priors": run.priors.to_entries()},
        sort_keys=True,
    ).encode()).hexdigest()
    records = []
    tasks = []
    cache: dict[str, LabelVolume] = {}
    for idx, entry in enumerate(manifest.entries):
        subject_seed = mix_seed(master_seed, idx)
        for sample in range(run.samples_per_subject):
            seed = mix_seed(subject_seed, sample)
            stem = f"{entry.id}_{sample:03d}"
            record = {
                "id": entry.id,
                "sample": sample,
                "seed": seed,
                "source": str(entry.label_map_path),
                "image": f"{stem}_img.nii.gz",
                "labels": f"{stem}_seg.nii.gz",
                "config_sha256": config_sha256,
            }
            img_path = out_dir / record["image"]
            seg_path = out_dir / record["labels"]
            if (
                previous.get((entry.id, sample)) == record
                and img_path.exists()
                and seg_path.exists()
            ):
                records.append(record)
                continue
            if entry.id not in cache:
                cache[entry.id] = _load_subject_labels(entry)
            tasks.append((cache[entry.id], seed, img_path, seg_path, record))

    def produce(task):
        labels, seed, img_path, seg_path, record = task
        try:
            image, seg = generate_sample(labels, run.priors, run.generator, seed)
        except (MissingPriorError, MissingSubstitutionError) as exc:
            raise ConfigError(f"subject {record['id']!r} ({record['source']}): {exc}") from exc
        write_nifti(image, img_path)
        write_nifti(seg, seg_path)
        return record

    def finish(record):
        nonlocal listed, last_write
        records.append(record)
        now = time.monotonic()
        if now - last_write >= _MANIFEST_INTERVAL_S:
            _write_manifest(manifest_path, records)
            listed, last_write = len(records), now

    # The manifest never lists a file that may be rewritten: it drops every
    # record not reused before the first write, and lists a new sample
    # only once both of its files are in place, in task order. Rewrites
    # are throttled, and the last one runs however the loop ends.
    _write_manifest(manifest_path, records)
    listed, last_write = len(records), time.monotonic()
    try:
        if jobs == 1 or len(tasks) <= 1:
            for task in tasks:
                finish(produce(task))
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                for record in pool.map(produce, tasks):
                    finish(record)
    finally:
        if len(records) > listed:
            _write_manifest(manifest_path, records)

    _log(f"generate: {len(records)} samples listed in {manifest_path} ({len(tasks)} new)")
    return EXIT_OK


def _write_manifest(path: Path, records: list[dict]) -> None:
    records = sorted(records, key=lambda r: (r["id"], r["sample"]))
    text = json.dumps({"samples": records}, indent=2, sort_keys=True) + "\n"
    write_atomic(path, text.encode())


def cmd_postprocess(args) -> int:
    with _configuration():
        config = PostprocConfig(args.radius, args.connectivity, args.keep)
    paths = [Path(p) for p in args.inputs]
    stems = [_strip_nifti_suffix(path.name) for path in paths]
    for path, stem in zip(paths, stems):
        if not path.exists():
            raise FileNotFoundError(f"no such file: {path}")
        if stem is None:
            raise ValueError(f"not a NIfTI path: {path}")
    for path, stem in zip(paths, stems):
        cleaned = postprocess_cs(_read_mask(path), config)
        out_path = path.with_name(path.name.replace(stem, stem + "_pp", 1))
        write_nifti(cleaned, out_path)
        _log(f"postprocess: {path} -> {out_path} ({cleaned.count} voxels kept)")
    return EXIT_OK


def _nifti_stems(directory: Path) -> dict[str, Path]:
    """The NIfTI files in ``directory`` by stem; two files of one stem are an error."""
    stems = {}
    for path in sorted(directory.iterdir()):
        stem = _strip_nifti_suffix(path.name)
        if stem in stems:
            raise ValueError(f"{stems[stem]} and {path} share the stem {stem!r}; keep one")
        if stem is not None:
            stems[stem] = path
    return stems


def cmd_evaluate(args) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    if not pred_dir.is_dir() or not gt_dir.is_dir():
        raise NotADirectoryError("prediction and ground-truth directories must exist")
    pred = _nifti_stems(pred_dir)
    gt = _nifti_stems(gt_dir)
    matched = sorted(set(pred) & set(gt))
    unmatched = {"pred": sorted(set(pred) - set(gt)), "gt": sorted(set(gt) - set(pred))}
    for stem in unmatched["pred"]:
        _log(f"evaluate: warning: prediction {stem} has no ground truth")
    for stem in unmatched["gt"]:
        _log(f"evaluate: warning: ground truth {stem} has no prediction")
    if not matched:
        _log("evaluate: no matching prediction/ground-truth pairs")
        return EXIT_NO_PAIRS

    reports = [
        evaluate_pair(_read_mask(pred[stem]), _read_mask(gt[stem]), identifier=stem)
        for stem in matched
    ]

    try:
        summary = asdict(aggregate(reports))
    except NoValidEntriesError as exc:
        _log(f"evaluate: warning: {exc}")
        summary = None

    rows = [r.to_dict() for r in reports]
    doc = {"pairs": rows, "summary": summary, "unmatched": unmatched}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        write_atomic(args.out, text.encode())
        _log(f"evaluate: report written to {args.out}")
    else:
        sys.stdout.write(text)

    if args.csv:
        table = io.StringIO()  # csv ends each row with "\r\n"; StringIO keeps it
        writer = csv.DictWriter(table, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)  # csv writes None as an empty cell
        write_atomic(args.csv, table.getvalue().encode())
        _log(f"evaluate: per-pair CSV written to {args.csv}")
    return EXIT_OK


def cmd_check(args) -> int:
    with _configuration():
        results = checks_mod.run_checks(args.filter, args.inject_fault)
    if not results:
        raise ConfigError(f"no checks match filter {args.filter!r}")
    for result in results:
        status = "pass" if result.passed else "FAIL"
        _log(f"check: [{status}] {result.name} (observed {result.observed:.3g},"
             f" tolerance {result.tolerance:.3g})")
    passed = all(r.passed for r in results)
    doc = {"passed": passed, "checks": [asdict(r) for r in results]}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sulcikit",
        description="Synthetic data generation, post-processing and evaluation "
        "for 3D sulcus segmentation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate synthetic image/label pairs")
    gen.add_argument("--manifest", required=True, help="dataset manifest JSON")
    gen.add_argument("--config", help="run config JSON (generator, priors, counts)")
    gen.add_argument("--seed", type=int, help="master seed (overrides config)")
    gen.add_argument("--out", help="output directory (overrides config)")
    gen.add_argument("--jobs", type=int, default=1, help="worker threads")
    gen.set_defaults(func=cmd_generate)

    post = sub.add_parser("postprocess", help="clean raw binary predictions")
    post.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="PATH",
                      help="input mask NIfTI file(s)")
    defaults = PostprocConfig()
    post.add_argument("--radius", type=int, default=defaults.dilation_radius,
                      help="dilation radius (voxels)")
    post.add_argument("--connectivity", type=int, default=defaults.connectivity,
                      help="neighbourhood connectivity: 6, 18 or 26")
    post.add_argument("--keep", type=int, default=defaults.keep, help="components to keep")
    post.set_defaults(func=cmd_postprocess)

    ev = sub.add_parser("evaluate", help="compare predictions against ground truth")
    ev.add_argument("--pred", required=True, help="directory of predicted masks")
    ev.add_argument("--gt", required=True, help="directory of ground-truth masks")
    ev.add_argument("--out", help="write the JSON report here instead of stdout")
    ev.add_argument("--csv", help="also write one CSV row per pair")
    ev.set_defaults(func=cmd_evaluate)

    chk = sub.add_parser("check", help="run the self-check suite")
    chk.add_argument("--filter", help="only run checks whose name contains this")
    chk.add_argument("--inject-fault", dest="inject_fault", help=argparse.SUPPRESS)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    # argparse names the command in the namespace before parsing its flags, so
    # a usage error is reported under the command once argv names a valid one
    args = argparse.Namespace(command="sulcikit")
    try:
        build_parser().parse_args(argv, args)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        prefix = "configuration error: " if code == EXIT_CONFIG else ""
        _log(f"{args.command}: {prefix}{exc}")
        return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
