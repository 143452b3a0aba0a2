"""The stage cache: which stages of a run are reused, and every write into the
output directory.

A stage's entry in manifest.json records its key, the sha256 of each output
and why the stage last ran.  The key hashes only what the stage reads
(STAGE_IO): its config fields' values and the sha256 of each input file.
"""
from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .blocks import fan_out, row_blocks
from .config import PipelineConfig
from .errors import ConfigError, DataError
from .ingest.text import RecordFile
from .models import TrainPlan

try:
    import fcntl
except ImportError:   # not on Windows, where runs take no lock
    fcntl = None


class StageIO(NamedTuple):
    fields: tuple[str, ...]       # PipelineConfig fields the stage reads
    reads: tuple[str, ...]        # artifacts it reads
    writes: tuple[str, ...]       # artifacts it must produce
    files: tuple[str, ...] = ()   # of its fields, those naming a file it reads, when set


_TRAIN_PLAN = tuple(f.name for f in fields(TrainPlan))   # each is a PipelineConfig field

STAGE_IO = {
    "convert": StageIO(("record", "annotations", "channel", "patient_id"),
                       (), ("record.npy", "record.json", "annotations.csv"),
                       files=("record", "annotations")),
    "preprocess": StageIO(("cutoff_hz", "filter_order", "zero_phase", "window_s", "overlap_s",
                           "preictal_len_s", "postictal_len_s"),
                          ("record.npy", "record.json", "annotations.csv"), ("segments.bin",)),
    "extract": StageIO(("representation",), ("segments.bin",), ("features.bin",)),
    "train": StageIO(("architecture", "representation") + _TRAIN_PLAN,
                     ("record.json", "segments.bin", "features.bin"),
                     ("model.params", "model.json", "baseline.json")),
    "score": StageIO(("representation",),
                     ("features.bin", "model.params", "model.json", "baseline.json"),
                     ("scores.params",)),
    "evaluate": StageIO(("smoothing_w", "k", "preictal_len_s", "postictal_len_s",
                         "refractory_gap_s"),
                        ("record.json", "annotations.csv", "segments.bin", "scores.params"),
                        ("evaluation.json", "errors.csv")),
    "report": StageIO(("smoothing_w", "architecture", "representation", "window_s"),
                      ("annotations.csv", "segments.bin", "scores.params", "evaluation.json"),
                      ("metrics.json", "metrics.csv", "report.svg")),
}
STAGES = tuple(STAGE_IO)
PRODUCER = {name: stage for stage, io in STAGE_IO.items() for name in io.writes}


def _file_sha256(path: Path) -> str | None:
    """The file's sha256, or None if it cannot be read, read through a buffer
    of this call's own, so calls on several threads share nothing."""
    h, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    try:
        with path.open("rb") as f:
            while n := f.readinto(buf):
                h.update(view[:n])
    except OSError:
        return None
    return h.hexdigest()


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


@contextmanager
def _reading(what: str, path: Path):
    """Raise an OSError or a UnicodeDecodeError from within the block as a
    DataError naming the file."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}") from exc


class StageCache:
    """The manifest and file digests of one output directory.  A file is
    named as in STAGE_IO: an artifact's name, or the config field naming it."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.manifest: dict = {"stages": {}}
        self._hashes: dict[str, str | None] = {}   # each file's sha256 as it is now
        self._rewritten: set[str] = set()   # artifacts this run wrote with new bytes

    @contextmanager
    def open(self, stages: list[str]):
        """Hold the output directory for a run of `stages`: create and lock
        it, load the manifest and hash the files the checks will read.  The
        lock is on the directory itself, so it puts no file in it."""
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.out, os.O_RDONLY) if fcntl else None
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {self.out}: {exc}") from exc
        try:   # closing the descriptor releases the lock
            if fd is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError as exc:
                    raise DataError("output directory in use by another run: "
                                    f"{self.out}") from exc
            self.manifest, self._rewritten = self._load_manifest(), set()
            self._hash_ahead(stages)
            yield
        finally:
            if fd is not None:
                os.close(fd)

    def _load_manifest(self) -> dict:
        try:
            manifest = json.loads((self.out / "manifest.json").read_text())
        except (FileNotFoundError, ValueError, RecursionError):   # cut short, not UTF-8, too deep
            manifest = None
        if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
            manifest = {"stages": {}}   # absent or unusable: every stage re-runs
        # an entry that is not an object with an outputs object re-runs its stage
        stages = {name: entry for name, entry in manifest["stages"].items()
                  if isinstance(entry, dict) and isinstance(entry.get("outputs"), dict)}
        return {"stages": stages, "toolkit_version": __version__}

    def _path(self, name: str) -> Path:
        return self.out / name if name in PRODUCER else Path(getattr(self.cfg, name))

    def _inputs(self, stage: str) -> list[str]:
        """The files the stage reads: those its config names, then its artifacts."""
        io = STAGE_IO[stage]
        return [field for field in io.files if getattr(self.cfg, field)] + list(io.reads)

    def _recorded(self, name: str) -> str | None:
        """The sha256 an artifact's producer recorded; None for other files."""
        entry = self.manifest["stages"].get(PRODUCER.get(name), {})
        return entry.get("outputs", {}).get(name)

    def _digest(self, name: str) -> str | None:
        """A file's sha256 as it is now, hashed once per run."""
        if name not in self._hashes:
            self._hashes[name] = _file_sha256(self._path(name))
        return self._hashes[name]

    def _key(self, stage: str, digests: list[str | None]) -> str:
        """The stage's key: the sha256 of the toolkit version, the stage, its
        config fields' values and the sha256 of each of its `_inputs`."""
        values = {f: getattr(self.cfg, f) for f in STAGE_IO[stage].fields}
        return hashlib.sha256(json.dumps([__version__, stage, values, digests],
                                         sort_keys=True).encode()).hexdigest()

    def _hash_ahead(self, stages: list[str]):
        """Hash, concurrently and largest first, the inputs and outputs of each
        of `stages` that has an entry, but not the artifacts a stage is bound
        to rewrite.  A stage with an input no entry records (convert's files)
        counts as cached here; a first convert hashes them as it reads them."""
        fresh, files = set(), set()
        for stage in stages:
            entry, inputs = self.manifest["stages"].get(stage), self._inputs(stage)
            recorded = [self._recorded(name) for name in inputs]
            if (entry is None or fresh.intersection(inputs)
                    or None not in recorded and entry.get("key") != self._key(stage, recorded)):
                fresh.update(STAGE_IO[stage].writes)
            if entry is not None:
                files.update(inputs, STAGE_IO[stage].writes)
        paths = {self._path(name): name for name in files - fresh}
        order = sorted(paths, key=_size, reverse=True)
        digests = fan_out(lambda lo, hi: _file_sha256(order[lo]), row_blocks(len(order), 1), 1)
        self._hashes = {paths[path]: digest for path, digest in zip(order, digests)}

    def check(self, stage: str) -> str | None:
        """None if the stage's entry holds, else why the stage must run; a
        DataError if an input artifact is not what its producer recorded."""
        inputs = self._inputs(stage)
        for name in inputs:
            recorded = self._recorded(name)
            if recorded and self._digest(name) not in (None, recorded):
                raise DataError(f"artifact {name!r} changed after the '{PRODUCER[name]}' stage "
                                f"wrote it; re-run '{PRODUCER[name]}'")
        entry = self.manifest["stages"].get(stage)
        if entry is None:
            return "no cached entry"
        if entry.get("key") != self._key(stage, [self._digest(name) for name in inputs]):
            rewritten = [name for name in inputs if name in self._rewritten]
            return (f"input {rewritten[0]!r} rewritten in this run" if rewritten
                    else "config or inputs changed since the entry was written")
        changed = [name for name in STAGE_IO[stage].writes
                   if entry["outputs"].get(name) != self._digest(name)]
        return f"output {changed[0]!r} missing or changed" if changed else None

    def record(self, stage: str, reason: str, seconds: float):
        """Record the entry of a stage that ran for `reason`, and save the manifest."""
        outputs = {name: self._digest(name) for name in STAGE_IO[stage].writes}
        before = self.manifest["stages"].get(stage, {}).get("outputs", {})
        self._rewritten.update(name for name in outputs if outputs[name] != before.get(name))
        self.manifest["stages"][stage] = {
            "key": self._key(stage, [self._digest(name) for name in self._inputs(stage)]),
            "wall_clock_s": round(seconds, 3), "outputs": outputs, "reason": reason}
        # no indent, so json's C encoder writes it (the manifest holds wall
        # times, so no byte of it is reproducible anyway)
        self.write("manifest.json", json.dumps(self.manifest, sort_keys=True) + "\n")

    @contextmanager
    def read_sources(self):
        """The record file open for reading, as a RecordFile, and a list of the
        annotation file's text, empty when none is set: convert's inputs,
        keyed on the bytes read."""
        if not self.cfg.record:
            raise ConfigError("config key 'record' is required")
        record, *annotation_file = self._inputs("convert")
        path, texts = self._path(record), []
        with _reading(record, path), path.open("rb") as f:
            source = RecordFile(f)
            for name in annotation_file:
                with _reading(name, self._path(name)):
                    data = self._path(name).read_bytes()
                    self._hashes[name] = hashlib.sha256(data).hexdigest()
                    texts.append(data.decode())
            yield source, texts
        self._hashes[record] = source.sha256.hexdigest()

    @contextmanager
    def writing(self, name: str):
        """A new file open for writing under a name of its own, renamed to
        artifact `name` once the block completes, removed if it raises."""
        path = self.out / f".{name}.{os.urandom(8).hex()}"
        try:
            with open(path, "xb") as f:   # a new file, whose mode the umask sets
                yield f
            os.replace(path, self.out / name)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        self._hashes.pop(name, None)

    def write(self, name: str, data: bytes | str):
        """Write artifact `name` whole; a str as UTF-8."""
        with self.writing(name) as f:
            f.write(data.encode() if isinstance(data, str) else data)
