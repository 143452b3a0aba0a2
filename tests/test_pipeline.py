import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from preictal import blocks
from preictal.cache import load_segments, read_rows
from preictal.cli import main
from preictal.config import PipelineConfig, validate_config
from preictal.errors import DataError
from preictal.models.training import SCORE_BATCH
from preictal.ingest import serialize_annotations, serialize_csv
from preictal.ingest import text as csv_text
from preictal.nn import dump_arrays, load_arrays
from preictal import pipeline, stagecache
from preictal.pipeline import STAGE_IO, STAGES, Pipeline, run
from preictal.stagecache import StageCache

CONFIG_TEMPLATE = """
record = {record}
annotations = {annotations}
patient_id = pipe-test
preictal_len_s = 240
postictal_len_s = 60
smoothing_w = 11
refractory_gap_s = 30
epochs = 8
seed = 0
out = {out}
"""


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory, event_record):
    root = tmp_path_factory.mktemp("pipe")
    record = root / "record.csv"
    annotations = root / "annotations.csv"
    record.write_text(serialize_csv(event_record))
    annotations.write_text(serialize_annotations(event_record.annotations))
    return root, record, annotations


def config_for(root, record, annotations, out):
    return validate_config(CONFIG_TEMPLATE.format(record=record, annotations=annotations,
                                                  out=out))


@pytest.fixture(scope="module")
def completed_run(fixture_files):
    root, record, annotations = fixture_files
    out = root / "run1"
    cfg = config_for(root, record, annotations, out)
    run("all", cfg)
    return out, cfg


def test_all_artifacts_present(completed_run):
    out, _ = completed_run
    for name in ("record.npy", "record.json", "annotations.csv", "segments.bin",
                 "features.bin", "model.params", "model.json", "baseline.json", "scores.params", "evaluation.json", "errors.csv",
                 "metrics.json", "metrics.csv", "report.svg", "manifest.json"):
        assert (out / name).exists(), name


def test_metrics_well_formed(completed_run):
    out, _ = completed_run
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["patient_id"] == "pipe-test"
    m = metrics["metrics"]
    assert m["seizures_total"] == 1
    assert 0.0 <= m["specificity"] <= 1.0
    csv_lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 2
    assert csv_lines[0].startswith("patient_id,")


def test_svg_element_counts(completed_run):
    out, _ = completed_run
    svg = (out / "report.svg").read_text()
    assert svg.count('class="threshold"') == 1
    assert svg.count('class="preictal-band"') == 1   # one band per annotated event
    assert svg.count('class="onset"') == 1
    assert svg.count('class="error-raw"') == 1
    assert svg.count('class="error-smoothed"') == 1


def test_errors_csv_aligned_with_test_set(completed_run):
    out, _ = completed_run
    baseline = json.loads((out / "baseline.json").read_text())
    lines = (out / "errors.csv").read_text().strip().splitlines()
    assert lines[0] == "segment_index,raw_error,smoothed_error,anomaly_flag"
    assert len(lines) - 1 == baseline["n_test"]
    first_index = int(lines[1].split(",")[0])
    assert first_index == baseline["n_train"]


def test_rerun_uses_cache(completed_run):
    out, cfg = completed_run
    stamp_before = (out / "metrics.json").stat().st_mtime_ns
    run("all", cfg)
    assert (out / "metrics.json").stat().st_mtime_ns == stamp_before


def test_truncated_artifact_regenerated_on_rerun(completed_run):
    out, cfg = completed_run
    original = (out / "errors.csv").read_bytes()
    (out / "errors.csv").write_bytes(original[:100])
    run("all", cfg)
    assert (out / "errors.csv").read_bytes() == original


def test_fresh_directory_reproduces_bytes(completed_run, fixture_files):
    out, _ = completed_run
    root, record, annotations = fixture_files
    out2 = root / "run2"
    run("all", config_for(root, record, annotations, out2))
    for name in ("segments.bin", "features.bin", "model.params", "scores.params",
                 "evaluation.json", "errors.csv", "metrics.json", "report.svg"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_deleted_intermediate_regenerated_bit_identical(completed_run):
    out, cfg = completed_run
    original = (out / "features.bin").read_bytes()
    (out / "features.bin").unlink()
    run("all", cfg)
    assert (out / "features.bin").read_bytes() == original


def test_truncated_manifest_reruns_every_stage(completed_run, fixture_files, tmp_path):
    out, cfg = completed_run
    root, record, annotations = fixture_files
    artifacts = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    before = [p.read_bytes() for p in artifacts]
    manifest = out / "manifest.json"
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEMPLATE.format(record=record, annotations=annotations, out=out))
    for broken in (manifest.read_bytes()[:60],        # as a crash mid-write would leave it
                   b'{"stages": {"convert": 5}}'):   # a stage entry that is not an object
        manifest.write_bytes(broken)
        assert main(["all", "--config", str(config)]) == 0
        assert [p.read_bytes() for p in artifacts] == before
        stages = json.loads(manifest.read_text())["stages"]
        assert sorted(stages) == sorted(STAGES)
        assert all(isinstance(entry, dict) for entry in stages.values())
    for text in ("[]", "[" * 100000):   # aside, so the shared run stays whole
        (tmp_path / "manifest.json").write_text(text)
        assert Pipeline(replace(cfg, out=str(tmp_path))).cache._load_manifest()["stages"] == {}


def test_missing_upstream_names_stage(fixture_files):
    root, record, annotations = fixture_files
    out = root / "partial"
    cfg = config_for(root, record, annotations, out)
    pipe = Pipeline(cfg)
    pipe.run("convert")
    pipe.run("preprocess")
    pipe.run("extract")
    with pytest.raises(DataError, match="'train'"):
        pipe.run("score")


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_changed_config_invalidates_downstream(completed_run, fixture_files, monkeypatch):
    root, record, annotations = fixture_files
    ran = []

    def recording(stage, method):
        def stage_method(self):
            ran.append(stage)
            return method(self)
        return stage_method

    for stage in STAGES:
        monkeypatch.setattr(Pipeline, f"stage_{stage}",
                            recording(stage, getattr(Pipeline, f"stage_{stage}")))
    for key, value, rerun in (("k", 3, STAGES[5:]), ("smoothing_w", 5, STAGES[5:]),
                              ("representation", "dwt", STAGES[2:]),
                              ("cutoff_hz", 30, STAGES[1:]),
                              ("preictal_len_s", 200,
                               ("preprocess", "extract", "train", "evaluate", "report"))):
        text = re.sub(rf"^{key} = .*\n", "", CONFIG_TEMPLATE, flags=re.M) + f"{key} = {value}\n"
        warm, cold = root / f"warm_{key}", root / f"cold_{key}"
        shutil.copytree(completed_run[0], warm)
        ran.clear()
        run("all", validate_config(text.format(record=record, annotations=annotations, out=warm)))
        assert tuple(ran) == rerun, key
        run("all", validate_config(text.format(record=record, annotations=annotations, out=cold)))
        assert _artifacts(warm) == _artifacts(cold), key


def test_stage_table_covers_every_config_field():
    declared = {name for io in STAGE_IO.values() for name in io.fields}
    assert declared == {f.name for f in fields(PipelineConfig)} - {"out"}


def test_readme_stage_table_matches_stage_io():
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| stage | config keys | artifacts read |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        stage, keys, reads = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:4])
        rows[stage[0]] = (tuple(keys), tuple(reads))
    assert rows == {stage: (io.fields, io.reads) for stage, io in STAGE_IO.items()}
    assert tuple(rows) == STAGES


def test_each_stage_runs_from_its_declared_inputs(completed_run, tmp_path):
    out, cfg = completed_run
    for stage, io in STAGE_IO.items():
        alone = tmp_path / stage
        alone.mkdir()
        for name in io.reads:
            shutil.copy(out / name, alone / name)
        Pipeline(replace(cfg, out=str(alone))).run(stage)
        for name in io.writes:
            assert (alone / name).read_bytes() == (out / name).read_bytes(), (stage, name)


@pytest.fixture(scope="module")
def tail_run(tmp_path_factory, event_record):
    """A completed run on the first 705 s of the event record: eleven full
    64-row transform calls and a one-row tail; 21 score batches of 32 rows
    and one of 33, a one-row tail joined to the batch before it."""
    root = tmp_path_factory.mktemp("tail")
    fs = event_record.sampling_rate_hz
    record = replace(event_record, samples=event_record.samples[:705 * fs])
    (root / "record.csv").write_text(serialize_csv(record))
    (root / "annotations.csv").write_text(serialize_annotations(record.annotations))
    cfg = config_for(root, root / "record.csv", root / "annotations.csv", root / "run")
    run("all", cfg)
    assert len(load_segments((root / "run" / "segments.bin").read_bytes())) == 705
    return root / "run", cfg


def test_stage_bytes_do_not_depend_on_cpu_count(tail_run, tmp_path, monkeypatch):
    out, cfg = tail_run
    for cpus in (1, 2, 3):
        monkeypatch.setattr(blocks, "cpu_count", lambda: cpus)
        for stage in ("extract", "train", "score"):
            alone = tmp_path / f"{stage}-{cpus}"
            alone.mkdir()
            for name in STAGE_IO[stage].reads:
                shutil.copy(out / name, alone / name)
            Pipeline(replace(cfg, out=str(alone))).run(stage)
            for name in STAGE_IO[stage].writes:
                assert (alone / name).read_bytes() == (out / name).read_bytes(), \
                    (cpus, stage, name)


def test_score_error_on_a_pool_thread_exits_3(tail_run, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(tail_run[0], out)
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["stages"]["score"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEMPLATE.format(record=tail_run[1].record,
                                             annotations=tail_run[1].annotations, out=out))
    # the last score batch runs on a pool thread, and only it fails: features.bin
    # loses its last row after score has checked its layout
    last = len(list(blocks.row_blocks(705, SCORE_BATCH, min_rows=2))) - 1
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2 if last % 2 else 3)
    features_layout = Pipeline._features_layout

    def shrink(self, f):
        layout = features_layout(self, f)
        os.truncate(self.out / "features.bin", os.path.getsize(f.name) - layout.row_bytes)
        return layout

    raised_on = []

    def noted_rows(*args):
        try:
            return read_rows(*args)
        except DataError:
            raised_on.append(threading.current_thread().name)
            raise

    monkeypatch.setattr(Pipeline, "_features_layout", shrink)
    monkeypatch.setattr(pipeline, "read_rows", noted_rows)
    assert main(["score", "--config", str(config)]) == 3
    assert "shrank" in capsys.readouterr().err
    assert len(raised_on) == 1 and raised_on[0] != threading.main_thread().name
    assert "score" not in json.loads((out / "manifest.json").read_text())["stages"]


def test_failed_extract_leaves_no_features_file(completed_run, tmp_path, monkeypatch):
    out, cfg = completed_run
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(out / "segments.bin", alone / "segments.bin")
    extract_features = pipeline.extract_features

    def fail_after_first(segments, representation):
        if segments.start_samples[0] > 0:
            raise DataError("extraction failed")
        return extract_features(segments, representation)

    monkeypatch.setattr(pipeline, "extract_features", fail_after_first)
    with pytest.raises(DataError, match="extraction failed"):
        Pipeline(replace(cfg, out=str(alone))).run("extract")
    assert not (alone / "features.bin").exists()
    assert [p.name for p in alone.iterdir()] == ["segments.bin"]   # no temporary file left


def test_rerun_records_why_each_stage_ran(completed_run, fixture_files, tmp_path):
    root, record, annotations = fixture_files
    out = tmp_path / "out"
    shutil.copytree(completed_run[0], out)
    cfg = validate_config((CONFIG_TEMPLATE + "k = 3\n").format(
        record=record, annotations=annotations, out=out))
    before = json.loads((out / "manifest.json").read_text())["stages"]
    after = run("all", cfg)["stages"]
    assert after["evaluate"]["reason"] == "config or inputs changed since the entry was written"
    assert after["report"]["reason"] == "input 'evaluation.json' rewritten in this run"
    assert {stage: after[stage] for stage in STAGES[:5]} == \
        {stage: before[stage] for stage in STAGES[:5]}   # convert to score did not re-run
    (out / "errors.csv").write_bytes(b"")
    assert run("all", cfg)["stages"]["evaluate"]["reason"] == \
        "output 'errors.csv' missing or changed"
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["stages"]["score"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run("all", cfg)["stages"]["score"]["reason"] == "no cached entry"


def test_locked_output_directory_exits_3(completed_run, fixture_files, tmp_path, capsys):
    fcntl = pytest.importorskip("fcntl")
    root, record, annotations = fixture_files
    out = tmp_path / "out"
    shutil.copytree(completed_run[0], out)
    config = tmp_path / "run.cfg"
    config.write_text((CONFIG_TEMPLATE + "k = 3\n").format(   # evaluate and report would run
        record=record, annotations=annotations, out=out))
    files = sorted(os.listdir(out))
    before = json.loads((out / "manifest.json").read_text())["stages"]
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)   # as another run holds it
        for command in ("all", "evaluate"):
            assert main([command, "--config", str(config)]) == 3
            assert "output directory in use by another run" in capsys.readouterr().err
    finally:
        os.close(fd)
    assert json.loads((out / "manifest.json").read_text())["stages"] == before
    assert sorted(os.listdir(out)) == files   # the lock put no file in the directory
    assert main(["all", "--config", str(config)]) == 0   # closing the descriptor released it


def _digests(out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.iterdir() if path.name != "manifest.json"}


def test_two_racing_runs_leave_a_clean_run(fixture_files, tmp_path):
    """Two `preictal all` processes started at once on one output directory:
    each exits 0, or one exits 3 on the other's lock, and the directory then
    holds what a run alone writes, with no temporary file left behind."""
    pytest.importorskip("fcntl")
    root, record, annotations = fixture_files
    configs = {}
    for name in ("raced", "alone"):
        configs[name] = tmp_path / f"{name}.cfg"
        configs[name].write_text(CONFIG_TEMPLATE.format(record=record, annotations=annotations,
                                                        out=tmp_path / name))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(pipeline.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-m", "preictal.cli", "all",
                               "--config", str(configs["raced"])],
                              env=env, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]   # exactly two processes
    done = [(proc.returncode, err) for proc in procs
            for _, err in [proc.communicate(timeout=600)]]
    assert sorted(code for code, _ in done) in ([0, 0], [0, 3]), done
    for code, err in done:
        assert code == 0 or "output directory in use by another run" in err, err
    assert main(["all", "--config", str(configs["alone"])]) == 0
    assert _digests(tmp_path / "raced") == _digests(tmp_path / "alone")
    assert not [name for name in os.listdir(tmp_path / "raced") if name.startswith(".")]


def test_warm_rerun_hashes_each_artifact_at_most_once(completed_run, fixture_files,
                                                    tmp_path, monkeypatch):
    root, record, annotations = fixture_files
    out = tmp_path / "out"
    shutil.copytree(completed_run[0], out)
    before = json.loads((out / "manifest.json").read_text())["stages"]
    hashed, threads = [], set()
    file_sha256 = stagecache._file_sha256

    def counting(path):
        if path.parent == out:   # not the record and annotation files
            hashed.append(path.name)
            threads.add(threading.current_thread().name)
        return file_sha256(path)

    monkeypatch.setattr(stagecache, "_file_sha256", counting)
    monkeypatch.setattr(blocks, "cpu_count", lambda: 2)
    text = re.sub(r"^k = .*\n", "", CONFIG_TEMPLATE, flags=re.M) + "k = 3\n"
    after = run("all", validate_config(text.format(record=record, annotations=annotations,
                                                   out=out)))["stages"]
    assert sorted(hashed) == sorted(set(hashed))
    assert set(hashed) == {name for io in STAGE_IO.values() for name in io.writes}
    assert len(threads) == 2   # the cached artifacts were hashed concurrently
    # evaluate re-ran and wrote new bytes, hashed only once written
    assert after["evaluate"]["outputs"]["evaluation.json"] != \
        before["evaluate"]["outputs"]["evaluation.json"]


def test_edited_record_reruns_convert(fixture_files, tmp_path, monkeypatch):
    root, record, annotations = fixture_files
    original = record.read_text()
    edited = original[:-2] + ("2" if original[-2] == "1" else "1") + "\n"   # the last sample
    source = tmp_path / "record.csv"
    source.write_text(original)
    cfg = config_for(root, source, annotations, tmp_path / "out")
    npy = tmp_path / "out" / "record.npy"

    def refuse(self):
        raise AssertionError("a cached convert read the record's bytes")

    def cached_run():
        with monkeypatch.context() as m:
            m.setattr(StageCache, "read_sources", refuse)
            run("convert", cfg)

    run("convert", cfg)
    samples = np.load(npy)
    cached_run()   # the record is hashed, not read
    source.write_text(edited)   # same size
    run("convert", cfg)
    assert np.load(npy)[-1] != samples[-1]
    cached_run()
    # an edit after the up-front hash: convert is keyed on the bytes it parsed
    source.write_text(original)
    hash_ahead = StageCache._hash_ahead

    def edit_after_hashing(self, *args):
        hash_ahead(self, *args)
        source.write_text(edited)

    with monkeypatch.context() as m:
        m.setattr(StageCache, "_hash_ahead", edit_after_hashing)
        run("convert", cfg)
    assert np.load(npy)[-1] != samples[-1]
    cached_run()


@pytest.mark.parametrize("block_bytes", [1 << 16, 1 << 22])
def test_convert_records_the_whole_files_sha256(fixture_files, tmp_path, monkeypatch,
                                                block_bytes):
    # the record is hashed block by block as convert parses it
    root, record, annotations = fixture_files
    monkeypatch.setattr(csv_text, "BLOCK_BYTES", block_bytes)
    p = Pipeline(config_for(root, record, annotations, tmp_path / "out"))
    p.run("convert")
    assert [p.cache._hashes[name] for name in ("record", "annotations")] == [hashlib.sha256(path.read_bytes()).hexdigest()
                          for path in (record, annotations)]


def _flip_last_byte(data: bytes) -> bytes:
    """The same bytes but the last, a sample or feature value: a same-size edit
    no reader sees."""
    return data[:-1] + bytes([data[-1] ^ 1])


def _shift_test_indices(data: bytes) -> bytes:
    tag, arrays = load_arrays(data)
    return dump_arrays(arrays | {"test_indices": arrays["test_indices"] + 1e6}, tag)


@pytest.mark.parametrize("name, stage, producer, edit", [
    ("model.json", "score", "train", lambda data: b'{"x": 1'),
    ("baseline.json", "score", "train", lambda data: b"{}"),
    ("record.json", "preprocess", "convert", lambda data: b"{}"),
    ("record.npy", "preprocess", "convert", lambda data: data[:100]),
    ("scores.params", "evaluate", "score", lambda data: dump_arrays({}, "scores")),
    ("scores.params", "evaluate", "score", _shift_test_indices),
    ("segments.bin", "extract", "preprocess", _flip_last_byte),
    ("segments.bin", "evaluate", "preprocess", _flip_last_byte),   # reads only the index
    ("features.bin", "score", "extract", _flip_last_byte),
])
def test_stage_alone_refuses_edited_input(completed_run, fixture_files, tmp_path, capsys,
                                          name, stage, producer, edit):
    root, record, annotations = fixture_files
    out = tmp_path / "out"
    shutil.copytree(completed_run[0], out)
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEMPLATE.format(record=record, annotations=annotations, out=out))
    assert main([stage, "--config", str(config)]) == 0
    original = (out / name).read_bytes()
    (out / name).write_bytes(edit(original))
    assert main([stage, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert repr(name) in err and f"re-run '{producer}'" in err
    assert main(["all", "--config", str(config)]) == 0
    assert (out / name).read_bytes() == original


_READER = {"record.json": "preprocess", "baseline.json": "score", "model.json": "score",
           "evaluation.json": "report"}
_DELETE = object()   # a value that removes its key
# a value each kind of pipeline.JSON_KINDS rejects; a tuple kind rejects "nope"
_BAD = {"str": 7, "int": 1.5, "float": "x", "float | None": float("nan"), "int > 0": 0,
        "float > 0": -1.5, "dict": [], "list[float]": [1.0, False]}


def _leaves(kinds, at=""):
    """(key, kind) of each key of a JSON_KINDS row that holds no nested row;
    `a.b` names key b of the object at key a."""
    for key, kind in kinds.items():
        if isinstance(kind, dict):
            yield from _leaves(kind, f"{at}{key}.")
        else:
            yield at + key, kind


def _edited(text, key, value):
    """A JSON object's text with `key` set to `value`, or removed."""
    obj = json.loads(text)
    *outer, last = key.split(".")
    inner = obj
    for part in outer:
        inner = inner[part]
    if value is _DELETE:
        del inner[last]
    else:
        inner[last] = value
    return json.dumps(obj)


def _copy_without_manifest(completed_run, fixture_files, tmp_path):
    """A copy of the completed run with no recorded digests, so a reader is the
    only check of its artifacts, and the config that runs in it."""
    root, record, annotations = fixture_files
    out = tmp_path / "out"
    shutil.copytree(completed_run[0], out)
    (out / "manifest.json").unlink()
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG_TEMPLATE.format(record=record, annotations=annotations, out=out))
    return out, config


_NESTED = ('{{"patient_id": "x", "metrics": {{}}, "confusion": {{}}, "counting_note": "", '
           '"threshold": {}, "eval_config": {}}}')


@pytest.mark.parametrize("name, stage, key, value", [
    # key None: value is the file's whole text
    *[(name, stage, None, text) for name, stage in _READER.items()
      for text in ('{"x": 1', "[1, 2]", "[" * 100000)],
    ("record.json", "preprocess", None, "{}"),
    ("model.json", "score", None, '{"format_version": 1}'),
    ("evaluation.json", "report", None, '{"patient_id": "x"}'),
    *[("evaluation.json", "report", None, _NESTED.format(threshold, eval_config))
      for threshold, eval_config in [("{}", '{"preictal_len_s": 60}'),
                                     ('{"mu": 0, "sigma": 1, "k": 3}', "{}"),
                                     ("[]", "null")]],
    # values of the wrong kind, or out of range, beyond one per key below
    ("baseline.json", "score", "n_train", 100000),
    ("record.json", "train", "duration_s", None),
    ("record.json", "evaluate", "duration_s", 0),
    ("record.json", "preprocess", "sampling_rate_hz", True),
    ("record.json", "preprocess", "sampling_rate_hz", -512),
    ("record.json", "preprocess", "sampling_rate_hz", 512.5),
    ("evaluation.json", "report", "metrics", 3),
    ("evaluation.json", "report", "confusion", []),
    ("evaluation.json", "report", "threshold.sigma", float("nan")),
    ("evaluation.json", "report", "threshold.k", True),
    ("evaluation.json", "report", "eval_config.preictal_len_s", None),
    ("evaluation.json", "report", "metrics.accuracy", "x"),
    ("evaluation.json", "report", "confusion.tp", [1]),
    ("evaluation.json", "report", "counting_note", 5),
    # every key of the table: removed, and holding a value of the wrong kind
    *[(name, _READER[name], key, value) for name, kinds in pipeline.JSON_KINDS.items()
      for key, kind in _leaves(kinds)
      for value in (_DELETE, "nope" if isinstance(kind, tuple) else _BAD[kind])],
])
def test_malformed_json_artifact_without_manifest(completed_run, fixture_files, tmp_path,
                                                  capsys, name, stage, key, value):
    out, config = _copy_without_manifest(completed_run, fixture_files, tmp_path)
    path = out / name
    path.write_text(value if key is None else _edited(path.read_text(), key, value))
    assert main([stage, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert repr(name) in err and f"re-run '{stagecache.PRODUCER[name]}'" in err
    assert key is None or key in err


def test_report_copies_only_declared_keys(completed_run, fixture_files, tmp_path):
    out, config = _copy_without_manifest(completed_run, fixture_files, tmp_path)
    before = [(out / name).read_bytes() for name in ("metrics.json", "metrics.csv")]
    path = out / "evaluation.json"
    path.write_text(_edited(_edited(path.read_text(), "metrics.extra", [1]), "extra", 2))
    assert main(["report", "--config", str(config)]) == 0
    assert [(out / name).read_bytes() for name in ("metrics.json", "metrics.csv")] == before


def _set(key, i, value):
    """An edit of scores.params' (tag, arrays) that sets item i of one array."""
    def edit(tag, arrays):
        arrays[key][i] = value
        return tag, arrays
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(lambda tag, a: (tag, {k: v for k, v in a.items() if k != "test_errors"}),
                 id="missing-array"),
    pytest.param(lambda tag, a: ("model", a), id="wrong-tag"),
    pytest.param(lambda tag, a: (tag, a | {"test_errors": a["test_errors"][:, None]}),
                 id="2d-errors"),
    pytest.param(lambda tag, a: (tag, a | {"train_errors": np.zeros((0, 3))}),
                 id="2d-empty-errors"),
    pytest.param(_set("train_errors", 0, np.nan), id="nan-error"),
    pytest.param(_set("test_errors", -1, np.inf), id="inf-error"),
    pytest.param(_set("test_errors", 3, -1e-9), id="negative-error"),
    pytest.param(_set("test_indices", 0, 1e20), id="huge-index"),
    pytest.param(_set("test_indices", 5, np.nan), id="nan-index"),
    pytest.param(_set("test_indices", -1, 0.5), id="fractional-index"),
    pytest.param(lambda tag, a: (tag, a | {"test_indices": a["test_indices"][::-1].copy()}),
                 id="reversed-indices"),
    pytest.param(lambda tag, a: (tag, a | {"test_indices": a["test_indices"] + 1}),
                 id="shifted-indices"),
    pytest.param(lambda tag, a: (tag, a | {"test_indices": a["test_indices"][:-1],
                                           "test_errors": a["test_errors"][:-1]}),
                 id="test-row-short"),
    pytest.param(lambda tag, a: (tag, a | {"train_errors": a["train_errors"][1:]}),
                 id="train-row-short"),
])
@pytest.mark.parametrize("stage", ["evaluate", "report"])
def test_malformed_scores_without_manifest(completed_run, fixture_files, tmp_path, capsys,
                                           stage, edit):
    out, config = _copy_without_manifest(completed_run, fixture_files, tmp_path)
    path = out / "scores.params"
    tag, arrays = edit(*load_arrays(path.read_bytes()))
    path.write_bytes(dump_arrays(arrays, tag))
    assert main([stage, "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "'scores.params'" in err and "re-run 'score'" in err


class TestCli:
    def test_config_error_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("record = x.csv\nwindow_s = 2\n")
        assert main(["all", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["all", "--config", str(tmp_path / "none.cfg")]) == 2

    def test_missing_record_exit_3(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"record = {tmp_path}/none.csv\nout = {tmp_path}/out\n")
        assert main(["convert", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("case, code", [
        ("record_bytes", 3), ("annotations_bytes", 3), ("config_bytes", 2),
        ("config_dir", 2), ("record_dir", 3), ("annotations_dir", 3), ("out_file", 2),
    ])
    def test_outside_input_exit_code(self, tmp_path, case, code):
        # <what>_bytes: the file holds a 0xff byte; <what>_dir: the path is a
        # directory; out_file: the output path is an existing file
        what, kind = case.split("_")
        paths = {"record": tmp_path / "rec.csv", "annotations": tmp_path / "ann.csv",
                 "out": tmp_path / "out", "config": tmp_path / "run.cfg"}
        if kind == "dir":
            paths[what] = tmp_path / what
            paths[what].mkdir()
        texts = {"record": "".join(f"{i / 8},0\n" for i in range(16)),
                 "annotations": "onset_s,offset_s,type\n",
                 "config": "".join(f"{k} = {paths[k]}\n" for k in ("record", "annotations", "out"))}
        for key, text in texts.items():
            if not paths[key].is_dir():
                paths[key].write_text(text)
        if kind == "bytes":
            paths[what].write_bytes(paths[what].read_bytes() + b"\xff\n")
        elif kind == "file":
            paths[what].write_text("")
        assert main(["convert", "--config", str(paths["config"])]) == code

    def test_convert_ok_exit_0(self, tmp_path, baseline_record):
        record = tmp_path / "rec.csv"
        record.write_text(serialize_csv(baseline_record))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"record = {record}\nout = {tmp_path}/out\n")
        assert main(["convert", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "record.npy").exists()

    def test_seed_override_keeps_convert_key(self, tmp_path, baseline_record):
        record = tmp_path / "rec.csv"
        record.write_text(serialize_csv(baseline_record))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"record = {record}\nout = {tmp_path}/out\n")
        manifest = tmp_path / "out" / "manifest.json"
        assert main(["convert", "--config", str(cfg), "--seed", "5"]) == 0
        key = json.loads(manifest.read_text())["stages"]["convert"]["key"]
        assert main(["convert", "--config", str(cfg), "--seed", "6"]) == 0
        assert json.loads(manifest.read_text())["stages"]["convert"]["key"] == key
