"""The benchmark's tracer (bench/spans.py) replaces names on the program's
modules and classes by name, so a refactor that drops or renames one breaks
the traced benchmark.  Here it is installed around one small run, in this
process: it must find every name, see the cache and stage calls its
per-layer metrics read, and put every name back."""
import importlib.util
import json
from pathlib import Path

import pytest

from preictal.cache import read_features_layout, read_segments_layout
from preictal.config import validate_config
from preictal.ingest import serialize_csv
from preictal.pipeline import run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_pipeline_and_puts_it_back(baseline_record, tmp_path):
    spans = _spans_module()
    (tmp_path / "record.csv").write_text(serialize_csv(baseline_record))
    cfg = validate_config(f"record = {tmp_path / 'record.csv'}\nout = {tmp_path / 'out'}\n"
                          "window_s = 1\nmin_baseline_segments = 20\nrepresentation = dwt\n"
                          "architecture = lstm_ae\nepochs = 1\n")
    tracer = spans.Tracer()
    try:   # a failed install still puts back the names it replaced
        tracer.install()
        patches = list(tracer._patches)
        run("all", cfg)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, (owner, attr)

    m = spans.per_layer_metrics(tracer, 0.0)
    assert m["pipeline.stages_run"] == len(spans.STAGES)
    out = tmp_path / "out"
    with (out / "segments.bin").open("rb") as f:
        segments = read_segments_layout(f)
    with (out / "features.bin").open("rb") as f:
        features = read_features_layout(f)
    n_train = json.loads((out / "baseline.json").read_text())["n_train"]
    # extract decodes every segment row; train and score decode the baseline
    # rows, and score every row: all of it through the names the tracer wraps
    read = segments.count * segments.row_bytes + (2 * n_train + features.count) * features.row_bytes
    assert m["cache.read_mb"] == pytest.approx(read / 1e6)
    names = {span[0] for span in tracer.spans}
    assert {"cache.dump_segments", "cache.dump_features", "ingest.parse_csv",
            "models.train", "models.score", "report.render_svg"} <= names
