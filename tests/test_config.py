import pytest

from preictal.anomaly import DEFAULT_K, DEFAULT_SMOOTHING_W
from preictal.cli import main
from preictal.config import PipelineConfig, stage_settings, validate_config
from preictal.errors import ConfigError
from preictal.evaluation import EvalConfig
from preictal.models import TrainPlan
from preictal.preprocess import FilterConfig, SegmentationConfig


def test_minimal_config_materializes_defaults():
    cfg = validate_config("record = data/p1.csv\n")
    assert cfg.record == "data/p1.csv"
    assert cfg.window_s == 1
    assert cfg.overlap_s == 0
    assert cfg.cutoff_hz == 40.0
    assert cfg.filter_order == 4
    assert cfg.zero_phase is True
    assert cfg.representation == "spectrogram"
    assert cfg.architecture == "mh_c_lstm_ae"
    assert cfg.smoothing_w == 31
    assert cfg.k == 2.0                      # conservative default
    assert cfg.preictal_len_s is None        # dynamic by record length
    assert cfg.postictal_len_s == 600.0
    assert cfg.epochs == 50
    assert cfg.batch_size == 32
    assert cfg.patience == 5
    assert cfg.seed == 0


def test_comments_and_blank_lines():
    cfg = validate_config("# experiment 3\n\nrecord = a.csv  # inline\nk = 3\n")
    assert cfg.record == "a.csv"
    assert cfg.k == 3.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'windows'"):
        validate_config("windows = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        validate_config("k = 1\nk = 2\n")


def test_overlap_ge_window_rejected():
    with pytest.raises(ConfigError, match="smaller than window_s"):
        validate_config("record = a.csv\nwindow_s = 1\noverlap_s = 5\n")


def test_bad_enum_rejected():
    with pytest.raises(ConfigError, match="representation"):
        validate_config("representation = mel\n")


def test_bad_boolean_rejected():
    with pytest.raises(ConfigError, match="boolean"):
        validate_config("zero_phase = maybe\n")


def test_even_smoothing_rejected():
    with pytest.raises(ConfigError, match="odd"):
        validate_config("smoothing_w = 30\n")


def test_auto_preictal():
    assert validate_config("preictal_len_s = auto\n").preictal_len_s is None
    assert validate_config("preictal_len_s = 1800\n").preictal_len_s == 1800.0


def test_overrides_validated():
    with pytest.raises(ConfigError, match="unknown config override"):
        validate_config("", overrides={"nope": 1})
    cfg = validate_config("seed = 1\n", overrides={"seed": 7, "out": "x"})
    assert cfg.seed == 7 and cfg.out == "x"


@pytest.mark.parametrize("line", [
    "window_s = 2", "overlap_s = 2", "cutoff_hz = 0", "filter_order = 0", "epochs = 0",
    "batch_size = 0", "patience = 0", "holdout_fraction = 1", "smoothing_w = 30",
    "preictal_len_s = 0", "postictal_len_s = -1", "refractory_gap_s = -1",
    "min_baseline_segments = 0", "architecture = cnn", "representation = mel",
    "cutoff_hz = nan", "refractory_gap_s = inf", "k = nan", "preictal_len_s = nan", "seed = -1",
])
def test_out_of_range_value_rejected(line, tmp_path):
    with pytest.raises(ConfigError):
        validate_config(line + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"record = {tmp_path}/rec.csv\nout = {tmp_path}/out\n{line}\n")
    assert main(["all", "--config", str(cfg)]) == 2


def test_negative_cli_seed_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"record = {tmp_path}/rec.csv\nout = {tmp_path}/out\n")
    assert main(["all", "--config", str(cfg), "--seed", "-1"]) == 2


def test_defaults_come_from_the_stage_objects():
    cfg = validate_config("")
    assert stage_settings(cfg) == (FilterConfig(), SegmentationConfig(), TrainPlan(), EvalConfig())
    assert (cfg.smoothing_w, cfg.k) == (DEFAULT_SMOOTHING_W, DEFAULT_K)
