"""Reconstruction model assembly, baseline selection, training and scoring."""
from .architectures import (ARCHITECTURES, DEFAULT_HYPER, ArchitectureSpec,
                            build, instantiate, parameter_count,
                            sequence_layout, to_model_input)
from .baseline import (BASELINE_CAP_FRACTION, BASELINE_CAP_S,
                       BaselineUnavailableError, baseline_cap_s,
                       select_baseline)
from .training import (TrainedModel, TrainPlan, dump_trained, load_trained,
                       score, train)

__all__ = [
    "ARCHITECTURES", "DEFAULT_HYPER", "ArchitectureSpec", "build",
    "instantiate", "parameter_count", "sequence_layout", "to_model_input",
    "select_baseline", "BaselineUnavailableError", "baseline_cap_s",
    "BASELINE_CAP_S", "BASELINE_CAP_FRACTION",
    "TrainPlan", "TrainedModel", "train", "score",
    "dump_trained", "load_trained",
]
