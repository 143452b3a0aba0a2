"""Input side of the toolkit: EDF and CSV records, annotation sidecars, and
the synthetic ECG oracle."""
from .edf import EdfHeader, EdfSignalHeader, parse_edf, parse_edf_header, write_edf
from .records import (EcgRecord, SeizureAnnotation, SeizureType, SyntheticEvent,
                      SyntheticSpec, validate_annotations)
from .synthetic import generate_synthetic
from .text import load_annotations, parse_csv, serialize_annotations, serialize_csv

__all__ = [
    "EcgRecord", "SeizureAnnotation", "SeizureType",
    "SyntheticSpec", "SyntheticEvent", "validate_annotations",
    "parse_edf", "parse_edf_header", "write_edf", "EdfHeader", "EdfSignalHeader",
    "parse_csv", "serialize_csv", "load_annotations", "serialize_annotations",
    "generate_synthetic",
]
