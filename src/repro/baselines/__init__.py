"""Baseline federated methods compared against FedBIAD in the paper."""

from .afd import AFD
from .fedavg import FedAvg
from .feddrop import FedDrop, model_hidden_widths
from .fedmp import FedMP, magnitude_masks
from .fjord import Fjord, ordered_model_masks
from .heterofl import HeteroFL
from .masks import (
    apply_element_masks,
    kept_entries,
    lstm_unit_masks,
    masked_start,
    mlp_unit_masks,
    ordered_keep,
    random_keep,
    scale_kept_entries,
)
from .registry import METHOD_NAMES, make_method, register_method

__all__ = [
    "AFD",
    "FedAvg",
    "FedDrop",
    "FedMP",
    "Fjord",
    "HeteroFL",
    "model_hidden_widths",
    "magnitude_masks",
    "ordered_model_masks",
    "apply_element_masks",
    "kept_entries",
    "lstm_unit_masks",
    "masked_start",
    "mlp_unit_masks",
    "ordered_keep",
    "random_keep",
    "scale_kept_entries",
    "METHOD_NAMES",
    "make_method",
    "register_method",
]
