"""Slate reranking engine: one-shot generator, sequence evaluator, simulator."""

from .numerics import AdamState, Params, Tape, Tensor, adam_step

__version__ = "0.4.0"

__all__ = ["Tensor", "Tape", "Params", "AdamState", "adam_step", "__version__"]
