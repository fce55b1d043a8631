"""Exact arithmetic for the noncommutative Lagrange series and its
companion Catalan combinatorics."""

from .algebra import (
    BasisMismatch,
    NSymElement,
    QSymElement,
    TensorElement,
    convert,
    pair,
    coproduct,
    antipode,
)

__all__ = [
    "BasisMismatch",
    "NSymElement",
    "QSymElement",
    "TensorElement",
    "convert",
    "pair",
    "coproduct",
    "antipode",
]

__version__ = "0.1.0"
