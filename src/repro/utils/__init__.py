"""Shared helpers: power-law fitting, table rendering."""

from .fitting import PowerLawFit, fit_power_law, geometric_grid
from .tables import render_table

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "geometric_grid",
    "render_table",
]
