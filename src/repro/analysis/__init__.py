"""Experiment analysis: trace reductions, fits, and table rendering."""
