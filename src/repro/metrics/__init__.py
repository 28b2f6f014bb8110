"""Metrics: the paper's evaluation quantities, confidence intervals, reports.

This package re-exports nothing: import from the submodule that defines a
name.
"""
