"""Workload generation: CBR traffic and the paper's evaluation scenarios.

This package re-exports nothing: import from the submodule that defines a
name.
"""
