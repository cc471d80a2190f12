"""Helpers for the repository benchmark (see ``perfbench/run.py``)."""
