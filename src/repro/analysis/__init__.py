"""Measurement substrate: trace capture, metrics, state coverage."""
