"""Experiment harness: config ingestion, execution, reports, validation."""
