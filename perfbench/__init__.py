"""Seeded benchmark of the poseconf command-line pipeline (see run.py)."""
