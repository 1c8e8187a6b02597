"""Pinned reference implementations that fast paths must match bit for bit."""
