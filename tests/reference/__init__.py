"""Frozen reference implementations used as oracles by the differential tests."""
