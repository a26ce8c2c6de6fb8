"""Bucketed tile-inference engine for large rasters.

Big scenes are split into tiles, each tile is embedded and hashed into a
homogeneous bucket, a per-bucket model labels its tiles across a ticketed
worker pool, and the labeled tiles merge back into full-scene masks with
throughput and speedup accounting along the way.
"""
