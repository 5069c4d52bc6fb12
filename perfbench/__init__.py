"""End-to-end and per-layer benchmark of the dHMM system (see README.md)."""
