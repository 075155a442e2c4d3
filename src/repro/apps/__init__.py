"""Applications composed on top of the fail-aware storage service."""
