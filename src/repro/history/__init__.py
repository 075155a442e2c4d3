"""Histories, operations, the register spec, and causal structure (Section 2)."""
