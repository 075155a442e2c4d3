"""FAUST: the fail-aware untrusted storage service layer (Section 6)."""
