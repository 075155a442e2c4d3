"""USTOR: the weak fork-linearizable untrusted storage protocol (Section 5)."""
