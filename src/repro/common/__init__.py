"""Shared primitives: identifiers, the BOTTOM value, errors, encoding."""
