"""Cryptographic substrate: hash ``H`` and signatures ``sign_i``/``verify_i``."""
