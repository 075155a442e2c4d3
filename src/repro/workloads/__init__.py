"""Workloads: system assembly, scripted/random drivers, paper scenarios."""
