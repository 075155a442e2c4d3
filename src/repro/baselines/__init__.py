"""The baseline protocol: the blocking fork-linearizable design."""
