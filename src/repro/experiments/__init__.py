"""The experiment harness: one module per reproduced figure/claim.

The recorded paper-vs-measured outcomes are generated into EXPERIMENTS.md
by ``python -m repro experiments --write``; each experiment's headline
claims are asserted by ``benchmarks/test_bench_experiments.py`` and its
full-size section is pinned by ``tests/test_experiments_golden.py``.
"""

import re
from importlib import import_module
from pkgutil import iter_modules

#: Experiment id (``E1`` .. ``E20``) -> its module, in id order.  An
#: experiment is named once, by its file: every ``eNN_*`` module of this
#: package, exposing ``run(quick=False) -> ExperimentResult``.
EXPERIMENTS = {
    f"E{int(name[1:3])}": import_module(f"{__name__}.{name}")
    for name in sorted(module.name for module in iter_modules(__path__))
    if re.match(r"e\d\d_", name)
}

__all__ = ["EXPERIMENTS"]
