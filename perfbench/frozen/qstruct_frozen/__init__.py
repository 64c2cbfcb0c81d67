"""A frozen copy of the qstruct modules that `classify` needs, as they were
when the benchmark was defined; only the package name in the imports differs.

The benchmark runs one fixed `classify` through this copy after every op, as
its host-speed yardstick (see perfbench/hostspeed.py). Never edit it to follow
the package: a yardstick that changed with the program would cancel the
program's own gains and losses.
"""

__version__ = "0.1.0"
