"""``python -m mmasr``: the command-line interface of ``mmasr.cli``."""

from .cli import main

main()
