"""`python -m groupsum ...`: the same command line as the `groupsum` script."""

from .cli import main

main()
