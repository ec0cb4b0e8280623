"""`python -m hodgekp`: the command-line interface of `hodgekp.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
