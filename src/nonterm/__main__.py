"""`python -m nonterm`: the command-line front end (`nonterm.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
