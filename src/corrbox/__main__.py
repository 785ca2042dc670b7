"""python -m corrbox runs the command-line interface (see corrbox.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
