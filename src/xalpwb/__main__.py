"""Entry point for `python -m xalpwb`, the same command line as `xalpwb`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
