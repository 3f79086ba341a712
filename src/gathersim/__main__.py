"""``python -m gathersim``: the command-line tool, as ``gathersim.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
