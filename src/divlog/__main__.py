"""``python -m divlog``: the ``divlog`` command, with its exit status."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
