"""``python -m clfmeasures``: the command-line front end without an install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
