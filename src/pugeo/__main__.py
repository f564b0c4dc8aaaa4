"""``python -m pugeo``: the `pugeo` command line."""

import sys

from .cli import main

sys.exit(main())
