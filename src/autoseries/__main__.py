"""``python -m autoseries``: the ``autoseries`` command line."""

import sys

from .cli import main

sys.exit(main())
