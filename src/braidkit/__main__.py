"""``python -m braidkit``: the same command line as the ``braidkit`` script."""

import sys

from .cli import main

sys.exit(main())
