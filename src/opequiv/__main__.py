"""``python -m opequiv``: the same entry point as the ``opequiv`` command."""

import sys

from .cli import main

sys.exit(main())
