"""python -m collisionlab: the collisionlab command line."""

import sys

from .cli import main

sys.exit(main())
