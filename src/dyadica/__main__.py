"""``python -m dyadica``: the ``dyadica`` command."""

from .cli import main

raise SystemExit(main())
