"""``python -m vilenkin``: the command line of :mod:`vilenkin.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
