"""``python -m ypa``: the command-line interface, as the ``ypa`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
