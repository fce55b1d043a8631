"""``python -m nclag``: the same command line as the ``nclag`` script."""

from . import cli

if __name__ == "__main__":
    raise SystemExit(cli.main())
