"""python -m fairdyn runs the fairdyn CLI (fairdyn.cli.main)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
