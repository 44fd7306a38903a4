"""python3 -m inqmt: the inqmt command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
