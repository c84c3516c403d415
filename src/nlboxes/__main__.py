"""``python -m nlboxes``: the same command line as the ``nlboxes`` script."""

from .cli import main

if __name__ == "__main__":
    main()
