"""python -m pqnverify: the pqnverify command."""
import sys

from pqnverify.cli import main

if __name__ == "__main__":
    sys.exit(main())
