"""Process entry of the command line: `python -m fodesolve` runs this
module, and the `fodesolve` console script calls its main.

Importing it changes nothing; only main touches the environment.
"""

import os
import sys


def main() -> int:
    # One OpenBLAS thread unless the caller set a count: no sum in the
    # package calls a threaded BLAS routine, and the worker OpenBLAS
    # starts per extra CPU spin-waits before it sleeps, about 0.13 s of
    # CPU per process.  OpenBLAS reads the variable when numpy loads,
    # so it is set before cli imports numpy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
