"""Console entry point of the ``hyperwalk`` command.

Small products run faster on one BLAS thread than on a pool, so when
neither ``OPENBLAS_NUM_THREADS`` nor ``OMP_NUM_THREADS`` is set the command
sets both to 1 before numpy loads; a value that is set is left alone.  This
module sits outside the ``hyperwalk`` package, whose imports load numpy, so
that ``import hyperwalk`` as a library changes no environment variable.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in THREAD_VARS):
        os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    from hyperwalk.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
