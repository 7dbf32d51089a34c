"""`trajvrnn` and `python -m trajvrnn`: the CLI on one OpenBLAS thread
unless a BLAS thread variable is set, so `gru` and `linear` use the CPUs."""
import os
import sys


def main() -> int:
    if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, as numpy loads below
    from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
