"""Set-up probe: what every CLI invocation pays before its command runs.

A fresh interpreter imports numpy, then ``impactseries.cli``, then builds the
argument parser, and prints the stage times with the versions and the
location of the package it imported, as one JSON line.
"""

import time

start = time.perf_counter()
import numpy  # noqa: E402

numpy_done = time.perf_counter()
import impactseries  # noqa: E402
import impactseries.cli  # noqa: E402

package_done = time.perf_counter()
impactseries.cli.build_parser()
parser_done = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

print(
    json.dumps(
        {
            "import_numpy_s": numpy_done - start,
            "import_package_s": package_done - numpy_done,
            "build_parser_s": parser_done - package_done,
            "package_file": impactseries.__file__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "public_names": len(impactseries.__all__),
        }
    )
)
