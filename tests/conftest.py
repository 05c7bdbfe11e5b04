"""Make a relative PYTHONPATH absolute before any test runs, so that
subprocesses started with another working directory still import the
package under test."""

import os

if os.environ.get("PYTHONPATH"):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        os.path.abspath(p) if p else p for p in os.environ["PYTHONPATH"].split(os.pathsep)
    )
