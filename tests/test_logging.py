"""The library logger: present, and silent unless the application
configures logging."""

import os
import subprocess
import sys
from pathlib import Path

import freelip

SILENT_RUN = """
import logging
import freelip as fl

root_handlers = list(logging.getLogger().handlers)
space = fl.validate([[0, 2, 1], [2, 0, 1], [1, 1, 0]], ["a", "b", "c"])
fl.classify_all(space).pair_verdicts
fl.classify_pair(space, "a", "b")
# with no handler of the application's, lastResort would print these
logging.getLogger("freelip").warning("a warning")
logging.getLogger("freelip.space").error("an error")
logger = logging.getLogger("freelip")
assert [type(h) for h in logger.handlers] == [logging.NullHandler]
assert (logger.level, logger.propagate) == (logging.NOTSET, True)
assert logging.getLogger().handlers == root_handlers == []
"""


def test_import_and_a_classify_run_print_nothing():
    src = str(Path(freelip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-c", SILENT_RUN], capture_output=True, text=True, env=env, check=False
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
