"""The installed runtime depends on numpy alone."""

import os
import subprocess
import sys

import numpy

import scert

_PROBE = """
import sys
before = set(sys.modules)
import scert, scert.cli, scert.render, scert.problemfile
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
"""


def _parent_dir(module) -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(module.__file__)))


def test_only_numpy_is_imported_outside_the_standard_library():
    # a fresh interpreter without site hooks (-S), so that neither the test
    # tools loaded here nor modules preloaded by .pth files count
    path = os.pathsep.join([_parent_dir(scert), _parent_dir(numpy)])
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE], check=True,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True).stdout
    assert out.split() == ["numpy", "scert"]
