"""Record which code objects a process runs, for ``benchmarks/reach.py``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one.  ``reach.py`` puts this directory first on
``PYTHONPATH``, so every process it starts, and every process those
start, installs the hook before its main module runs.  The hook does
nothing unless ``REACH_OUT`` names a directory; at exit each process
writes there the ``[filename, first line, name]`` of every code object
that reported a ``call`` event.
"""

import atexit
import json
import os
import sys
import tempfile
import threading


def _install(out_dir):
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        rows = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in seen})
        fd, _ = tempfile.mkstemp(prefix=f"{os.getpid()}-", suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("REACH_OUT"):
    _install(os.environ["REACH_OUT"])
