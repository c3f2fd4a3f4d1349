"""Record which ``src/repro`` functions a Python process runs.

Put this directory on ``PYTHONPATH`` and set ``REPRO_REACH_DIR`` to a
directory outside the checkout; every Python process started that way
(subprocesses too, while they keep the environment) installs a
``sys.setprofile``/``threading.setprofile`` hook and, at exit, writes
one ``<pid>-<random>.txt`` file there with a
``<path under src/repro>:<first line>`` line per code object it
entered.  Without ``REPRO_REACH_DIR`` the module does nothing.
``tools/reach/check.py`` reads the files.
"""

import os

_OUT = os.environ.get("REPRO_REACH_DIR")

if _OUT:
    import atexit
    import sys
    import threading

    _HERE = os.path.dirname(os.path.abspath(__file__))
    _ROOT = os.path.normpath(
        os.path.join(_HERE, os.pardir, os.pardir, "src", "repro")
    ) + os.sep
    _seen = set()

    def _profile(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)

    def _write():
        sys.setprofile(None)
        threading.setprofile(None)
        paths = {
            code: os.path.abspath(code.co_filename) for code in list(_seen)
        }
        lines = sorted(
            {
                f"{path[len(_ROOT):]}:{code.co_firstlineno}\n"
                for code, path in paths.items()
                if path.startswith(_ROOT)
            }
        )
        name = f"{os.getpid()}-{os.urandom(4).hex()}.txt"
        with open(os.path.join(_OUT, name), "w") as handle:
            handle.writelines(lines)

    atexit.register(_write)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
