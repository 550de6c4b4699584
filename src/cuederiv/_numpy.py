"""The package's numpy handle: numpy itself once it is imported, else a module
that imports numpy on its first attribute access (the `importlib.util.LazyLoader`
recipe), so a command that does no array work starts without it.  Before 3.12
that first access is not thread-safe: touch numpy before starting workers."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
