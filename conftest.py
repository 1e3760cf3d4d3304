import importlib.util
import os
import sys
from pathlib import Path


def _on_pythonpath(origin: str) -> bool:
    """Whether a module file lies under an entry of PYTHONPATH."""
    path = Path(origin).resolve()
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return any(Path(entry).resolve() in path.parents for entry in entries if entry)


# The suite tests this checkout's src, unless PYTHONPATH names another padia.
# A padia installed in site-packages is not tested in place of this checkout.
_spec = importlib.util.find_spec("padia")
if _spec is None or _spec.origin is None or not _on_pythonpath(_spec.origin):
    sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))
