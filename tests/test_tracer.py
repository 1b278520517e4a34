"""The benchmark's tracer rebinds skewalg functions by name; every name it
lists must resolve in the loaded modules, so that a rename or deletion fails
here and not only in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402

NAMES = [
    (layer, qual)
    for table in (tracer.SPANS, tracer.HOT, tracer.COUNT)
    for layer, quals in table.items()
    for qual in quals
]


@pytest.mark.parametrize("layer, qual", NAMES)
def test_traced_name_resolves(layer, qual):
    home = importlib.import_module(f"skewalg.{layer}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        cls = getattr(home, cls_name)
        assert attr in vars(cls) and callable(getattr(cls, attr)), qual
    else:
        assert callable(getattr(home, qual, None)), qual


def test_install_and_uninstall_restore_every_binding():
    for layer in {layer for layer, _ in NAMES} | {"identities"}:
        importlib.import_module(f"skewalg.{layer}")
    mods = [m for n, m in sys.modules.items() if n.startswith("skewalg.") and m is not None]
    before = [dict(vars(m)) for m in mods]
    rec = tracer.Recorder()
    rec.install()
    try:
        assert rec._undo
    finally:
        rec.uninstall()
    assert [dict(vars(m)) for m in mods] == before
