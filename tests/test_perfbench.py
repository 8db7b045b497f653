"""The benchmark tracer still finds every entry point it wraps.

The tracer replaces functions at the attribute where each caller looks them
up; a renamed or re-imported function would otherwise only surface when the
traced benchmark runs.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import tracer  # noqa: E402


def test_install_wraps_and_uninstall_restores_every_entry_point():
    targets = tracer._SPANS + tracer._COUNTED
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    t = tracer.Tracer()
    t.install()
    try:
        for (owner, attr, name, _), fn in zip(targets, originals):
            assert owner.__dict__[attr] is not fn, f"{name}: {attr} not wrapped"
    finally:
        t.uninstall()
    for (owner, attr, name, _), fn in zip(targets, originals):
        assert owner.__dict__[attr] is fn, f"{name}: {attr} not restored"
