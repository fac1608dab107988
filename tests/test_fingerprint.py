"""tools/fingerprint.py on the first two calls of its list."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_first_two_calls_print_one_stable_digest_line_each():
    first = fingerprint.calls()[:2]
    assert [" ".join(argv) for argv in first] == fingerprint.README[:2]
    lines = [fingerprint.fingerprint(argv) for argv in first]
    for argv, line in zip(first, lines):
        digest, shown = line.split("  ", 1)
        assert re.fullmatch("[0-9a-f]{64}", digest) and shown == " ".join(argv)
    assert lines[0] != lines[1]
    assert [fingerprint.fingerprint(argv) for argv in first] == lines
