"""tests/cli_digest.py: its fixed CLI runs give one digest at any thread count."""

from cli_digest import digest


def test_digest_does_not_depend_on_threads():
    assert digest(threads=1) == digest(threads=2)
