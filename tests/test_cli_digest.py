"""tests/cli_digest.py: its fixed CLI runs give one digest at any thread count,
and that digest is pinned."""

from cli_digest import digest

# The digest of the RUNS list, at --threads 1 and 2.  A change that moves
# output bits edits this literal, and records the old and new digests and
# the reason in CHANGES.md and in the README's "Manifest compatibility" list.
PINNED = "58bed49c6234ec5bb91c6ae5287ce96781c3ed1b9cadd39059aa58cc29b855df"


def test_digest_does_not_depend_on_threads():
    one = digest(threads=1)
    assert one == digest(threads=2)
    assert one == PINNED
