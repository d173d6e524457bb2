"""Replay of the CLI conformance corpus ``cli_corpus.json``: every recorded
run must give the same exit status, stdout and stderr, byte for byte."""

import json

import cli_corpus

ENTRIES = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_holds_the_recipes_of_its_script():
    assert [{"argv": e["argv"], "stdin": e["stdin"]} for e in ENTRIES] == cli_corpus.cases()


def test_every_recorded_run_replays_byte_for_byte():
    changed = []
    for i, entry in enumerate(ENTRIES):
        want = {key: entry[key] for key in entry if key not in ("argv", "stdin")}
        got = cli_corpus.outcome(entry)
        if got != want:
            changed.append(f"entry {i} {entry['argv']}: {want} != {got}")
    assert changed == []

