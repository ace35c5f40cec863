"""The committed study tables in results/ against a fresh run of configs/full_case*.json.

Each config runs through `gradmatch mc --jobs 2` (about 50 s per config on a
2-vCPU machine).  Its summary CSV and text must equal the committed files byte
for byte, and its raw CSVs must have the SHA-256 digests in
results/raw_sha256.txt.  Bit-identity is promised only under the numpy
version that wrote the tables (results/versions.json); under another the test
skips.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gradmatch.cli import main

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


def summary_cells(path) -> dict:
    """The cells of a summary CSV keyed by (n, weight, column)."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {(row[0], row[1], column): value for row in rows for column, value in zip(header, row)}


def differing_cells(got_path, want_path) -> list:
    got, want = summary_cells(got_path), summary_cells(want_path)
    return [
        "  n={} {} {}: got {}, committed {}".format(*key, got.get(key), want.get(key))
        for key in sorted(got.keys() | want.keys())
        if got.get(key) != want.get(key)
    ]


def committed_digests(label: str) -> dict:
    lines = (RESULTS / "raw_sha256.txt").read_text().splitlines()
    digests = dict(reversed(line.split()) for line in lines)
    return {name: digest for name, digest in digests.items() if name.startswith(f"{label}_raw_")}


@pytest.mark.slow
@pytest.mark.parametrize("config_name", ["full_case1.json", "full_case2.json"])
def test_study_tables_reproduce(config_name, tmp_path):
    versions = json.loads((RESULTS / "versions.json").read_text())
    if np.__version__ != versions["numpy"]:
        pytest.skip(f"results/ was written under numpy {versions['numpy']}; this is numpy {np.__version__}")
    config = ROOT / "configs" / config_name
    assert main(["mc", "--config", str(config), "--out-dir", str(tmp_path), "--jobs", "2"]) == 0
    label = json.loads(config.read_text())["label"]

    problems = []
    for suffix in ("summary.csv", "summary.txt"):
        name = f"{label}_{suffix}"
        if (tmp_path / name).read_bytes() != (RESULTS / name).read_bytes():
            problems.append(f"{name} differs")
            if suffix == "summary.csv":
                problems += differing_cells(tmp_path / name, RESULTS / name)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.glob(f"{label}_raw_*.csv")}
    want = committed_digests(label)
    problems += [f"{name}: SHA-256 differs" for name in sorted(got.keys() | want.keys()) if got.get(name) != want.get(name)]
    assert not problems, "\n".join(problems)
