"""The bundled scenarios' output bytes, pinned by SHA-256.

``run-all --seed 7 --plot-data`` writes 42 files (a trace CSV, a summary
JSON and a plot-data CSV for each of the 14 bundled scenarios) and one
stdout line a scenario. Their digests are kept in
``tests/data/run_all_seed7.sha256``, one ``<hex>  <name>`` line each, with
stdout under the name ``(stdout)``. A change that alters these bytes on
purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_bundled_bytes.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import sys

from resilient_consensus.cli import main

MANIFEST = pathlib.Path(__file__).parent / "data" / "run_all_seed7.sha256"
STDOUT = "(stdout)"


def _digests(out_dir: pathlib.Path) -> dict:
    """{name: SHA-256 hex} of run-all's stdout and of every file it writes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run-all", "--seed", "7", "--plot-data", "--out", str(out_dir)]) == 0
    digests = {STDOUT: hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _read_manifest() -> dict:
    pairs = (line.split("  ", 1) for line in MANIFEST.read_text().splitlines() if line)
    return {name: digest for digest, name in pairs}


def test_run_all_seed7_bytes_match_the_manifest(tmp_path):
    expected = _read_manifest()
    assert len(expected) == 43  # stdout and 3 files for each of the 14 scenarios
    got = _digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in expected if got[name] != expected[name])
    assert not changed, f"bytes differ from {MANIFEST.name}: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{digest}  {name}\n" for name, digest in _digests(pathlib.Path(tmp)).items()]
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {MANIFEST}", file=sys.stderr)
