"""Golden CLI outputs: SHA-256 of the exact report bytes, frozen before the
Jacobi sweeps, sector scans and constant tables were merged into shared code.

A refactor of those paths must leave every byte of these reports unchanged.
"""

import hashlib
import itertools
import json

import pytest

from loopexp.cli import main


def gl3_definition() -> dict:
    """gl(3) from matrix units: [E_ij, E_kl] = d_jk E_il - d_li E_kj, E_ij = 3(i-1)+j."""
    def unit(i, j):
        return 3 * (i - 1) + j

    entries = {}
    for i, j, k, l in itertools.product(range(1, 4), repeat=4):
        a, b = unit(i, j), unit(k, l)
        if a >= b:
            continue
        if j == k:
            entries[a, b, unit(i, l)] = entries.get((a, b, unit(i, l)), 0) + 1
        if l == i:
            entries[a, b, unit(k, j)] = entries.get((a, b, unit(k, j)), 0) - 1
    return {"name": "gl3", "dim": 9,
            "entries": [{"a": a, "b": b, "c": c, "value": str(v)}
                        for (a, b, c), v in sorted(entries.items()) if v]}


DEFINITIONS = {
    "file-algebra": {"name": "file-algebra", "dim": 3,
                     "entries": [{"a": 1, "b": 2, "c": 3, "value": "1/2"}]},
    "gl3": gl3_definition(),
    "nonlie": {"name": "nonlie", "dim": 4,
               "entries": [{"a": 1, "b": 2, "c": 3, "value": "1"},
                           {"a": 1, "b": 3, "c": 1, "value": "1"},
                           {"a": 2, "b": 4, "c": 3, "value": "1/2"},
                           {"a": 3, "b": 4, "c": 2, "value": "3"}]},
}

# (argv with {name} standing for a definition file, exit code, SHA-256 of the output)
GOLDEN = {
    # The 8 configurations of acceptance criterion 13.
    "validate-builtin": (["validate", "-a", "epsilon3"], 0,
                         "764c431cdf9bcefc3e301cf039b3ad623d1688b8905d15ca9737431b1c2352d7"),
    "validate-file": (["validate", "-a", "{file-algebra}"], 0,
                      "6aab53bbfd03f6390f3d647342243f60612f05982974a8dd46f100c70682da39"),
    "expand-json": (["expand", "-a", "epsilon3", "--case", "G21", "-M", "1"], 0,
                    "35fd0a7e5d854209093729db2012ebc18d6b1ec37f421311a7b00d17af05c13b"),
    "expand-latex": (["expand", "-a", "epsilon3", "--case", "G21", "-M", "1",
                      "--format", "latex"], 0,
                     "5bc3b1fadc2af9ae9dba0b7f3585f555ae006587ff820cc38c3722e960574d36"),
    "expand-generic": (["expand", "-a", "epsilon3", "--split", "generic", "--v0-gens", "1,2",
                        "--n0", "1", "--n1", "1", "-M", "1"], 0,
                       "adec0e92ee61b20d929dfd24cde4aacd5b6156cfdc3450c8181809ee83ee5f3d"),
    "contract": (["contract", "-a", "epsilon3", "-M", "2"], 0,
                 "6922b5429916d4774fd53538632098be3eafd2604fb4def78b27fa622bcdec20"),
    "mc": (["mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "3",
            "--alpha-max", "2", "-M", "1"], 0,
           "0eb22d126a769332645937a13d3d2ede0c5e53811b4533e3cb8513d9cc9351cc"),
    "sweep": (["sweep", "-a", "epsilon3", "--split", "mode_parity",
               "--n0-max", "2", "--n1-max", "3", "-M", "1"], 0,
              "ac293f654b9717f88772cfe088ea05562be38ab96b0fc2209892dcbf878577e7"),
    # The CLI calls of the jacobi-window benchmark workload.
    "gl3-expand": (["expand", "-a", "{gl3}", "--split", "mode_parity",
                    "--n0", "2", "--n1", "1", "-M", "2"], 0,
                   "926151338b3348a88fc6fcf918af39481b75bf81e95f410aa03b6af7d9ce60f9"),
    "gl3-sweep": (["sweep", "-a", "{gl3}", "--split", "mode_parity",
                   "--n0-max", "4", "--n1-max", "4", "-M", "2"], 0,
                  "d45784ee69e4b8dcffb0aa891c25a1af1c3072616bee7f09f108b31c905e2745"),
    "gl3-contract": (["contract", "-a", "{gl3}", "-M", "2"], 0,
                     "5b55fd5143538d3518c249305590b36c2f4f429f3b86fe3ca4278768c3308eb3"),
    # A tensor that is not a Lie algebra, so residual rows are nonempty.
    "nonlie-validate": (["validate", "-a", "{nonlie}"], 1,
                        "d4274dbd26a8104b6ac62f31ac17b6930aee733d43238d13cc0b6baf31450a46"),
    "nonlie-expand": (["expand", "-a", "{nonlie}", "--split", "mode_parity",
                       "--n0", "2", "--n1", "1", "-M", "2"], 1,
                      "de472ea6b977b87ac19a9d67fc966ef6617e09aa5b09e41bfd6b970751518b58"),
    "nonlie-expand-latex": (["expand", "-a", "{nonlie}", "--split", "mode_parity",
                             "--n0", "2", "--n1", "1", "-M", "2", "--format", "latex"], 1,
                            "b08209b11352d79aae7e74dad7865f8a153a410d90c289c557d4bdca8ca4aa8c"),
}


@pytest.fixture(scope="module")
def definition_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("definitions")
    paths = {}
    for name, definition in DEFINITIONS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(definition), encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_cli_output_bytes_are_frozen(tag, definition_files, tmp_path):
    argv, code, sha = GOLDEN[tag]
    argv = [definition_files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
