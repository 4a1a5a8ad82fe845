"""Golden CLI outputs: SHA-256 of the exact report bytes.

The first 14 were frozen before the Jacobi sweeps, sector scans and constant
tables were merged into shared code; the zero-mode and generic rows were frozen
before the splitting's order rules became a table.  A refactor of those paths
must leave every byte of these reports unchanged.

The five ``mc`` rows were re-pinned when the MC residual became one pruned
integer pass, which redefined the three residual counters.  Their second
SHA-256, taken over the report with the counter values blanked, was frozen
before that rewrite, so everything but the counters is still the old bytes.

The ``mc-large`` row was frozen before the canonical-form series moved to
integer arithmetic and the reports to the package's own JSON emitter.
"""

import hashlib
import itertools
import json
import re

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
           "9766990a7ab830922eef620c37047a902fc97e5467753a068e7c392d201132c6"),
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
    # mc, sweep and expand on the zero-mode split and on the generic split with
    # V0 = {1, 2}: the generic mc report fails if the unit-differential rule of
    # the grading check is applied to sector-1 labels, whose power-0 bucket lacks
    # the bare differential.
    "eps-zero-mc": (["mc", "-a", "epsilon3", "--split", "zero_mode", "-D", "3",
                     "--alpha-max", "2", "-M", "1"], 0,
                    "1356c2846769c61a4699147e8d295100185e0dccaa5abd72d44782f86fe28459"),
    "eps-zero-sweep": (["sweep", "-a", "epsilon3", "--split", "zero_mode",
                        "--n0-max", "2", "--n1-max", "3", "-M", "1"], 0,
                       "43682c22a3c4d89d0825005fc133b43f9e41f3c17598b645b9a3d5f9acbe2f2d"),
    "eps-zero-expand": (["expand", "-a", "epsilon3", "--split", "zero_mode",
                         "--n0", "1", "--n1", "1", "-M", "1"], 0,
                        "660358e92db8218713fe34e5c355e17a983e1e65336e559881c96a5fa21bceb5"),
    "eps-generic-mc": (["mc", "-a", "epsilon3", "--split", "generic", "--v0-gens", "1,2",
                        "-D", "3", "--alpha-max", "2", "-M", "1"], 0,
                       "5e541ecb1a8ecf0e811ed1160ace3a4b9793e95a774afffe03031c5b4a1f21bc"),
    "eps-generic-sweep": (["sweep", "-a", "epsilon3", "--split", "generic", "--v0-gens", "1,2",
                           "--n0-max", "2", "--n1-max", "3", "-M", "1"], 0,
                          "9baff218eba3bce7e908982a1fda9b4b8c20b27363b5d6033b181a4571a7863b"),
    "gl3-zero-mc": (["mc", "-a", "{gl3}", "--split", "zero_mode", "-D", "3",
                     "--alpha-max", "2", "-M", "1"], 0,
                    "2f0bcd09614350a30facdeda6c5d0a0f20451225abd97e02c8dadd4204ba1f21"),
    "gl3-zero-sweep": (["sweep", "-a", "{gl3}", "--split", "zero_mode",
                        "--n0-max", "2", "--n1-max", "3", "-M", "1"], 0,
                       "42f759875434d1e58a6846fd8ec8af890c866734a84b9a6515f4143052ef2419"),
    "gl3-zero-expand": (["expand", "-a", "{gl3}", "--split", "zero_mode",
                         "--n0", "1", "--n1", "1", "-M", "1"], 0,
                        "fff8a5b41eed904934b5fd6030bf7b320d87791306e0fef5b3693feff645e565"),
    "gl3-generic-mc": (["mc", "-a", "{gl3}", "--split", "generic", "--v0-gens", "1,2",
                        "-D", "3", "--alpha-max", "2", "-M", "1"], 0,
                       "70347b461e8fd0e12dd482e77aa07464fefdb3a03c38abbfe8bfc80770f047da"),
    "gl3-generic-sweep": (["sweep", "-a", "{gl3}", "--split", "generic", "--v0-gens", "1,2",
                           "--n0-max", "2", "--n1-max", "3", "-M", "1"], 0,
                          "9b1591705f1ac16fb1df05f874faa905e724af2c9b0f24330f7128f18cf91d13"),
    "gl3-generic-expand": (["expand", "-a", "{gl3}", "--split", "generic", "--v0-gens", "1,2",
                            "--n0", "1", "--n1", "1", "-M", "1"], 0,
                           "72bd3863ed3748428acfac7483133739302c6eb7e3c78f7601c8e654e7a7f985"),
    # Non-closed truncations, so closure_violations is nonempty (24, 24 and 28
    # witnesses); frozen before the retention rule was written once.
    "eps-coset-open-expand": (["expand", "-a", "epsilon3", "--split", "mode_parity",
                               "--n0", "0", "--n1", "3", "-M", "1"], 1,
                              "23e28c934f1c031e25dd8744e11b35e2aea3b8b0351a57f3baff42893e04b1a0"),
    "eps-zero-open-expand": (["expand", "-a", "epsilon3", "--split", "zero_mode",
                              "--n0", "0", "--n1", "2", "-M", "1"], 1,
                             "304b2773f16f0b1c70b2bc0fd9dbcfa5b8db269cbedaa3d700ddae950bd38bce"),
    "eps-generic-open-expand": (["expand", "-a", "epsilon3", "--split", "generic",
                                 "--v0-gens", "1,2", "--n0", "0", "--n1", "1", "-M", "1"], 1,
                                "2d000bc696c573c857f3c2bcaa798f221aafe4e83d26fd0352fa59326a198793"),
    # The mc call of the mc-residual benchmark workload: a 10 MB report.
    "mc-large": (["mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "5",
                  "--alpha-max", "2", "-M", "2"], 0,
                 "eb736dd12fc7c96ed69c9ce8b8795457c7f2e506cf588b701a0f61675d477bfe"),
}


# SHA-256 of each mc report with the values of MC_COUNTERS blanked by blank_counters.
MC_WITHOUT_COUNTERS = {
    "mc": "e6f8dd9a2b5fc21b54458276ab3d2955e14d8a99ad607951b780680156f504fe",
    "eps-zero-mc": "1122a3a967a7430bdd7024eca3a4dd9b38f2b2a4075723666d87da7fb27a1879",
    "eps-generic-mc": "9cb2dc915ac0665703efdcdd77a4093b2a6b3542ed18a533f59e41c1e405d141",
    "gl3-zero-mc": "ab02c3e5894c5a5926478660d8e9ec25475c0dd89bf7ab6cdca79f0e266c1240",
    "gl3-generic-mc": "b3de84ca817e8485adf8d07ceee77ea3d3571d52ef7780f159bdfed00b1c9c70",
}
MC_COUNTERS = ("terms_checked", "mode_censored", "degree_censored")
MC_REPORT_KEYS = {"algebra", "alpha_max", "degree", "degree_censored", "grading_ok",
                  "grading_violations", "mode_censored", "residual_violations",
                  "residuals_ok", "series", "series_censored", "splitting",
                  "terms_checked", "window"}


def blank_counters(data: bytes) -> bytes:
    """The report bytes with each MC counter's value replaced by '-'."""
    pattern = rb'("(?:' + "|".join(MC_COUNTERS).encode() + rb')": )\d+'
    blanked, count = re.subn(pattern, rb"\1-", data)
    assert count == len(MC_COUNTERS)
    return blanked


@pytest.fixture(scope="module")
def definition_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("definitions")
    paths = {}
    for name, definition in DEFINITIONS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(definition), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run(tag, definition_files, tmp_path) -> bytes:
    argv, code, _ = GOLDEN[tag]
    argv = [definition_files[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]
    out = tmp_path / "report.out"
    assert main(argv + ["--out", str(out)]) == code
    return out.read_bytes()


def refuse_float(text: str):
    raise AssertionError(f"a report holds the float {text}")


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_cli_output_bytes_are_frozen(tag, definition_files, tmp_path):
    data = _run(tag, definition_files, tmp_path)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[tag][2]
    # Reports are exact: every number in them is an integer.
    if "latex" not in GOLDEN[tag][0]:
        json.loads(data, parse_float=refuse_float)


@pytest.mark.parametrize("tag", sorted(MC_WITHOUT_COUNTERS))
def test_mc_report_without_counters_is_frozen(tag, definition_files, tmp_path):
    blanked = blank_counters(_run(tag, definition_files, tmp_path))
    assert hashlib.sha256(blanked).hexdigest() == MC_WITHOUT_COUNTERS[tag]


def test_mc_report_top_level_keys(definition_files, tmp_path):
    assert set(json.loads(_run("mc", definition_files, tmp_path))) == MC_REPORT_KEYS
