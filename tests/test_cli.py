"""End-to-end command-line behavior: exit codes, reports, determinism."""

import json

import pytest

from loopexp import ContractedAlgebra, LoopLabel
from loopexp.cli import SETTINGS, main

EPS_ARGS = ["--algebra", "epsilon3"]


def run(*args):
    return main(list(args))


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_validate_builtin_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run("validate", *EPS_ARGS, "--out", str(out)) == 0
    payload = read(out)
    assert payload["valid"] is True
    assert payload["antisymmetry_violations"] == []
    assert payload["jacobi_defects"] == []


def test_validate_broken_antisymmetry_file(tmp_path):
    fixture = tmp_path / "broken.json"
    fixture.write_text(json.dumps({
        "name": "broken", "dim": 3,
        "entries": [{"a": 1, "b": 2, "c": 3, "value": "1"},
                    {"a": 2, "b": 1, "c": 3, "value": "1"}]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run("validate", "--algebra", str(fixture), "--out", str(out)) == 1
    payload = read(out)
    assert payload["valid"] is False
    row = payload["antisymmetry_violations"][0]
    assert (row["a"], row["b"], row["c"]) == (1, 2, 3)


def test_validate_jacobi_defective_file(tmp_path):
    fixture = tmp_path / "nonjacobi.json"
    fixture.write_text(json.dumps({
        "name": "nonjacobi", "dim": 3,
        "entries": [{"a": 1, "b": 2, "c": 1, "value": "1"},
                    {"a": 1, "b": 3, "c": 3, "value": "1"}]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run("validate", "--algebra", str(fixture), "--out", str(out)) == 1
    assert read(out)["jacobi_defects"]


def test_validate_missing_file():
    assert run("validate", "--algebra", "/no/such/file.json") == 2


def test_validate_unparsable_file(tmp_path):
    fixture = tmp_path / "garbage.json"
    fixture.write_text("not json", encoding="utf-8")
    assert run("validate", "--algebra", str(fixture)) == 2


def test_missing_algebra_flag_is_usage_error():
    assert run("validate") == 2


def test_expand_closed_case(tmp_path):
    out = tmp_path / "g21.json"
    code = run("expand", *EPS_ARGS, "--split", "mode_parity",
               "--n0", "2", "--n1", "1", "--window", "1", "--out", str(out))
    assert code == 0
    payload = read(out)
    assert payload["closed"] is True
    assert payload["jacobi"]["ok"] is True
    assert len(payload["generators"]) == 12
    assert payload["constants"]


def test_expand_unclosed_orders(tmp_path):
    out = tmp_path / "open.json"
    code = run("expand", *EPS_ARGS, "--split", "generic", "--v0-gens", "1,2",
               "--n0", "0", "--n1", "1", "--window", "1", "--out", str(out))
    assert code == 1
    payload = read(out)
    assert payload["closed"] is False
    assert payload["closure_violations"]
    assert payload["jacobi"] is None


def test_case_alias_matches_explicit_flags(tmp_path):
    by_case = tmp_path / "case.json"
    by_flags = tmp_path / "flags.json"
    assert run("expand", *EPS_ARGS, "--case", "G01", "--window", "2",
               "--out", str(by_case)) == 0
    assert run("expand", *EPS_ARGS, "--split", "mode_parity", "--n0", "0",
               "--n1", "1", "--window", "2", "--out", str(by_flags)) == 0
    assert by_case.read_bytes() == by_flags.read_bytes()


def test_expand_latex_output(tmp_path):
    out = tmp_path / "tables.tex"
    assert run("expand", *EPS_ARGS, "--case", "G21", "--window", "1",
               "--format", "latex", "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert r"\begin{align*}" in text
    assert "% orders (1, 1)" in text


def test_expand_latex_builds_no_json_payload(tmp_path, monkeypatch):
    def refuse(alg):
        raise AssertionError("the JSON constants table was built for LaTeX output")

    monkeypatch.setattr("loopexp.cli._constants_json", refuse)
    assert run("expand", *EPS_ARGS, "--case", "G21", "--window", "1",
               "--format", "latex", "--out", str(tmp_path / "tables.tex")) == 0


def test_contract_matches(tmp_path):
    out = tmp_path / "contract.json"
    assert run("contract", *EPS_ARGS, "--window", "2", "--out", str(out)) == 0
    payload = read(out)
    assert payload["match"] is True and payload["diffs"] == []


def test_contract_builds_no_generator_set(tmp_path, monkeypatch):
    # The comparison reads brackets, so the expansion's windowed generators,
    # derived on first use, are never listed.
    def refuse(*args):
        raise AssertionError("a generator set was built")

    monkeypatch.setattr("loopexp.expansion.generator_set", refuse)
    assert run("contract", *EPS_ARGS, "--window", "2", "--out", str(tmp_path / "c.json")) == 0


def test_contract_abelian(tmp_path):
    assert run("contract", "--algebra", "abelian4", "--window", "1",
               "--out", str(tmp_path / "c.json")) == 0


def test_contract_detects_perturbation(tmp_path, monkeypatch):
    class Perturbed(ContractedAlgebra):
        def bracket(self, x, y):
            row = super().bracket(x, y)
            if (x, y) == (LoopLabel(1, 0), LoopLabel(2, 1)):
                row[LoopLabel(3, 1)] += 1
            return row

    monkeypatch.setattr("loopexp.cli.iw_contract",
                        lambda f, s, window: Perturbed(f, s, window))
    out = tmp_path / "contract.json"
    assert run("contract", *EPS_ARGS, "--window", "1", "--out", str(out)) == 1
    payload = read(out)
    assert payload["match"] is False
    assert len(payload["diffs"]) == 1


def test_mc_passes(tmp_path):
    out = tmp_path / "mc.json"
    code = run("mc", *EPS_ARGS, "--split", "mode_parity", "--degree", "3",
               "--alpha-max", "2", "--window", "2", "--out", str(out))
    assert code == 0
    payload = read(out)
    assert payload["residuals_ok"] is True and payload["grading_ok"] is True
    assert payload["series"]


def test_mc_generic_split(tmp_path):
    assert run("mc", *EPS_ARGS, "--split", "generic", "--v0-gens", "1",
               "--degree", "3", "--alpha-max", "2", "--window", "1",
               "--out", str(tmp_path / "mc.json")) == 0


def test_mc_abelian(tmp_path):
    assert run("mc", "--algebra", "abelian4", "--split", "zero_mode",
               "--degree", "3", "--alpha-max", "2", "--window", "2",
               "--out", str(tmp_path / "mc.json")) == 0


def test_mc_degree_too_low():
    assert run("mc", *EPS_ARGS, "--split", "mode_parity",
               "--degree", "1", "--alpha-max", "2", "--window", "1") == 2


def test_mc_at_degree_one_is_refused_not_passed(tmp_path, capsys):
    # Residual terms have degree at most D-2, so at D = 1 no term is formed:
    # this non-Lie tensor once passed there with terms_checked 0 and exit 0.
    fixture = tmp_path / "nonlie.json"
    entries = [{"a": a, "b": b, "c": c, "value": "1"}
               for a, b, c in ((1, 2, 3), (1, 3, 1), (2, 3, 2))]
    fixture.write_text(json.dumps({"dim": 3, "entries": entries}), encoding="utf-8")
    out = tmp_path / "mc.json"
    argv = ["mc", "--algebra", str(fixture), "--split", "mode_parity", "--alpha-max", "0",
            "-M", "0", "--out", str(out)]
    assert run("validate", "--algebra", str(fixture), "--out", str(out)) == 1
    assert len(read(out)["jacobi_defects"]) == 6
    out.unlink()
    assert run(*argv, "-D", "1") == 2
    assert capsys.readouterr().err.startswith("error: ") and not out.exists()
    assert run(*argv, "-D", "2") == 0
    assert run(*argv, "-D", "3") == 1 and not read(out)["residuals_ok"]


def test_window_zero_does_not_pass_an_unclosed_truncation(tmp_path):
    # At -M 1 the same truncation has 24 closure violations.
    out = tmp_path / "report.json"
    run("expand", *EPS_ARGS, "--split", "mode_parity", "--n0", "0", "--n1", "3",
        "-M", "0", "--out", str(out))
    assert read(out)["closed"] is False


@pytest.mark.parametrize("split, n0, n1, witnesses", [
    ("mode_parity", "0", "3", 24),
    ("zero_mode", "0", "2", 24),
])
def test_defect_outside_the_window_fails_with_no_witnesses(tmp_path, split, n0, n1, witnesses):
    # The smallest witness modes of either truncation include a nonzero mode,
    # so at -M 0 the verdict fails with an empty list, and -M 1 lists them.
    args = ("expand", *EPS_ARGS, "--split", split, "--n0", n0, "--n1", n1)
    out = tmp_path / "report.json"
    assert run(*args, "-M", "0", "--out", str(out)) == 1
    report = read(out)
    assert (report["closed"], report["closure_violations"], report["jacobi"]) == (False, [], None)
    assert run(*args, "-M", "1", "--out", str(out)) == 1
    assert len(read(out)["closure_violations"]) == witnesses


def test_sweep_closure_matrix(tmp_path):
    out = tmp_path / "sweep.json"
    assert run("sweep", *EPS_ARGS, "--split", "generic", "--v0-gens", "1,2",
               "--window", "1", "--n0-max", "2", "--n1-max", "2",
               "--out", str(out)) == 0
    cells = {(cell["n0"], cell["n1"]): cell["closed"] for cell in read(out)["cells"]}
    assert all(cells[(n0, n1)] == (n0 == n1) for n0 in range(3) for n1 in range(3))


def test_config_file_support(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "algebra": "epsilon3",
        "splitting": {"kind": "mode_parity"},
        "n0": 2, "n1": 1, "window": 1}), encoding="utf-8")
    by_config = tmp_path / "a.json"
    by_flags = tmp_path / "b.json"
    assert run("expand", "--config", str(config), "--out", str(by_config)) == 0
    assert run("expand", *EPS_ARGS, "--split", "mode_parity", "--n0", "2",
               "--n1", "1", "--window", "1", "--out", str(by_flags)) == 0
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_flags_override_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"algebra": "epsilon3",
                                  "splitting": {"kind": "mode_parity"},
                                  "n0": 0, "n1": 3, "window": 1}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert run("expand", "--config", str(config), "--n1", "1",
               "--out", str(out)) == 0
    assert read(out)["n1"] == 1


def test_repeat_runs_are_byte_identical(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for out in (first, second):
        assert run("expand", *EPS_ARGS, "--case", "G21", "--window", "1",
                   "--out", str(out)) == 0
    assert first.read_bytes() == second.read_bytes()


SWEEP_ONE_CELL = ["sweep", "-a", "epsilon3", "--n0-max", "0", "--n1-max", "0"]
MC_SMALL = ["mc", "-a", "epsilon3", "--split", "mode_parity", "-M", "0"]
SWEEP_PARITY = ["sweep", "-a", "epsilon3", "--split", "mode_parity", "-M", "0"]
# Per settings-table field: its default (None: none, a usage error when
# unset), a run that leaves it unset, the flag that sets it and the value the
# report then shows, a file value and the value it shows, and where the report
# shows it.
SETTING_RUNS = {
    "algebra": (None, ["validate"], ["-a", "solvable2"], "solvable2", "epsilon3",
                "epsilon3", lambda r: r["algebra"]),
    "split": (None, SWEEP_ONE_CELL, ["--split", "zero_mode"], "zero_mode", "mode_parity",
              "mode_parity", lambda r: r["splitting"]["kind"]),
    "v0_gens": (None, SWEEP_ONE_CELL + ["--split", "generic"], ["--v0-gens", "1"], [1],
                [1, 2], [1, 2], lambda r: r["splitting"]["v0_gens"]),
    "n0": (0, ["expand", "-a", "epsilon3", "--split", "zero_mode", "--n1", "1"],
           ["--n0", "2"], 2, 1, 1, lambda r: r["n0"]),
    "n1": (0, ["expand", "-a", "epsilon3", "--split", "zero_mode", "--n0", "1"],
           ["--n1", "2"], 2, 1, 1, lambda r: r["n1"]),
    "window": (1, ["contract", "-a", "epsilon3"], ["-M", "2"], 2, 0, 0, lambda r: r["window"]),
    "degree": (4, MC_SMALL + ["--alpha-max", "1"], ["-D", "3"], 3, 2, 2,
               lambda r: r["degree"]),
    "alpha_max": (2, MC_SMALL + ["-D", "3"], ["--alpha-max", "1"], 1, 0, 0,
                  lambda r: r["alpha_max"]),
    "n0_max": (3, SWEEP_PARITY + ["--n1-max", "0"], ["--n0-max", "1"], 1, 2, 2,
               lambda r: max(cell["n0"] for cell in r["cells"])),
    "n1_max": (3, SWEEP_PARITY + ["--n0-max", "0"], ["--n1-max", "1"], 1, 2, 2,
               lambda r: max(cell["n1"] for cell in r["cells"])),
}


def test_settings_table_holds_the_pinned_defaults():
    assert SETTINGS == {name: row[0] for name, row in SETTING_RUNS.items()}


@pytest.mark.parametrize("name", sorted(SETTING_RUNS))
def test_flag_beats_file_beats_settings_default(name, tmp_path):
    default, argv, flag, flag_shown, file_value, file_shown, shown = SETTING_RUNS[name]
    if name in ("split", "v0_gens"):
        data = {"splitting": {"kind" if name == "split" else name: file_value}}
    else:
        data = {name: file_value}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out.json"

    def report(*extra):
        if out.exists():
            out.unlink()
        code = run(*argv, *extra, "--out", str(out))
        return shown(read(out)) if code in (0, 1) else code

    assert report(*flag, "--config", str(config)) == flag_shown
    assert report("--config", str(config)) == file_shown
    assert report() == (2 if default is None else default)


def test_config_keys_outside_the_settings_table_are_ignored(tmp_path, capsys):
    ignored = tmp_path / "ignored.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "algebra": "epsilon3", "splitting": {"kind": "mode_parity"}, "n0": 2, "n1": 1,
        "out": str(ignored), "case": "G0", "format": "latex"}), encoding="utf-8")
    assert run("expand", "--config", str(config)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["splitting"], payload["n0"], payload["n1"]) == (
        {"kind": "mode_parity"}, 2, 1)
    assert not ignored.exists()


GENERIC_EXPAND = ["expand", "-a", "epsilon3", "--split", "generic"]


class RawText(str):
    """A config file's text, written as it stands rather than as JSON."""


ONE_ENTRY = {"a": 1, "b": 2, "c": 3, "value": "1"}


@pytest.mark.parametrize("argv, config, algebra", [
    (["expand", "--split", "mode_parity"], {"algebra": "epsilon3", "window": "2"}, None),
    (["validate"], ["epsilon3"], None),
    (["sweep", "-a", "epsilon3", "--split", "mode_parity", "--n0-max", "-1"], None, None),
    (GENERIC_EXPAND, {"splitting": {"v0_gens": [1.9, 2.2]}}, None),
    (GENERIC_EXPAND, {"splitting": {"v0_gens": [True]}}, None),
    (["validate", "-a", "{algebra}"], None, {"dim": True, "entries": []}),
    (["validate", "-a", "{algebra}"], None, {"dim": 3, "entries": [{**ONE_ENTRY, "a": True}]}),
    (["validate", "-a", "{algebra}"], None, {"name": ["x"], "dim": 3, "entries": [ONE_ENTRY]}),
    (["sweep", "-a", "epsilon3"], {"splitting": {"kind": "nope"}}, None),
    (["sweep", "-a", "epsilon3"], {"splitting": {"kind": ["mode_parity"]}}, None),
    (["sweep", "-a", "epsilon3"], {"splitting": {"kind": "mode_parity", "v0_gens": [1]}}, None),
    (GENERIC_EXPAND + ["--v0-gens", "1,x"], None, None),
    (["validate", "-a", "epsilon3", "--config", "{missing}"], None, None),
    (["validate", "-a", "epsilon3"], RawText('{"window": 1'), None),
    (["sweep", "-a", "epsilon3"], {"splitting": ["mode_parity"]}, None),
], ids=["string-window", "list-config", "negative-n0-max", "float-v0-gens", "bool-v0-gens",
        "bool-dim", "bool-index", "list-name", "unknown-kind", "list-kind",
        "v0-gens-on-mode-parity", "non-integer-v0-gens", "missing-config", "non-json-config",
        "list-splitting"])
def test_malformed_config_is_usage_error(argv, config, algebra, tmp_path, capsys):
    argv = [str(tmp_path / "missing.json") if arg == "{missing}" else arg for arg in argv]
    if config is not None:
        path = tmp_path / "run.json"
        text = config if isinstance(config, RawText) else json.dumps(config)
        path.write_text(text, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    if algebra is not None:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(algebra), encoding="utf-8")
        argv = [str(path) if arg == "{algebra}" else arg for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out.json")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("extra", [
    ["--split", "generic", "--v0-gens", "1", "--n0", "5"],
    ["--split", "mode_parity"],
    ["--v0-gens", "1"],
    ["--n0", "2"],
    ["--n1", "1"],
], ids=["all", "split", "v0-gens", "n0", "n1"])
def test_case_with_split_or_order_flags_is_usage_error(extra, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run("expand", *EPS_ARGS, "--case", "G21", *extra, "-M", "1",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --case") and "Traceback" not in err
    assert not out.exists()
