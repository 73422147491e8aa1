"""Command-line interface: exit codes, artifacts, ledger verification."""

import dataclasses
import json
import math
import pathlib
import re
import typing

import pytest
from conftest import make_cfg

from fleetfl import attacks, config, ledger
from fleetfl.cli import main
from fleetfl.encoding import canonical_hash
from fleetfl.models import evaluate
from fleetfl.orchestrator import Simulator


def to_dict(cfg: config.RunConfig) -> dict:
    def convert(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        if dataclasses.is_dataclass(v):
            return {k: convert(x) for k, x in dataclasses.asdict(v).items()}
        if isinstance(v, dict):
            return {k: convert(x) for k, x in v.items()}
        if isinstance(v, list):
            return [convert(x) for x in v]
        return v

    return {f.name: convert(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def _write_cfg(tmp_path, **overrides):
    cfg = make_cfg(**overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(to_dict(cfg)))
    return path


# an array nested far past the interpreter's recursion limit: json raises
# RecursionError on it, not JSONDecodeError
DEEP_JSON = "[" * 10_000 + "]" * 10_000


def test_run_with_missing_config_exits_2(capsys):
    assert main(["run", "--config", "does-not-exist.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_with_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"seed": 1, "wormhole": true}')
    assert main(["run", "--config", str(unknown)]) == 2
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    capsys.readouterr()
    for command in ("run", "attack"):
        assert main([command, "--config", str(deep)]) == 2
        assert capsys.readouterr().err.startswith("error: bad config: ")


@pytest.mark.parametrize(
    "bad",
    [
        {"fleet": 5},
        {"rounds": "ten"},
        {"threat_schedule": []},
        {"fleet": {"n_nodes": 0}},
        {"privacy": {"eps_min": -1}},
        {"fleet": {"n_nodes": 1}},  # one node's mask is zero: its raw update would be sent
        {"integration_site": "cloud"},  # fusion runs at each node only
        {"ledger": {"byzantine_refuse": ["V0"]}},  # validator ids are case-sensitive
        {"ledger": {"byzantine_false": ["v3"]}},  # not a key of the default stakes
    ],
)
def test_run_with_bad_config_value_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path)]) == 2
    assert "error: bad config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["holdout_fraction", "correction_lr", "correction_steps", "w_min", "n_ref"]
)
def test_feedback_constants_are_not_config_keys(tmp_path, capsys, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"feedback": {key: 0.1}}))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


# each value but delta's lies in range, so the key alone is what the load
# refuses; delta's "inf" is refused as an unknown key before any value check
@pytest.mark.parametrize("raw", [
    {"privacy": {"mask_strength_min": 0.75}},
    {"privacy": {"mask_strength_max": 3.0}},
    {"privacy": {"delta": "inf"}},
    {"privacy": {"delta_global": 0.75}},
    {"privacy": {"clip_global": 0.75}},
    {"ledger": {"quorum_fraction": 0.75}},
    {"freshness_window": 3},
], ids=["mask_strength_min", "mask_strength_max", "delta", "delta_global", "clip_global",
        "quorum_fraction", "freshness_window"])
def test_privacy_and_ledger_constants_are_not_config_keys(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def _settable(cls, prefix=""):
    """The dotted names of every value a config can set, sections walked."""
    hints = typing.get_type_hints(cls)
    names = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            names += _settable(hints[f.name], f"{prefix}{f.name}.")
        else:
            names.append(prefix + f.name)
    return names


def test_config_holds_exactly_the_values_a_run_chooses():
    # adding a knob means editing this list on purpose
    assert sorted(_settable(config.RunConfig)) == sorted([
        "seed", "rounds", "integration_site", "threat_schedule", "holdout_samples",
        "output_dir",
        "fleet.n_nodes", "fleet.samples_per_node", "fleet.feature_dim", "fleet.heterogeneity",
        "train.lr", "train.epochs", "train.batch",
        "privacy.eps_min", "privacy.eps_max", "privacy.clip_norm",
        "privacy.budget_cap", "privacy.eps_global",
        "ledger.stakes", "ledger.committee_size", "ledger.byzantine_refuse",
        "ledger.byzantine_false", "ledger.max_update_norm",
        "feedback.enabled", "feedback.max_validation_samples", "feedback.explain_repeats",
    ])


@pytest.mark.parametrize(
    "bad",
    [
        {"privacy": {"clip_norm": "inf"}},
        {"train": {"lr": "inf"}},
        {"fleet": {"heterogeneity": "inf"}},
        {"ledger": {"stakes": {"v0": math.inf}}},  # JSON's Infinity
        {"ledger": {"stakes": {"v0": math.nan, "v1": 1.0}}},
        {"threat_schedule": [0.1, math.inf]},
    ],
)
def test_run_with_a_non_finite_value_where_it_means_nothing_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["run", "--config", str(path)]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, values",
    [
        ("privacy", {"eps_max": "inf"}),
        ("privacy", {"eps_min": "inf", "eps_max": "inf"}),
        ("privacy", {"eps_global": "inf"}),
        ("privacy", {"budget_cap": "inf"}),
        ("ledger", {"max_update_norm": "inf"}),
    ],
)
def test_fields_that_take_inf_still_run(tmp_path, section, values):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**to_dict(make_cfg(rounds=1)), section: values}))
    assert main(["run", "--config", str(path)]) == 0


@pytest.mark.parametrize(
    "case, err",
    [
        ("output-dir-under-a-file", "error: bad output_dir:"),
        ("config-is-a-directory", "error: config file not found:"),
        ("chain-is-a-directory", "error: chain file not found:"),
        ("config-not-utf8", "error: bad config:"),
        ("zero-injections", "error: --injections must be >= 1"),
        ("negative-injections", "error: --injections must be >= 1"),
    ],
)
def test_bad_cli_input_exits_2_without_a_traceback(tmp_path, capsys, case, err):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"seed": 1, "output_dir": "caf\xe9"}')
    argv = {
        "output-dir-under-a-file": lambda: [
            "run", "--config", str(_write_cfg(tmp_path, output_dir=str(blocker / "out")))
        ],
        "config-is-a-directory": lambda: ["run", "--config", str(tmp_path)],
        "chain-is-a-directory": lambda: ["ledger", "verify", "--chain", str(tmp_path)],
        "config-not-utf8": lambda: ["run", "--config", str(not_utf8)],
        "zero-injections": lambda: [
            "attack", "--config", str(_write_cfg(tmp_path)), "--injections", "0"
        ],
        "negative-injections": lambda: [
            "attack", "--config", str(_write_cfg(tmp_path)), "--injections", "-3"
        ],
    }[case]()
    assert main(argv) == 2
    assert err in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    assert main([]) == 2


def test_run_writes_artifacts_and_exits_0(tmp_path, capsys):
    path = _write_cfg(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "round 0" in out and "round 1" in out
    assert (tmp_path / "out" / "metrics.jsonl").exists()


def test_run_prints_the_reasons_of_an_aborted_round(tmp_path, monkeypatch, capsys):
    # default privacy: one node exhausts its budget in round 2
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7, "rounds": 3}))
    monkeypatch.setenv("FLEETFL_OUTPUT_DIR", str(tmp_path / "out"))
    assert main(["run", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.startswith(f"round {r}: ") for r, line in enumerate(lines[:3])] == [True] * 3
    assert "ABORTED" not in lines[0] + lines[1]
    report = json.loads((tmp_path / "out" / "metrics.jsonl").read_text().splitlines()[2])
    assert len(report["rejected"]) == 1
    node, reasons = report["rejected"][0]
    assert reasons == ["budget_exceeded"]
    assert lines[2].endswith(f" blocks=0 ABORTED: {node} budget_exceeded")


def test_a_failed_quorum_aborts_the_round_and_exits_0(tmp_path, capsys):
    # validator v0 refuses to attest, and round 2's committee is (v0, v1)
    raw = {"seed": 7, "rounds": 3, "fleet": {"n_nodes": 4}, "privacy": {"budget_cap": 500},
           "ledger": {"committee_size": 2, "byzantine_refuse": ["v0"]},
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "ABORTED" not in lines[0] + lines[1]
    assert lines[2].endswith(" blocks=0 ABORTED: ledger quorum")
    assert main(["ledger", "verify", "--chain", str(tmp_path / "out" / "chain.json")]) == 0
    assert capsys.readouterr().out.startswith("chain valid (19 blocks)")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("raw, ending", [
    ({"seed": 7, "rounds": 3}, "ABORTED: node-2 budget_exceeded"),
    ({"seed": 7, "rounds": 3, "fleet": {"n_nodes": 4}, "privacy": {"budget_cap": 500},
      "ledger": {"committee_size": 2, "byzantine_refuse": ["v0"]}}, "ABORTED: ledger quorum"),
], ids=["budget", "quorum"])
def test_the_readme_quotes_what_its_example_runs_print(tmp_path, monkeypatch, capsys, raw,
                                                        ending):
    text = README.read_text()
    assert f"`{json.dumps(raw)}`" in text
    [quote] = [q for q in re.findall(r"`(round 2: [^`]*)`", text) if q.endswith(ending)]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    monkeypatch.delenv("FLEETFL_OUTPUT_DIR", raising=False)
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == quote


def test_the_readme_example_config_loads():
    [block] = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    cfg = config.from_dict(json.loads(block))
    assert (cfg.seed, cfg.output_dir) == (7, "runs/example")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("privacy", [{}, {"eps_max": "inf"}])
def test_divergent_step_size_still_moves_the_model(tmp_path, privacy):
    # lr 1e300 blows the local weights up to ~1e299; clipping must still keep
    # each update's direction instead of overflowing its norm and zeroing it
    raw = {"rounds": 3, "train": {"lr": 1e300}, "privacy": privacy,
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path)]) == 0
    first = json.loads((tmp_path / "out" / "metrics.jsonl").read_text().splitlines()[0])
    sim = Simulator(config.from_dict(raw))
    initial, _ = evaluate(sim.global_params, sim.holdout_X, sim.holdout_y)
    assert first["global_accuracy"] != initial


def test_output_dir_env_override(tmp_path, monkeypatch):
    path = _write_cfg(tmp_path, output_dir=str(tmp_path / "ignored"))
    override = tmp_path / "override"
    monkeypatch.setenv("FLEETFL_OUTPUT_DIR", str(override))
    assert main(["run", "--config", str(path)]) == 0
    assert (override / "metrics.jsonl").exists()
    assert not (tmp_path / "ignored").exists()


def test_ledger_verify_clean_chain_exits_0(tmp_path, capsys):
    sim = Simulator(make_cfg(rounds=1))
    sim.run()
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(ledger.export_chain(sim.chain))
    assert main(["ledger", "verify", "--chain", str(chain_path)]) == 0
    assert "chain valid" in capsys.readouterr().out


def test_ledger_verify_says_what_it_checked(tmp_path, capsys):
    sim = Simulator(make_cfg(rounds=1))
    sim.run()
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(ledger.export_chain(sim.chain))
    assert main(["ledger", "verify", "--chain", str(chain_path)]) == 0
    assert capsys.readouterr().out == (
        f"chain valid ({len(sim.chain)} blocks): indices, prev-hash links and block hashes"
        " recomputed; attestation digests and quorum not checked\n"
    )


def test_ledger_verify_empty_chain_exits_1(tmp_path, capsys):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text("[]\n")
    assert main(["ledger", "verify", "--chain", str(chain_path)]) == 1
    assert capsys.readouterr().out == "chain INVALID: first bad index 0\n"


def test_ledger_verify_tampered_chain_exits_1(tmp_path, capsys):
    sim = Simulator(make_cfg(rounds=1))
    sim.run()
    sim.chain[2].payload_hash = canonical_hash(b"evil")
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(ledger.export_chain(sim.chain))
    assert main(["ledger", "verify", "--chain", str(chain_path)]) == 1
    assert "first bad index 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, text",
    [
        ("chain.json", "[{}]"),
        ("chain.json", "[1]"),
        ("chain.json", '{"a": 1}'),
        ("explanations.jsonl", "{}"),
    ],
)
def test_malformed_chain_or_explanation_file_exits_1(tmp_path, capsys, name, text):
    (tmp_path / name).write_text(text + "\n")
    if name == "chain.json":
        argv = ["ledger", "verify", "--chain", str(tmp_path / name)]
    else:
        argv = ["explain", "--run", str(tmp_path), "--node", "node-0"]
    assert main(argv) == 1
    assert "error: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["truncated", "not-utf8", "too-deep"])
def test_chain_file_that_is_not_json_is_a_malformed_chain(tmp_path, capsys, case):
    path = tmp_path / "chain.json"
    if case == "truncated":
        sim = Simulator(make_cfg(rounds=1))
        sim.run()
        text = ledger.export_chain(sim.chain)
        path.write_text(text[: len(text) // 2])
    elif case == "too-deep":
        path.write_text(DEEP_JSON)
    else:
        path.write_bytes(b"\xff\xfe")
    assert main(["ledger", "verify", "--chain", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed chain: not JSON: ")


@pytest.mark.parametrize("case", ["truncated", "not-utf8", "too-deep"])
def test_explanation_line_that_is_not_json_is_a_malformed_record(tmp_path, capsys, case):
    path = tmp_path / "explanations.jsonl"
    if case == "truncated":
        sim = Simulator(make_cfg(rounds=1, output_dir=str(tmp_path)))
        sim.run()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        line = 2
    elif case == "too-deep":
        path.write_text(DEEP_JSON + "\n")
        line = 1
    else:
        path.write_bytes(b"\xff\xfe")
        line = 1
    assert main(["explain", "--run", str(tmp_path), "--node", "node-0"]) == 1
    assert capsys.readouterr().err == f"error: malformed explanation record on line {line}\n"


def test_ledger_verify_missing_file_exits_2():
    assert main(["ledger", "verify", "--chain", "nope.json"]) == 2


def test_attack_subcommand_reports_and_exits_0(tmp_path, capsys):
    path = _write_cfg(tmp_path)
    assert main(["attack", "--config", str(path), "--injections", "5"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["kind"] for r in reports} == {
        "replay", "tamper_message", "tamper_block", "spoof_node",
        "poison_update", "eavesdrop", "impersonate", "mitm_swap",
    }
    assert all(r["detected"] == r["injected"] for r in reports)


@pytest.mark.parametrize("report", [
    attacks.AttackReport("replay", injected=5, detected=4),
    attacks.AttackReport("eavesdrop", injected=1, detected=0, leaked=True),
], ids=["under-detected", "leaked"])
def test_attack_exits_1_when_an_injection_goes_undetected(tmp_path, monkeypatch, capsys, report):
    detected = attacks.AttackReport("tamper_message", injected=5, detected=5)
    monkeypatch.setattr(attacks, "run_attack_suite", lambda cfg, seeds: [detected, report])
    assert main(["attack", "--config", str(_write_cfg(tmp_path)), "--injections", "5"]) == 1
    assert [r["kind"] for r in json.loads(capsys.readouterr().out)] == [
        "tamper_message", report.kind
    ]


def test_explain_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = _write_cfg(tmp_path, output_dir=str(out_dir))
    assert main(["run", "--config", str(path)]) == 0
    capsys.readouterr()
    assert main(["explain", "--run", str(out_dir), "--node", "node-0"]) == 0
    recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert recs and all(r["node"] == "node-0" for r in recs)
    assert main(["explain", "--run", str(out_dir), "--node", "ghost"]) == 1
    assert main(["explain", "--run", str(tmp_path / "empty"), "--node", "node-0"]) == 2
