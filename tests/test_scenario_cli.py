"""Scenario files and the command line front end."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import peerdeploy
from peerdeploy import replica_count
from peerdeploy.cli import _percentile, main
from peerdeploy.errors import IndexParseError, PeerDeployError, ScenarioParseError
from peerdeploy.ids import derive_key, ring_root
from peerdeploy.scenario import (
    ScenarioRunner,
    parse_scenario,
    run_scenario,
    synthesize_payload,
)
from peerdeploy.simnet import SimNetwork
from peerdeploy.store import Role, lookup as store_lookup
from peerdeploy.repo import ComponentDescriptor, describe_payload, load_index
from oracles import serialize_index

GOLDEN = Path(__file__).resolve().parent / "golden"

GOOD = """\
# exercises most commands
seed 11
create 6
publish n0 log.jar
install n2 p2p://log.jar
lookup n4 log.jar
assert status(lookup) == ok
assert hops(lookup) >= 0
assert installed(n2, log.jar)
assert replicas(log.jar) >= 2
advance 500
join extra
leave n5
dump
assert live_nodes == 6
"""


# -- parsing and static validation


def test_parse_good_scenario():
    scenario = parse_scenario(GOOD)
    assert scenario.seed == 11
    verbs = [c.verb for c in scenario.commands]
    assert verbs == ["create", "publish", "install", "lookup", "assert", "assert",
                     "assert", "assert", "advance", "join", "leave", "dump", "assert"]


@pytest.mark.parametrize("bad,fragment", [
    ("frobnicate 3", "unknown command"),
    ("create x", "integer"),
    ("create 2\ncreate 2", "only once"),
    ("create 0", ">= 1"),
    ("lookup n0 x.jar", "not live"),
    ("create 2\nlookup n5 x.jar", "not live"),
    ("create 2\nleave n0\nlookup n0 x.jar", "not live"),
    ("create 2\njoin n1", "already live"),
    ("create 1\nseed 4", "precede"),
    ("seed 1\nseed 2", "duplicate"),
    ("create 2\nleave n1 --explode", "usage"),
    ("create 2\npublish n0", "usage"),
    ("create 2\ninstall n0 p2p://a/b", "bundle name"),
    ("create 2\ninstall n0 http://other/x.jar", "only p2p"),
    ("create 2\nworkload zipf 1 1 1", "usage"),
    ("create 2\nworkload zipf 1 1 1 -0.5", ">= 0"),
    ("create 2\nadvance -5", ">= 0"),
    ("create 2\ndump extra", "no arguments"),
    ("create 2\nassert", "predicate"),
    ("create 2\nassert bogus(n0)", "predicate"),
    ("create 2\nassert hops(lookup) == fast", "integer"),
    ("create 2\nassert status(lookup) == maybe", "unknown lookup status"),
    ("create 2\nassert status(lookup) >= ok", "only == and !="),
    ("create 2\nassert installed(n9, x.jar)", "unknown node"),
    ("create 2\nassert root(x.jar) == n7", "unknown node"),
    ("create 2\nassert entries(n3) > 0", "unknown node"),
    ("workload zipf 1 1 1 1.0", "live nodes"),
    ("join a/b", "bad node name"),
    ("create 2\nlookup n0 -x", "bad bundle name"),
    ("create 2\nassert installed(n0)", "needs (node,bundle)"),
    ("create 2\nassert active(n0, x.jar)", "cannot parse predicate"),
    ("create 2\nassert speed > 1", "unknown assert term"),
    ("create 2\nassert hops(n0) == 1", "takes the literal 'lookup'"),
    ("create 2\nassert replicas() == 1", "needs a bundle name"),
    ("join n0\ncreate 1", "already exists"),
    ("create 2\nworkload uniform 1 1 1 1.0", "usage"),
    ("create 2\nworkload zipf 1 1 1 x", "must be a number"),
    ("create 2\nremove n0", "usage: remove <node> <bundle>"),
    ("create 2\nremove n5 x.jar", "not live"),
    ("create 2\nremove n0 -x", "bad bundle name"),
])
def test_parse_rejects_invalid_scenarios(bad, fragment):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(bad)
    assert fragment in str(err.value)
    assert err.value.line is not None


def test_comments_and_blank_lines_ignored():
    scenario = parse_scenario("\n# intro\n\ncreate 2  # trailing note\n")
    assert len(scenario.commands) == 1
    assert scenario.commands[0].args == (2,)


def test_rejoin_after_leave_is_valid():
    scenario = parse_scenario("create 2\nleave n1\njoin n1\n")
    assert [c.verb for c in scenario.commands] == ["create", "leave", "join"]


# -- payload synthesis


def test_synthesized_payloads_are_deterministic():
    a = synthesize_payload(5, "x.jar")
    b = synthesize_payload(5, "x.jar")
    c = synthesize_payload(6, "x.jar")
    d = synthesize_payload(5, "y.jar")
    assert a.data == b.data
    assert a.data != c.data
    assert a.data != d.data
    assert a.size == 4096


# -- execution


def test_runner_executes_and_reports_success(tmp_path):
    path = tmp_path / "good.scenario"
    path.write_text(GOOD)
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic
    doc = result.document
    assert doc["seed"] == 11
    assert doc["live_nodes"] == 6
    assert len(doc["assertions"]) == 5
    assert all(a["passed"] for a in doc["assertions"])
    assert len(doc["dumps"]) == 1
    dumped = doc["dumps"][0]["nodes"]
    assert len(dumped) == 6  # every live node exactly once
    assert len({n["id"] for n in dumped}) == 6


def test_assert_failure_names_predicate_and_index(tmp_path):
    path = tmp_path / "fail.scenario"
    path.write_text("create 2\nassert live_nodes == 99\nadvance 10\n")
    result = run_scenario(str(path))
    assert result.exit_code == 1
    assert "live_nodes==99" in result.diagnostic
    assert "command 1" in result.diagnostic
    # execution stops at the failure, later commands never run
    assert result.document["clock"] < 10_000
    assert result.document["assertions"][-1]["passed"] is False


def test_lookup_statuses_are_observable(tmp_path):
    path = tmp_path / "nf.scenario"
    path.write_text("create 3\nlookup n0 ghost.jar\nassert status(lookup) == not-found\n")
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic


def test_publish_with_descriptor_file(tmp_path):
    payload = synthesize_payload(3, "desc.jar")
    descriptor = ComponentDescriptor(name="desc.jar", version="2.0", digest=payload.digest,
                                     size=payload.size, exports=("desc",),
                                     source_uri="p2p://desc.jar")
    (tmp_path / "bundle.index").write_text(serialize_index([descriptor]))
    path = tmp_path / "desc.scenario"
    path.write_text("seed 3\ncreate 4\npublish n1 desc.jar bundle.index\n"
                    "install n2 p2p://desc.jar\nassert installed(n2, desc.jar)\n")
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic


def test_publish_descriptor_digest_mismatch_fails_run(tmp_path):
    other = synthesize_payload(999, "desc.jar")  # wrong seed, wrong digest
    (tmp_path / "bundle.index").write_text(serialize_index([describe_payload("desc.jar", other)]))
    path = tmp_path / "desc.scenario"
    path.write_text("seed 3\ncreate 4\npublish n1 desc.jar bundle.index\n")
    result = run_scenario(str(path))
    assert result.exit_code == 1
    assert result.diagnostic.startswith(
        "command 1 (line 3) 'publish n1 desc.jar bundle.index' failed: ")
    assert "desc.jar" in result.diagnostic.split("failed: ", 1)[1]


def test_missing_descriptor_file_rejects_before_execution(tmp_path):
    path = tmp_path / "missing.scenario"
    path.write_text("create 4\npublish n1 a.jar nowhere.index\n")
    with pytest.raises(ScenarioParseError):
        run_scenario(str(path))


def test_descriptor_file_without_the_bundle_rejects_before_execution(tmp_path):
    other = describe_payload("other.jar", synthesize_payload(0, "other.jar"))
    (tmp_path / "b.index").write_text(serialize_index([other]))
    with pytest.raises(ScenarioParseError, match="has no record for 'a.jar'") as err:
        parse_scenario("create 4\npublish n1 a.jar b.index\n", base_dir=str(tmp_path))
    assert err.value.line == 2


@pytest.mark.parametrize("spoil, field", [
    (lambda text: text.encode() + b"\xff\n", None),
    (lambda text: re.sub(r"size: \d+", "size: \u00b2", text).encode(), "size"),
    (lambda text: text.replace("start:", "start").encode(), "start"),
    (lambda text: text.replace("start:", "entry:").encode(), "entry"),
], ids=["not-utf8", "size", "not-key-value", "unknown-key"])
def test_bad_descriptor_file_rejects_with_exit_two(tmp_path, capsys, spoil, field):
    bad = tmp_path / "bundle.index"
    bad.write_bytes(spoil(serialize_index([
        describe_payload("desc.jar", synthesize_payload(3, "desc.jar"))])))
    with pytest.raises(IndexParseError) as err:
        load_index(str(bad))
    assert err.value.field == field
    path = tmp_path / "desc.scenario"
    path.write_text("create 2\npublish n1 desc.jar bundle.index\n")
    assert main(["run", str(path)]) == 2
    assert "descriptor file 'bundle.index'" in capsys.readouterr().err


def test_publish_with_four_arguments_exits_two_with_its_usage(tmp_path, capsys):
    path = tmp_path / "extra.scenario"
    path.write_text("create 2\npublish n1 a.jar a.index more\n")
    assert main(["run", str(path)]) == 2
    assert ("extra.scenario:2: usage: publish <node> <bundle> [<descriptor-file>]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, bad, line", [("version", "1.x", 4), ("size", "12x", 6)])
def test_descriptor_file_error_names_the_field_line(tmp_path, capsys, field, bad, line):
    descriptor = describe_payload("b.jar", synthesize_payload(0, "b.jar"))
    text = re.sub(rf"^{field}: .*$", f"{field}: {bad}", serialize_index([descriptor]),
                  flags=re.MULTILINE)
    (tmp_path / "b.index").write_text(text)
    path = tmp_path / "s.scenario"
    path.write_text("create 2\npublish n1 b.jar b.index\n")
    assert main(["run", str(path)]) == 2
    assert f"s.scenario:2: descriptor file 'b.index' line {line}: {field} must" \
        in capsys.readouterr().err


def test_text_errors_come_before_descriptor_file_errors(tmp_path):
    (tmp_path / "b.index").write_text("name: b.jar\n")
    path = tmp_path / "s.scenario"
    path.write_text("create 2\npublish n1 b.jar b.index\nfrobnicate\n")
    with pytest.raises(ScenarioParseError, match="unknown command") as err:
        run_scenario(str(path))
    assert err.value.line == 3


def test_each_descriptor_file_is_read_once_per_parse(tmp_path, monkeypatch):
    names = [f"b{i}.jar" for i in range(5)]
    descriptors = [describe_payload(name, synthesize_payload(0, name)) for name in names]
    (tmp_path / "b.index").write_text(serialize_index(descriptors))
    loaded = []
    monkeypatch.setattr("peerdeploy.scenario.load_index",
                        lambda path: loaded.append(path) or load_index(path))
    text = "create 2\n" + "".join(f"publish n1 {name} b.index\n" for name in names)
    scenario = parse_scenario(text, base_dir=str(tmp_path))
    assert loaded == [str(tmp_path / "b.index")]
    assert [cmd.args[2] for cmd in scenario.commands[1:]] == descriptors


def test_module_entry_point_runs_without_warnings():
    src = Path(peerdeploy.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "peerdeploy.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert "usage: peerdeploy" in done.stdout


def test_workload_records_outcomes_and_replicas(tmp_path):
    path = tmp_path / "wl.scenario"
    path.write_text("seed 2\ncreate 12\nworkload zipf 12 5 200 1.0\n"
                    "assert replicas(wl0.jar) >= 2\n")
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic
    doc = result.document
    workload = doc["workloads"][0]
    assert workload["requests"] == 200
    assert workload["outcomes"]["ok"] == 200
    sample = doc["replica_samples"][0]["counts"]
    assert set(sample) == {f"wl{i}.jar" for i in range(5)}
    assert all(v >= 2 for v in sample.values())


def test_a_one_node_workload_publishes_from_its_only_node(tmp_path):
    path = tmp_path / "one.scenario"
    path.write_text("create 1\nworkload zipf 1 1 1 1.0\n")
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic
    assert result.document["workloads"][0]["outcomes"]["ok"] == 1
    assert result.document["replica_samples"][0]["counts"] == {"wl0.jar": 1}


@pytest.mark.parametrize("predicate, detail", [
    ("installed(n0, x.jar)", "state is absent"),
    ("hops(lookup) == 1", "hops has no value yet"),
])
def test_an_assert_on_a_fact_that_does_not_hold_fails_the_run(tmp_path, predicate, detail):
    path = tmp_path / "fact.scenario"
    path.write_text(f"create 2\nassert {predicate}\n")
    result = run_scenario(str(path))
    assert result.exit_code == 1
    assert result.diagnostic.endswith(f"({detail})")


def orphan_scenario() -> str:
    """256 hashed nodes and 200 bundles published from rng-drawn nodes; then
    the 8 lowest ROOT holders fail abruptly, orphaning 17 keys, and 16
    lookups of those keys, in bundle order, come from rng-drawn live nodes.
    Nodes are drawn by index into the ascending id list."""
    rng = random.Random(3)
    name_of = {derive_key(f"n{i}"): f"n{i}" for i in range(256)}
    ids = sorted(name_of)
    bundles = [f"o{i}.jar" for i in range(200)]
    lines = ["seed 3", "create 256"]
    lines += [f"publish {name_of[ids[rng.randrange(256)]]} {b}" for b in bundles]
    roots = {b: ring_root(ids, derive_key(b)) for b in bundles}
    failed = sorted(set(roots.values()))[:8]
    lines += [f"leave {name_of[f]} --fail" for f in failed]
    orphaned = [b for b in bundles if roots[b] in failed]
    live = [i for i in ids if i not in failed]
    lines += [f"lookup {name_of[live[rng.randrange(len(live))]]} {orphaned[i % len(orphaned)]}"
              for i in range(16)]
    return "\n".join(lines) + "\n"


def test_a_lookup_that_comes_back_to_a_node_fails_instead_of_looping(tmp_path, monkeypatch):
    text = orphan_scenario()
    assert text.endswith("lookup n124 o169.jar\n")  # the lookup that loops
    step, steps = SimNetwork._step, []

    def capped(net):
        # A walk that never stops would hang the suite; fail it instead.
        steps.append(None)
        assert len(steps) <= 200_000, "the event loop did not drain"
        step(net)

    outcomes = []

    def recorded(net, client, name):
        try:
            return store_lookup(net, client, name)
        except PeerDeployError as exc:
            outcomes.append(exc)
            raise

    monkeypatch.setattr(SimNetwork, "_step", capped)
    monkeypatch.setattr("peerdeploy.store.lookup", recorded)
    path = tmp_path / "orphans.scenario"
    path.write_text(text)
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic
    lookups = result.document["operations"]["lookup"]
    # The heirs of the orphaned keys stay live, and serve 9 of the lookups.
    assert (lookups["count"], lookups["failures"]) == (16, 7)
    assert Counter(type(exc).__name__ for exc in outcomes) == {
        "NotFoundError": 4, "LookupFailedError": 3}
    assert sum("revisited" in str(exc) for exc in outcomes) == 1


def test_runtime_failure_aborts_with_exit_one(tmp_path):
    # nothing publishes missing.jar, so the install fails and the dump never runs
    path = tmp_path / "crash.scenario"
    path.write_text("create 2\ninstall n0 p2p://missing.jar\ndump\n")
    result = run_scenario(str(path))
    assert result.exit_code == 1
    assert result.diagnostic.startswith(
        "command 1 (line 2) 'install n0 p2p://missing.jar' failed:")
    assert result.document["dumps"] == []


@pytest.mark.parametrize("text, reason", [
    # log.jar's root is n0: it holds the ROOT copy, which n1 published.
    ("publish n1 log.jar\nassert root(log.jar) == n0\nremove n0 log.jar",
     "d8273e2f4a7c0a59554544c6605cdd8b does not own 'log.jar'"),
    ("publish n1 log.jar\nremove n1 log.jar\nremove n1 log.jar",
     "'log.jar' is unknown at 40b3eab63f3f1d4fa48e09559401c5ed"),
])
def test_a_refused_remove_stops_the_run_with_exit_one(tmp_path, text, reason):
    path = tmp_path / "remove.scenario"
    path.write_text(f"create 4\n{text}\ndump\n")
    result = run_scenario(str(path))
    last = text.count("\n") + 2
    assert result.exit_code == 1
    assert result.diagnostic == (f"command {last - 1} (line {last}) "
                                 f"{text.splitlines()[-1]!r} failed: {reason}")
    assert result.document["dumps"] == []


# -- CLI


def run_cli(*argv, env=None, monkeypatch=None, capsys=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_cli_run_writes_metrics_and_exits_zero(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text(GOOD)
    out_file = tmp_path / "m.json"
    code = main(["run", str(path), "--metrics-out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    doc = json.loads(out_file.read_text())
    assert doc["seed"] == 11


def test_cli_run_stdout_when_no_metrics_out(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("create 2\n")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["live_nodes"] == 2


def test_cli_run_exits_two_when_the_metrics_cannot_be_written(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("create 2\n")
    assert main(["run", str(path), "--metrics-out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "cannot write metrics" in captured.err and captured.out == ""


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("create nope\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "integer" in err

    failing = tmp_path / "failing.scenario"
    failing.write_text("create 2\nassert live_nodes == 3\n")
    assert main(["run", str(failing)]) == 1
    err = capsys.readouterr().err
    assert "live_nodes==3" in err

    assert main(["run", str(tmp_path / "absent.scenario")]) == 2
    assert "cannot read scenario" in capsys.readouterr().err
    latin = tmp_path / "latin.scenario"
    latin.write_bytes(b"create 2\n\xff\n")
    assert main(["run", str(latin)]) == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_cli_seed_precedence(tmp_path, capsys, monkeypatch):
    path = tmp_path / "s.scenario"
    path.write_text("seed 5\ncreate 2\n")

    code = main(["run", str(path)])
    assert json.loads(capsys.readouterr().out)["seed"] == 5

    code = main(["run", str(path), "--seed", "9"])
    assert json.loads(capsys.readouterr().out)["seed"] == 9

    # the environment is no seed source, well-formed or not
    for value in ("7", "not-a-number"):
        monkeypatch.setenv("PEERDEPLOY_SEED", value)
        assert main(["run", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_cli_rejects_a_negative_seed_as_the_seed_line_does(tmp_path, capsys):
    # Random(-5) draws Random(5)'s stream, so a negative seed would reuse
    # another seed's random ids.
    path = tmp_path / "s.scenario"
    path.write_text("create 2\n")
    for extra in ([], ["--random-ids"]):
        assert main(["run", str(path), "--seed", "-5", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "peerdeploy: --seed must be >= 0\n"
    path.write_text("seed -5\ncreate 2\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.endswith("seed must be >= 0\n")
    assert main(["run", str(path), "--seed", "0"]) == 2  # the file is checked all the same


def test_cli_replay_is_byte_identical(tmp_path):
    path = tmp_path / "s.scenario"
    path.write_text(GOOD)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    out_c = tmp_path / "c.json"
    assert main(["run", str(path), "--metrics-out", str(out_a)]) == 0
    assert main(["run", str(path), "--metrics-out", str(out_b)]) == 0
    assert main(["run", str(path), "--seed", "999", "--metrics-out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes() != out_c.read_bytes()


def test_cli_random_ids_change_topology(tmp_path):
    path = tmp_path / "s.scenario"
    path.write_text("create 4\ndump\n")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", str(path), "--metrics-out", str(out_a)]) == 0
    assert main(["run", str(path), "--random-ids", "--metrics-out", str(out_b)]) == 0
    ids_a = {n["id"] for n in json.loads(out_a.read_text())["dumps"][0]["nodes"]}
    ids_b = {n["id"] for n in json.loads(out_b.read_text())["dumps"][0]["nodes"]}
    assert ids_a != ids_b


def test_cli_stats_lists_every_live_node_once(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text(GOOD)
    out_file = tmp_path / "m.json"
    main(["run", str(path), "--metrics-out", str(out_file)])
    capsys.readouterr()
    assert main(["stats", str(out_file)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out_file.read_text())
    dumped = doc["dumps"][0]["nodes"]
    for node in dumped:
        assert out.count(node["id"]) == 1
    assert "lookup" in out
    assert "per-key replicas" in out


def test_cli_stats_counts_every_role_but_trail_as_a_replica(tmp_path, capsys):
    document = json.loads((GOLDEN / "every_verb.json").read_text())
    entries = [entry for node in document["dumps"][-1]["nodes"] for entry in node["entries"]]
    for entry, role in zip(entries, itertools.cycle(["TRAIL", "CACHE", "RETAINED"])):
        entry["role"] = role
    path = tmp_path / "roles.json"
    path.write_text(json.dumps(document))
    assert main(["stats", str(path)]) == 0
    listed = capsys.readouterr().out.split("per-key replicas")[1].splitlines()[1:]
    assert {name: int(count) for name, count in map(str.split, listed)} == \
        Counter(entry["name"] for entry in entries if entry["role"] != "TRAIL")


def test_cli_stats_lists_no_replica_when_the_dump_holds_only_trails(tmp_path, capsys):
    document = json.loads((GOLDEN / "every_verb.json").read_text())
    for node in document["dumps"][-1]["nodes"]:
        for entry in node["entries"]:
            entry["role"] = "TRAIL"
    path = tmp_path / "trails.json"
    path.write_text(json.dumps(document))
    assert main(["stats", str(path)]) == 0
    listed = capsys.readouterr().out.split("per-key replicas")[1].splitlines()[1:]
    assert listed == ["  (none)"]


def test_cli_stats_rejects_malformed_documents(tmp_path, capsys):
    garbage = tmp_path / "g.json"
    for text in ["{not json", "[" * 100_000 + "]" * 100_000]:
        garbage.write_text(text)
        assert main(["stats", str(garbage)]) == 2
        assert "malformed metrics document" in capsys.readouterr().err

    head = '"clock": 0, "seed": 1, "live_nodes": 0'
    for text in [
        '{"hello": 1}',
        '{%s, "operations": {"lookup": {"hops": {"histogram": {"x": 1}}}}, "dumps": []}' % head,
        '{%s, "operations": {"a": 5}, "dumps": []}' % head,
        '{%s, "operations": {"a": {"hops": {"histogram": {"1": "2"}}}}, "dumps": []}' % head,
        '{%s, "operations": {"a": {"hops": {"mean": "x"}}}, "dumps": []}' % head,
        '{%s, "operations": {}, "dumps": {"nodes": []}}' % head,
        '{%s, "operations": {}, "dumps": [{"nodes": 5}]}' % head,
        '{%s, "operations": {}, "dumps": [{"nodes": [{"id": null}]}]}' % head,
        '{%s, "operations": {}, "dumps": [{"nodes": [{"entries": [{"role": "ROOT"}]}]}]}' % head,
    ]:
        wrong_shape = tmp_path / "w.json"
        wrong_shape.write_text(text)
        assert main(["stats", str(wrong_shape)]) == 2, text
        assert "malformed metrics document" in capsys.readouterr().err

    # A document `run` wrote, broken in one field: the error names its path.
    document = json.loads((GOLDEN / "every_verb.json").read_text())
    without_evictions = {k: v for k, v in document.items() if k != "evictions"}
    lookup = document["operations"]["lookup"]
    lookup = {**lookup, "hops": {**lookup["hops"], "histogram": {"x": 1}}}
    for broken, path in [
        ([document], "document is not an object"),
        (without_evictions, "document.evictions is missing"),
        ({**document, "bogus": 1}, "document.bogus is not a field"),
        ({**document, "clock": True}, "document.clock is not an integer"),
        ({**document, "operations": {"lookup": lookup}},
         "document.operations.lookup.hops.histogram.x is not an integer key"),
        ({**document, "dumps": [{"clock": 0, "nodes": 5}]}, "document.dumps[0].nodes is not a list"),
    ]:
        wrong_shape.write_text(json.dumps(broken))
        assert main(["stats", str(wrong_shape)]) == 2, path
        assert path in capsys.readouterr().err

    assert main(["stats", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_stats_rejects_a_negative_count(tmp_path, capsys):
    document = json.loads((GOLDEN / "sample.json").read_text())
    kind = sorted(document["operations"])[0]
    document["operations"][kind]["hops"]["histogram"] = {"1": -5}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(document))
    assert main(["stats", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed metrics document" in err
    assert f"document.operations.{kind}.hops.histogram.1 is negative" in err


@pytest.mark.parametrize("histogram,p50,p90,p99", [
    ({0: 50, 1: 30, 2: 15, 9: 5}, 0, 2, 9),  # skewed: a long thin tail
    ({3: 7}, 3, 3, 3),
    ({}, 0, 0, 0),
])
def test_percentile_is_the_first_hop_count_reaching_its_share(histogram, p50, p90, p99):
    assert [_percentile(histogram, q) for q in (0.50, 0.90, 0.99)] == [p50, p90, p99]


def test_cli_stats_handles_empty_run(tmp_path, capsys):
    path = tmp_path / "empty.scenario"
    path.write_text("# nothing but comments\n")
    out_file = tmp_path / "m.json"
    assert main(["run", str(path), "--metrics-out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["stats", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "no dump recorded" in out


# -- input bounds


@pytest.mark.parametrize("text,fragment", [
    ("create 4097", "node count must be <= 4096"),
    ("create 2\nworkload zipf 4097 1 1 1.0", "workload node count must be <= 4096"),
    ("create 2\nworkload zipf 1 10001 1 1.0", "workload bundle count must be <= 10000"),
    ("create 2\nworkload zipf 1 1 1000001 1.0",
     "workload request count must be <= 1000000"),
    ("create 2\nworkload zipf 4 2 10 nan", "zipf exponent must be finite"),
    ("create 2\nworkload zipf 4 2 10 inf", "zipf exponent must be finite"),
    ("create 2\nworkload zipf 4 2 10 1e308", "zipf exponent too large for 2 bundles"),
])
def test_parse_rejects_sizes_above_their_bound(text, fragment):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert fragment in str(err.value)


def test_parse_accepts_sizes_at_their_bound():
    scenario = parse_scenario("create 4096\nworkload zipf 4096 10000 1000000 1.0\n")
    assert scenario.commands[1].args == (4096, 10000, 1000000, 1.0)


def test_huge_create_is_rejected_before_it_allocates():
    with pytest.raises(ScenarioParseError):
        parse_scenario(f"create {10 ** 18}")


def test_cli_rejects_oversized_inputs_with_exit_two(tmp_path):
    big = tmp_path / "big.scenario"
    big.write_text("create 4097\n")
    assert main(["run", str(big)]) == 2


def test_cli_has_no_payload_size_option(tmp_path, capsys):
    small = tmp_path / "small.scenario"
    small.write_text("create 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", str(small), "--payload-size", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --payload-size" in capsys.readouterr().err


def test_every_synthesized_payload_dumps_4096_bytes(tmp_path):
    path = tmp_path / "s.scenario"
    path.write_text("create 6\npublish n0 a.jar\npublish n1 b.jar\n"
                    "lookup n5 a.jar\ndump\n")
    result = run_scenario(str(path))
    assert result.exit_code == 0, result.diagnostic
    nodes = result.document["dumps"][0]["nodes"]
    held = [sum(e["role"] != Role.TRAIL.value for e in n["entries"]) for n in nodes]
    assert sum(held) >= 4  # a source and a root for each bundle
    assert [n["bytes"] for n in nodes] == [4096 * count for count in held]


def test_a_random_id_that_is_taken_is_drawn_again(monkeypatch):
    runner = ScenarioRunner(parse_scenario("create 2\n"), seed=4, random_ids=True)
    twin = random.Random()
    twin.setstate(runner.net.rng.getstate())
    first, second = twin.getrandbits(128), twin.getrandbits(128)
    draws = [first, first, second]  # n1's first draw is n0's id
    monkeypatch.setattr(runner.net.rng, "getrandbits", lambda bits: draws.pop(0))
    assert runner.run().exit_code == 0
    assert runner.names == {"n0": first, "n1": second} and not draws


def test_workload_replica_sample_matches_replica_count():
    # 40 requests leave both caches and payload-less trails behind
    runner = ScenarioRunner(parse_scenario("create 48\nworkload zipf 48 40 40 1.0\n"), seed=5)
    assert runner.run().exit_code == 0
    entries = [entry for node_id in runner.net.live_ids()
               for entry in runner.net.nodes[node_id].store.entries.values()]
    assert any(entry.payload is None for entry in entries)
    sample = runner.net.metrics.replica_samples[0]["counts"]
    assert len(sample) == 40 and len(set(sample.values())) > 1
    assert sample == {name: replica_count(runner.net, name) for name in sample}
