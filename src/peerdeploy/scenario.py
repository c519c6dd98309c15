"""Line-oriented scenario files: parse, validate fully, then execute.

A scenario drives one deterministic simulation: build a network, publish and
install bundles, inject churn, and check predicates. Validation happens
entirely before execution, so an invalid scenario never runs half-way. Bundle
payloads are synthesized from the seed and bundle name; fixtures stay text.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import os
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from . import overlay, repo, store
from .errors import (
    IndexParseError,
    LookupFailedError,
    MalformedUriError,
    NotFoundError,
    PeerDeployError,
    RoutingFailureError,
    ScenarioExecutionError,
    ScenarioParseError,
    UnavailableError,
)
from .ids import derive_key, root_of, to_hex
from .repo import (
    GatewayState,
    P2pUri,
    PassthroughUri,
    RepositoryIndex,
    describe_payload,
    load_index,
    parse_uri,
)
from .simnet import SimConfig, SimNetwork, serialize_metrics
from .store import ComponentPayload, StoreConfig

DEFAULT_PAYLOAD_SIZE = 4096

# Input bounds, checked at parse time before anything is allocated.
MAX_NODES = 4096  # create, and workload nodes
MAX_BUNDLES = 10_000  # workload bundles
MAX_REQUESTS = 1_000_000  # workload requests
MAX_PAYLOAD_SIZE = 1 << 20  # --payload-size

LOOKUP_STATUSES = ("ok", "not-found", "unavailable", "failed")

_NAME_RE = re.compile(r"^[^\s/]+$")


def synthesize_payload(seed: int, name: str, size: int = DEFAULT_PAYLOAD_SIZE) -> ComponentPayload:
    """Deterministic pseudo-content for a bundle, a hash stream over
    (seed, name, block counter)."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        block = hashlib.blake2b(f"{seed}:{name}:{counter}".encode(), digest_size=64)
        out.extend(block.digest())
        counter += 1
    return ComponentPayload.from_bytes(bytes(out[:size]))


# --------------------------------------------------------------------------
# parsing and static validation


@dataclass
class Command:
    index: int
    line: int
    verb: str
    args: tuple
    text: str


@dataclass
class Scenario:
    seed: Optional[int]
    commands: list[Command]


def _parse_int(token: str, lineno: int, what: str, minimum: int = 0,
               maximum: int | None = None) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ScenarioParseError(f"{what} must be an integer, got {token!r}", line=lineno)
    if value < minimum:
        raise ScenarioParseError(f"{what} must be >= {minimum}", line=lineno)
    if maximum is not None and value > maximum:
        raise ScenarioParseError(f"{what} must be <= {maximum}", line=lineno)
    return value


def _check_name(token: str, lineno: int, what: str) -> str:
    if not _NAME_RE.match(token) or token.startswith("-"):
        raise ScenarioParseError(f"bad {what} {token!r}", line=lineno)
    return token


_CMP_RE = re.compile(r"^(.+?)(==|!=|<=|>=|<|>)(.+)$")
_CALL_RE = re.compile(r"^([a-z_]+)\(([^()]*)\)$")

_NUMERIC_TERMS = {"hops", "replicas", "entries", "live_nodes"}


def _parse_predicate(compact: str, lineno: int, live: set[str]) -> tuple:
    """Predicate ASTs:
    ("installed"|"active", node, bundle)
    ("cmp", term, op, value) with term one of
      ("hops",) ("status",) ("replicas", name) ("root", name)
      ("entries", node) ("live_nodes",)
    """
    match = _CMP_RE.match(compact)
    if match:
        term_text, op, value_text = match.groups()
        term = _parse_term(term_text, lineno, live)
        kind = term[0]
        if kind in _NUMERIC_TERMS:
            value: Any = _parse_int(value_text, lineno, f"comparison value for {term_text}",
                                    minimum=-(10 ** 9))
        elif kind == "status":
            if op not in ("==", "!="):
                raise ScenarioParseError("status(lookup) supports only == and !=", line=lineno)
            if value_text not in LOOKUP_STATUSES:
                raise ScenarioParseError(
                    f"unknown lookup status {value_text!r}", line=lineno)
            value = value_text
        elif kind == "root":
            if op not in ("==", "!="):
                raise ScenarioParseError("root(name) supports only == and !=", line=lineno)
            if value_text not in live:
                raise ScenarioParseError(
                    f"root comparison names unknown node {value_text!r}", line=lineno)
            value = value_text
        else:
            raise ScenarioParseError(f"cannot compare {term_text!r}", line=lineno)
        return ("cmp", term, op, value)

    call = _CALL_RE.match(compact)
    if call and call.group(1) in ("installed", "active"):
        args = call.group(2).split(",")
        if len(args) != 2 or not all(args):
            raise ScenarioParseError(
                f"{call.group(1)} needs (node,bundle)", line=lineno)
        node, bundle = args
        if node not in live:
            raise ScenarioParseError(f"unknown node {node!r} in predicate", line=lineno)
        return (call.group(1), node, bundle)
    raise ScenarioParseError(f"cannot parse predicate {compact!r}", line=lineno)


def _parse_term(text: str, lineno: int, live: set[str]) -> tuple:
    if text == "live_nodes":
        return ("live_nodes",)
    call = _CALL_RE.match(text)
    if not call:
        raise ScenarioParseError(f"unknown assert term {text!r}", line=lineno)
    fn, arg = call.groups()
    if fn in ("hops", "status"):
        if arg != "lookup":
            raise ScenarioParseError(f"{fn}() takes the literal 'lookup'", line=lineno)
        return (fn,)
    if fn == "replicas":
        if not arg:
            raise ScenarioParseError("replicas() needs a bundle name", line=lineno)
        return ("replicas", arg)
    if fn == "root":
        if not arg:
            raise ScenarioParseError("root() needs a bundle name", line=lineno)
        return ("root", arg)
    if fn == "entries":
        if arg not in live:
            raise ScenarioParseError(f"unknown node {arg!r} in entries()", line=lineno)
        return ("entries", arg)
    raise ScenarioParseError(f"unknown assert term {text!r}", line=lineno)


def parse_scenario(text: str) -> Scenario:
    """Parse and statically validate a scenario. Node references must name a
    node that the preceding commands leave alive; violations reject the whole
    file before anything executes."""
    seed: Optional[int] = None
    commands: list[Command] = []
    live: set[str] = set()
    created = False

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        verb = tokens[0]

        if verb == "seed":
            if commands:
                raise ScenarioParseError("seed directive must precede commands", line=lineno)
            if seed is not None:
                raise ScenarioParseError("duplicate seed directive", line=lineno)
            if len(tokens) != 2:
                raise ScenarioParseError("usage: seed <integer>", line=lineno)
            seed = _parse_int(tokens[1], lineno, "seed")
            continue

        if verb == "create":
            if len(tokens) != 2:
                raise ScenarioParseError("usage: create <count>", line=lineno)
            if created:
                raise ScenarioParseError("create may appear only once", line=lineno)
            count = _parse_int(tokens[1], lineno, "node count", minimum=1, maximum=MAX_NODES)
            for i in range(count):
                name = f"n{i}"
                if name in live:
                    raise ScenarioParseError(f"node {name!r} already exists", line=lineno)
                live.add(name)
            created = True
            args: tuple = (count,)

        elif verb == "join":
            if len(tokens) != 2:
                raise ScenarioParseError("usage: join <name>", line=lineno)
            name = _check_name(tokens[1], lineno, "node name")
            if name in live:
                raise ScenarioParseError(f"node {name!r} is already live", line=lineno)
            live.add(name)
            args = (name,)

        elif verb == "leave":
            if len(tokens) == 3 and tokens[2] == "--fail":
                graceful = False
            elif len(tokens) == 2:
                graceful = True
            else:
                raise ScenarioParseError("usage: leave <name> [--fail]", line=lineno)
            name = tokens[1]
            if name not in live:
                raise ScenarioParseError(f"node {name!r} is not live here", line=lineno)
            live.discard(name)
            args = (name, graceful)

        elif verb == "publish":
            if len(tokens) not in (3, 4):
                raise ScenarioParseError(
                    "usage: publish <node> <bundle> [<descriptor-file>]", line=lineno)
            node = tokens[1]
            if node not in live:
                raise ScenarioParseError(f"node {node!r} is not live here", line=lineno)
            bundle = _check_name(tokens[2], lineno, "bundle name")
            descriptor = tokens[3] if len(tokens) == 4 else None
            args = (node, bundle, descriptor)

        elif verb == "install":
            if len(tokens) != 3:
                raise ScenarioParseError("usage: install <node> <uri>", line=lineno)
            node = tokens[1]
            if node not in live:
                raise ScenarioParseError(f"node {node!r} is not live here", line=lineno)
            try:
                uri = parse_uri(tokens[2])
            except MalformedUriError as exc:
                raise ScenarioParseError(str(exc), line=lineno) from exc
            if isinstance(uri, PassthroughUri):
                raise ScenarioParseError(
                    f"install handles only p2p:// URIs, not {uri.scheme!r}", line=lineno)
            args = (node, uri.bundle_name)

        elif verb == "lookup":
            if len(tokens) != 3:
                raise ScenarioParseError("usage: lookup <node> <name>", line=lineno)
            node = tokens[1]
            if node not in live:
                raise ScenarioParseError(f"node {node!r} is not live here", line=lineno)
            name = _check_name(tokens[2], lineno, "bundle name")
            args = (node, name)

        elif verb == "advance":
            if len(tokens) != 2:
                raise ScenarioParseError("usage: advance <ticks>", line=lineno)
            args = (_parse_int(tokens[1], lineno, "tick count"),)

        elif verb == "workload":
            if len(tokens) != 6 or tokens[1] != "zipf":
                raise ScenarioParseError(
                    "usage: workload zipf <nodes> <bundles> <requests> <exponent>",
                    line=lineno)
            nodes = _parse_int(tokens[2], lineno, "workload node count", minimum=1,
                               maximum=MAX_NODES)
            bundles = _parse_int(tokens[3], lineno, "workload bundle count", minimum=1,
                                 maximum=MAX_BUNDLES)
            requests = _parse_int(tokens[4], lineno, "workload request count",
                                  maximum=MAX_REQUESTS)
            try:
                exponent = float(tokens[5])
            except ValueError:
                raise ScenarioParseError("zipf exponent must be a number", line=lineno)
            if exponent < 0:
                raise ScenarioParseError("zipf exponent must be >= 0", line=lineno)
            if not live:
                raise ScenarioParseError("workload needs live nodes", line=lineno)
            args = (nodes, bundles, requests, exponent)

        elif verb == "dump":
            if len(tokens) != 1:
                raise ScenarioParseError("dump takes no arguments", line=lineno)
            args = ()

        elif verb == "assert":
            if len(tokens) < 2:
                raise ScenarioParseError("assert needs a predicate", line=lineno)
            compact = "".join(tokens[1:])
            ast = _parse_predicate(compact, lineno, live)
            args = (compact, ast)

        else:
            raise ScenarioParseError(f"unknown command {verb!r}", line=lineno)

        commands.append(Command(index=len(commands), line=lineno,
                                verb=verb, args=args, text=line))
    return Scenario(seed=seed, commands=commands)


# --------------------------------------------------------------------------
# network building


def build_network(count: int, seed: int = 0, random_ids: bool = False,
                  sim_config: SimConfig | None = None,
                  store_config: StoreConfig | None = None,
                  name_prefix: str = "n") -> tuple[SimNetwork, dict[str, int]]:
    """Stand up a network of `count` nodes named n0..n{count-1}, joined
    sequentially through the lowest live id. Returns (net, name -> id)."""
    net = SimNetwork(seed=seed, config=sim_config, store_config=store_config)
    names: dict[str, int] = {}
    for i in range(count):
        name = f"{name_prefix}{i}"
        node_id = _id_for(net, name, random_ids)
        live = net.live_ids()
        overlay.join(net, node_id, live[0] if live else None, name=name)
        names[name] = node_id
    return net, names


def _id_for(net: SimNetwork, name: str, random_ids: bool) -> int:
    if not random_ids:
        node_id = derive_key(name)
        if node_id in net.nodes and net.nodes[node_id].status is not overlay.NodeStatus.DEPARTED:
            raise ScenarioExecutionError(f"id collision for node name {name!r}")
        return node_id
    while True:
        node_id = net.rng.getrandbits(128)
        if node_id not in net.nodes:
            return node_id


# --------------------------------------------------------------------------
# execution


@dataclass
class RunResult:
    exit_code: int
    document: dict
    diagnostic: Optional[str] = None

    def serialized(self) -> str:
        return serialize_metrics(self.document)


class ScenarioRunner:
    """Executes a parsed scenario against one fresh SimNetwork."""

    def __init__(self, scenario: Scenario, seed: int,
                 base_dir: str = ".",
                 random_ids: bool = False,
                 payload_size: int = DEFAULT_PAYLOAD_SIZE,
                 sim_config: SimConfig | None = None,
                 store_config: StoreConfig | None = None):
        self.scenario = scenario
        self.seed = seed
        self.random_ids = random_ids
        self.payload_size = payload_size
        self.net = SimNetwork(seed=seed, config=sim_config, store_config=store_config)
        self.names: dict[str, int] = {}
        self.index = RepositoryIndex()  # one index shared by every gateway
        self.gateways: dict[int, GatewayState] = {}
        self.last_lookup: Optional[dict[str, Any]] = None
        # Descriptor files are part of scenario validity: load them before
        # executing anything.
        self.descriptors: dict[str, RepositoryIndex] = {}
        for cmd in scenario.commands:
            if cmd.verb != "publish" or cmd.args[2] is None:
                continue
            path = os.path.join(base_dir, cmd.args[2])
            try:
                loaded = load_index(path)
            except OSError as exc:
                raise ScenarioParseError(
                    f"cannot read descriptor file {cmd.args[2]!r}: {exc}",
                    line=cmd.line) from exc
            except IndexParseError as exc:
                raise ScenarioParseError(
                    f"descriptor file {cmd.args[2]!r}: {exc}", line=cmd.line) from exc
            if loaded.get(cmd.args[1]) is None:
                raise ScenarioParseError(
                    f"descriptor file {cmd.args[2]!r} has no record for {cmd.args[1]!r}",
                    line=cmd.line)
            self.descriptors[cmd.args[2]] = loaded

    # -- plumbing

    def _node_id(self, name: str) -> int:
        node_id = self.names.get(name)
        if node_id is None:
            raise ScenarioExecutionError(f"node {name!r} was never created")
        return node_id

    def _gateway(self, node_id: int) -> GatewayState:
        gw = self.gateways.get(node_id)
        if gw is None:
            gw = GatewayState(node_id, index=self.index)
            self.gateways[node_id] = gw
        return gw

    def _join(self, name: str) -> None:
        node_id = _id_for(self.net, name, self.random_ids)
        live = self.net.live_ids()
        overlay.join(self.net, node_id, live[0] if live else None, name=name)
        self.names[name] = node_id

    def _do_lookup(self, client: int, name: str) -> tuple[str, Optional[int]]:
        status: str
        hops: Optional[int] = None
        try:
            _payload, _served_by, hops = store.lookup(self.net, client, name)
            status = "ok"
        except NotFoundError:
            status = "not-found"
        except UnavailableError:
            status = "unavailable"
        except (LookupFailedError, RoutingFailureError):
            status = "failed"
        self.last_lookup = {"client": client, "name": name,
                            "status": status, "hops": hops}
        return status, hops

    # -- command execution

    def run(self) -> RunResult:
        try:
            for cmd in self.scenario.commands:
                failed_assert = self._execute(cmd)
                if failed_assert is not None:
                    return RunResult(
                        exit_code=1,
                        document=self.net.metrics.to_document(self.net),
                        diagnostic=(f"assert failed at command {cmd.index} "
                                    f"(line {cmd.line}): {failed_assert}"))
        except ScenarioExecutionError as exc:
            return RunResult(exit_code=1,
                             document=self.net.metrics.to_document(self.net),
                             diagnostic=str(exc))
        return RunResult(exit_code=0, document=self.net.metrics.to_document(self.net))

    def _execute(self, cmd: Command) -> Optional[str]:
        """Returns a diagnostic string when an assert fails, else None."""
        try:
            if cmd.verb == "create":
                for i in range(cmd.args[0]):
                    self._join(f"n{i}")
            elif cmd.verb == "join":
                self._join(cmd.args[0])
            elif cmd.verb == "leave":
                name, graceful = cmd.args
                overlay.leave(self.net, self._node_id(name), graceful=graceful)
            elif cmd.verb == "publish":
                self._publish(cmd)
            elif cmd.verb == "install":
                node, bundle = cmd.args
                repo.install(self._gateway(self._node_id(node)), self.net,
                             f"p2p://{bundle}")
            elif cmd.verb == "lookup":
                node, name = cmd.args
                self._do_lookup(self._node_id(node), name)
            elif cmd.verb == "advance":
                self.net.advance(cmd.args[0])
            elif cmd.verb == "workload":
                self._workload(cmd)
            elif cmd.verb == "dump":
                self._dump()
            elif cmd.verb == "assert":
                compact, ast = cmd.args
                passed, detail = self._eval_predicate(ast)
                self.net.metrics.assertions.append(
                    {"index": cmd.index, "predicate": compact, "passed": passed})
                if not passed:
                    return f"{compact} ({detail})"
            else:  # unreachable: the parser rejects unknown verbs
                raise ScenarioExecutionError(f"unhandled verb {cmd.verb!r}",
                                             command_index=cmd.index)
        except ScenarioExecutionError:
            raise
        except PeerDeployError as exc:
            raise ScenarioExecutionError(
                f"command {cmd.index} (line {cmd.line}) {cmd.text!r} failed: {exc}",
                command_index=cmd.index) from exc
        return None

    def _publish(self, cmd: Command) -> None:
        node, bundle, descriptor_file = cmd.args
        node_id = self._node_id(node)
        payload = synthesize_payload(self.seed, bundle, self.payload_size)
        if descriptor_file is not None:
            descriptor = self.descriptors[descriptor_file].get(bundle)
            assert descriptor is not None  # checked at preload
        else:
            descriptor = describe_payload(bundle, payload)
        repo.publish_local(self._gateway(node_id), self.net, descriptor, payload)

    def _workload(self, cmd: Command) -> None:
        nodes, bundles, requests, exponent = cmd.args
        rng = self.net.rng
        names = [f"wl{i}.jar" for i in range(bundles)]
        for name in names:
            key = derive_key(name)
            publisher = self._pick_publisher(key, rng)
            payload = synthesize_payload(self.seed, name, self.payload_size)
            repo.publish_local(self._gateway(publisher), self.net,
                               describe_payload(name, payload), payload)
        live = self.net.live_ids()
        pool = live if nodes >= len(live) else rng.sample(live, nodes)
        weights = [1.0 / (rank ** exponent) for rank in range(1, bundles + 1)]
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1]
        outcomes = {status: 0 for status in LOOKUP_STATUSES}
        for request in range(requests):
            draw = rng.random() * total
            idx = min(bisect.bisect_left(cumulative, draw), bundles - 1)
            client = pool[rng.randrange(len(pool))]
            status, _hops = self._do_lookup(client, names[idx])
            outcomes[status] += 1
            if (request + 1) % 100 == 0:
                self.net.sweep_eviction()
        counts = {name: store.replica_count(self.net, name) for name in names}
        self.net.metrics.workloads.append({
            "kind": "zipf", "nodes": nodes, "bundles": bundles,
            "requests": requests, "exponent": exponent,
            "outcomes": dict(sorted(outcomes.items())),
        })
        self.net.metrics.replica_samples.append(
            {"clock": self.net.clock, "counts": dict(sorted(counts.items()))})

    def _pick_publisher(self, key: int, rng) -> int:
        """Any live node except the key's root, so the source copy adds a
        second pinned replica. A single-node network has no choice."""
        live = self.net.live_ids()
        if not live:
            raise ScenarioExecutionError("workload needs live nodes")
        if len(live) == 1:
            return live[0]
        root = root_of(live, key)
        while True:
            candidate = live[rng.randrange(len(live))]
            if candidate != root:
                return candidate

    def _dump(self) -> None:
        id_to_name = {node_id: name for name, node_id in self.names.items()}
        nodes = []
        for node_id in self.net.live_ids():
            node = self.net.nodes[node_id]
            entries = []
            for key in sorted(node.store.entries):
                entry = node.store.entries[key]
                entries.append({
                    "key": to_hex(key), "name": entry.name,
                    "role": entry.role.value, "hits": entry.hits,
                    "last_access": entry.last_access,
                })
            nodes.append({
                "id": to_hex(node_id),
                "name": id_to_name.get(node_id, node.name),
                "entries": entries,
                "bytes": node.store.total_bytes(),
            })
        self.net.metrics.dumps.append({"clock": self.net.clock, "nodes": nodes})

    # -- predicate evaluation

    def _eval_predicate(self, ast: tuple) -> tuple[bool, str]:
        kind = ast[0]
        if kind in ("installed", "active"):
            _, node, bundle = ast
            gw = self.gateways.get(self._node_id(node))
            state = gw.state_of(bundle) if gw is not None else None
            if kind == "installed":
                passed = state is not None
            else:
                passed = state is repo.LifecycleState.ACTIVE
            return passed, f"state is {state.value if state else 'absent'}"

        _, term, op, expected = ast
        actual = self._eval_term(term)
        if actual is None:
            return False, f"{term[0]} has no value yet"
        passed = _compare(actual, op, expected)
        return passed, f"actual {actual!r}"

    def _eval_term(self, term: tuple):
        kind = term[0]
        if kind == "live_nodes":
            return len(self.net.live_ids())
        if kind == "hops":
            return None if self.last_lookup is None else self.last_lookup["hops"]
        if kind == "status":
            return None if self.last_lookup is None else self.last_lookup["status"]
        if kind == "replicas":
            return store.replica_count(self.net, term[1])
        if kind == "entries":
            return len(self.net.node(self._node_id(term[1])).store.entries)
        if kind == "root":
            live = self.net.live_ids()
            if not live:
                return None
            root_id = root_of(live, derive_key(term[1]))
            for name, node_id in self.names.items():
                if node_id == root_id:
                    return name
            return to_hex(root_id)
        raise ScenarioExecutionError(f"unknown term {kind!r}")


def _compare(actual, op: str, expected) -> bool:
    if op == "==":
        return actual == expected
    if op == "!=":
        return actual != expected
    if op == "<":
        return actual < expected
    if op == "<=":
        return actual <= expected
    if op == ">":
        return actual > expected
    return actual >= expected


def run_scenario(path: str, seed: Optional[int] = None,
                 random_ids: bool = False,
                 payload_size: int = DEFAULT_PAYLOAD_SIZE,
                 sim_config: SimConfig | None = None,
                 store_config: StoreConfig | None = None) -> RunResult:
    """Parse and execute a scenario file. `seed` overrides the file's own
    seed directive; raises ScenarioParseError for anything wrong with the
    file, returns a RunResult for everything that happens at run time."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    scenario = parse_scenario(text)
    effective = seed if seed is not None else (scenario.seed or 0)
    runner = ScenarioRunner(scenario, seed=effective,
                            base_dir=os.path.dirname(os.path.abspath(path)),
                            random_ids=random_ids, payload_size=payload_size,
                            sim_config=sim_config, store_config=store_config)
    return runner.run()
