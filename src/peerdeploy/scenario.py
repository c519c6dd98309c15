"""Line-oriented scenario files: parse, validate fully, then execute.

A scenario drives one deterministic simulation: build a network, publish and
install bundles, inject churn, and check predicates. `parse_scenario` checks
everything, descriptor files included, before execution, so an invalid
scenario never runs half-way. Payloads are synthesized; fixtures stay text.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from . import overlay, repo, store
from .errors import (
    IndexParseError,
    LookupFailedError,
    MalformedUriError,
    NotFoundError,
    PeerDeployError,
    ScenarioParseError,
    UnavailableError,
)
from .ids import derive_key, ring_root, to_hex
from .repo import (
    GatewayState,
    RepositoryIndex,
    describe_payload,
    load_index,
    parse_uri,
)
from .simnet import SimConfig, SimNetwork, serialize_metrics
from .store import ComponentPayload, StoreConfig

PAYLOAD_SIZE = 4096  # bytes in every synthesized payload: 64 blake2b blocks

# Input bounds, checked at parse time before anything is allocated.
MAX_NODES = 4096  # create, and workload nodes
MAX_BUNDLES = 10_000  # workload bundles
MAX_REQUESTS = 1_000_000  # workload requests

LOOKUP_STATUSES = ("ok", "not-found", "unavailable", "failed")

_NAME_RE = re.compile(r"^[^\s/]+$")


def synthesize_payload(seed: int, name: str) -> ComponentPayload:
    """Deterministic pseudo-content for a bundle: PAYLOAD_SIZE bytes of a hash
    stream over (seed, name, block counter)."""
    blocks = (hashlib.blake2b(f"{seed}:{name}:{counter}".encode(), digest_size=64).digest()
              for counter in range(PAYLOAD_SIZE // 64))
    return ComponentPayload.from_bytes(b"".join(blocks))


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


class _Verb(NamedTuple):
    fewest: int  # arguments after the verb
    most: float
    usage: str  # the diagnostic for any other count
    names_node: bool  # the first argument names a node live at that line


_VERBS = {
    "seed": _Verb(1, 1, "usage: seed <integer>", False),
    "create": _Verb(1, 1, "usage: create <count>", False),
    "join": _Verb(1, 1, "usage: join <name>", False),
    "leave": _Verb(1, 2, "usage: leave <name> [--fail]", True),
    "publish": _Verb(2, 3, "usage: publish <node> <bundle> [<descriptor-file>]", True),
    "install": _Verb(2, 2, "usage: install <node> <uri>", True),
    "lookup": _Verb(2, 2, "usage: lookup <node> <name>", True),
    "remove": _Verb(2, 2, "usage: remove <node> <bundle>", True),
    "advance": _Verb(1, 1, "usage: advance <ticks>", False),
    "workload": _Verb(5, 5, "usage: workload zipf <nodes> <bundles> <requests> <exponent>",
                     False),
    "dump": _Verb(0, 0, "dump takes no arguments", False),
    "assert": _Verb(1, math.inf, "assert needs a predicate", False),
}


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

_OPERATORS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# Assert terms: what each takes in its parentheses (None: it is written bare)
# and what it compares with. "lookup" terms read the last lookup's outcome.
_TERMS = {
    "hops": ("lookup", "int"),
    "status": ("lookup", "status"),
    "replicas": ("bundle", "int"),
    "root": ("bundle", "node"),
    "entries": ("node", "int"),
    "live_nodes": (None, "int"),
}


def _parse_predicate(compact: str, lineno: int, live: set[str]) -> tuple:
    """Predicate ASTs:
    ("installed", node, bundle)
    ("cmp", term, op, value) with term one of
      ("hops",) ("status",) ("replicas", name) ("root", name)
      ("entries", node) ("live_nodes",)
    """
    match = _CMP_RE.match(compact)
    if match:
        term_text, op, value_text = match.groups()
        term = _parse_term(term_text, lineno, live)
        value_kind = _TERMS[term[0]][1]
        if value_kind == "int":
            value: Any = _parse_int(value_text, lineno, f"comparison value for {term_text}",
                                    minimum=-(10 ** 9))
            return ("cmp", term, op, value)
        if op not in ("==", "!="):
            raise ScenarioParseError(f"{term[0]}() supports only == and !=", line=lineno)
        if value_kind == "status" and value_text not in LOOKUP_STATUSES:
            raise ScenarioParseError(f"unknown lookup status {value_text!r}", line=lineno)
        if value_kind == "node" and value_text not in live:
            raise ScenarioParseError(
                f"{term[0]}() comparison names unknown node {value_text!r}", line=lineno)
        return ("cmp", term, op, value_text)

    call = _CALL_RE.match(compact)
    if call and call.group(1) == "installed":
        args = call.group(2).split(",")
        if len(args) != 2 or not all(args):
            raise ScenarioParseError("installed needs (node,bundle)", line=lineno)
        node, bundle = args
        if node not in live:
            raise ScenarioParseError(f"unknown node {node!r} in predicate", line=lineno)
        return ("installed", node, bundle)
    raise ScenarioParseError(f"cannot parse predicate {compact!r}", line=lineno)


def _parse_term(text: str, lineno: int, live: set[str]) -> tuple:
    call = _CALL_RE.match(text)
    fn, arg = call.groups() if call else (text, None)
    if fn not in _TERMS or (_TERMS[fn][0] is None) != (arg is None):
        raise ScenarioParseError(f"unknown assert term {text!r}", line=lineno)
    arg_kind = _TERMS[fn][0]
    if arg_kind == "lookup" and arg != "lookup":
        raise ScenarioParseError(f"{fn}() takes the literal 'lookup'", line=lineno)
    if arg_kind == "bundle" and not arg:
        raise ScenarioParseError(f"{fn}() needs a bundle name", line=lineno)
    if arg_kind == "node" and arg not in live:
        raise ScenarioParseError(f"unknown node {arg!r} in {fn}()", line=lineno)
    return (fn,) if arg_kind in (None, "lookup") else (fn, arg)


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse and statically validate a scenario. Node references must name a
    node that the preceding commands leave alive; violations reject the whole
    file before anything executes. Descriptor files are read from `base_dir`,
    each once, when the text is valid, and each publish command carries its
    descriptor, or None to describe the synthesized payload."""
    seed: Optional[int] = None
    commands: list[Command] = []
    live: set[str] = set()
    created = False

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verb, *rest = line.split()
        spec = _VERBS.get(verb)
        if spec is None:
            raise ScenarioParseError(f"unknown command {verb!r}", line=lineno)
        if not spec.fewest <= len(rest) <= spec.most:
            raise ScenarioParseError(spec.usage, line=lineno)
        if spec.names_node and rest[0] not in live:
            raise ScenarioParseError(f"node {rest[0]!r} is not live here", line=lineno)

        if verb == "seed":
            if commands:
                raise ScenarioParseError("seed directive must precede commands", line=lineno)
            if seed is not None:
                raise ScenarioParseError("duplicate seed directive", line=lineno)
            seed = _parse_int(rest[0], lineno, "seed")
            continue

        if verb == "create":
            if created:
                raise ScenarioParseError("create may appear only once", line=lineno)
            count = _parse_int(rest[0], lineno, "node count", minimum=1, maximum=MAX_NODES)
            for i in range(count):
                name = f"n{i}"
                if name in live:
                    raise ScenarioParseError(f"node {name!r} already exists", line=lineno)
                live.add(name)
            created = True
            args: tuple = (count,)

        elif verb == "join":
            name = _check_name(rest[0], lineno, "node name")
            if name in live:
                raise ScenarioParseError(f"node {name!r} is already live", line=lineno)
            live.add(name)
            args = (name,)

        elif verb == "leave":
            if rest[1:] not in ([], ["--fail"]):
                raise ScenarioParseError(spec.usage, line=lineno)
            live.discard(rest[0])
            args = (rest[0], len(rest) == 1)

        elif verb == "publish":
            bundle = _check_name(rest[1], lineno, "bundle name")
            args = (rest[0], bundle, rest[2] if len(rest) == 3 else None)

        elif verb == "install":
            try:
                scheme, bundle = parse_uri(rest[1])
            except MalformedUriError as exc:
                raise ScenarioParseError(str(exc), line=lineno) from exc
            if scheme != "p2p":
                raise ScenarioParseError(
                    f"install handles only p2p:// URIs, not {scheme!r}", line=lineno)
            args = (rest[0], bundle)

        elif verb in ("lookup", "remove"):
            args = (rest[0], _check_name(rest[1], lineno, "bundle name"))

        elif verb == "advance":
            args = (_parse_int(rest[0], lineno, "tick count"),)

        elif verb == "workload":
            if rest[0] != "zipf":
                raise ScenarioParseError(spec.usage, line=lineno)
            nodes = _parse_int(rest[1], lineno, "workload node count", minimum=1,
                               maximum=MAX_NODES)
            bundles = _parse_int(rest[2], lineno, "workload bundle count", minimum=1,
                                 maximum=MAX_BUNDLES)
            requests = _parse_int(rest[3], lineno, "workload request count",
                                  maximum=MAX_REQUESTS)
            try:
                exponent = float(rest[4])
                float(bundles) ** exponent  # the rarest bundle's weight is its inverse
            except ValueError:
                raise ScenarioParseError("zipf exponent must be a number", line=lineno)
            except OverflowError:
                raise ScenarioParseError(f"zipf exponent too large for {bundles} bundles",
                                         line=lineno)
            if not 0 <= exponent < math.inf:
                raise ScenarioParseError("zipf exponent must be finite and >= 0", line=lineno)
            if not live:
                raise ScenarioParseError("workload needs live nodes", line=lineno)
            args = (nodes, bundles, requests, exponent)

        elif verb == "dump":
            args = ()

        else:  # assert
            compact = "".join(rest)
            args = (compact, _parse_predicate(compact, lineno, live))

        commands.append(Command(index=len(commands), line=lineno,
                                verb=verb, args=args, text=line))

    indexes: dict[str, RepositoryIndex] = {}
    for cmd in commands:
        if cmd.verb != "publish" or cmd.args[2] is None:
            continue
        node, bundle, file_name = cmd.args
        if file_name not in indexes:
            try:
                indexes[file_name] = load_index(os.path.join(base_dir, file_name))
            except OSError as exc:
                raise ScenarioParseError(f"cannot read descriptor file {file_name!r}: {exc}",
                                         line=cmd.line) from exc
            except IndexParseError as exc:
                where = "" if exc.line is None else f" line {exc.line}"
                raise ScenarioParseError(f"descriptor file {file_name!r}{where}: {exc}",
                                         line=cmd.line) from exc
        descriptor = indexes[file_name].get(bundle)
        if descriptor is None:
            raise ScenarioParseError(
                f"descriptor file {file_name!r} has no record for {bundle!r}", line=cmd.line)
        cmd.args = (node, bundle, descriptor)
    return Scenario(seed=seed, commands=commands)


# --------------------------------------------------------------------------
# network building


def build_network(count: int, seed: int = 0, random_ids: bool = False,
                  sim_config: SimConfig | None = None,
                  store_config: StoreConfig | None = None) -> tuple[SimNetwork, dict[str, int]]:
    """Stand up a network of `count` nodes named n0..n{count-1}, joined one by
    one as a scenario's `create` joins them. Returns (net, name -> id)."""
    net = SimNetwork(seed=seed, config=sim_config, store_config=store_config)
    names = {f"n{i}": _join_named(net, f"n{i}", random_ids) for i in range(count)}
    return net, names


def _join_named(net: SimNetwork, name: str, random_ids: bool) -> int:
    """Join a node called `name` through the lowest live id and return its
    id: the hash of the name, or with random_ids a fresh draw from the
    network's rng. A hashed id that is still live fails in SimNetwork.register."""
    if random_ids:
        node_id = net.rng.getrandbits(128)
        while node_id in net.nodes:
            node_id = net.rng.getrandbits(128)
    else:
        node_id = derive_key(name)
    live = net.live_ids()
    overlay.join(net, node_id, live[0] if live else None, name=name)
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
    """Executes a parsed scenario against one fresh SimNetwork. Each verb
    runs through the method named `_cmd_<verb>`. It does no validation: it
    relies on `parse_scenario` for every input check, and the first command
    that fails stops the run."""

    def __init__(self, scenario: Scenario, seed: int, random_ids: bool = False):
        self.scenario = scenario
        self.seed = seed
        self.random_ids = random_ids
        self.net = SimNetwork(seed=seed)
        self.names: dict[str, int] = {}
        self.index = RepositoryIndex()  # one index shared by every gateway
        self.gateways: dict[int, GatewayState] = {}
        self.last_lookup: Optional[dict[str, Any]] = None

    # -- plumbing

    def _gateway(self, node_id: int) -> GatewayState:
        gw = self.gateways.get(node_id)
        if gw is None:
            gw = GatewayState(node_id, index=self.index)
            self.gateways[node_id] = gw
        return gw

    def _lookup(self, client: int, name: str) -> str:
        """Look `name` up from `client`, record the outcome as the last
        lookup and return its status."""
        status: str
        hops: Optional[int] = None
        try:
            _payload, _served_by, hops = store.lookup(self.net, client, name)
            status = "ok"
        except NotFoundError:
            status = "not-found"
        except UnavailableError:
            status = "unavailable"
        except LookupFailedError:
            status = "failed"
        self.last_lookup = {"client": client, "name": name,
                            "status": status, "hops": hops}
        return status

    # -- command execution

    def run(self) -> RunResult:
        """Execute up to the first failed command or assert, and report it."""
        diagnostic = None
        for cmd in self.scenario.commands:
            try:
                diagnostic = getattr(self, f"_cmd_{cmd.verb}")(cmd)
            except PeerDeployError as exc:
                diagnostic = f"command {cmd.index} (line {cmd.line}) {cmd.text!r} failed: {exc}"
            if diagnostic is not None:
                break
        return RunResult(exit_code=0 if diagnostic is None else 1,
                         document=self.net.metrics.to_document(self.net),
                         diagnostic=diagnostic)

    def _cmd_create(self, cmd: Command) -> None:
        for i in range(cmd.args[0]):
            self.names[f"n{i}"] = _join_named(self.net, f"n{i}", self.random_ids)

    def _cmd_join(self, cmd: Command) -> None:
        name, = cmd.args
        self.names[name] = _join_named(self.net, name, self.random_ids)

    def _cmd_leave(self, cmd: Command) -> None:
        name, graceful = cmd.args
        overlay.leave(self.net, self.names[name], graceful=graceful)

    def _cmd_publish(self, cmd: Command) -> None:
        node, bundle, descriptor = cmd.args
        payload = synthesize_payload(self.seed, bundle)
        repo.publish_local(self._gateway(self.names[node]), self.net,
                           descriptor or describe_payload(bundle, payload), payload)

    def _cmd_install(self, cmd: Command) -> None:
        node, bundle = cmd.args
        repo.install(self._gateway(self.names[node]), self.net, f"p2p://{bundle}")

    def _cmd_lookup(self, cmd: Command) -> None:
        node, name = cmd.args
        self._lookup(self.names[node], name)

    def _cmd_remove(self, cmd: Command) -> None:
        store.remove(self.net, self.names[cmd.args[0]], cmd.args[1])

    def _cmd_advance(self, cmd: Command) -> None:
        self.net.advance(cmd.args[0])

    def _cmd_workload(self, cmd: Command) -> None:
        nodes, bundles, requests, exponent = cmd.args
        rng = self.net.rng
        names = [f"wl{i}.jar" for i in range(bundles)]
        for name in names:
            key = derive_key(name)
            publisher = self._pick_publisher(key, rng)
            payload = synthesize_payload(self.seed, name)
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
            outcomes[self._lookup(client, names[idx])] += 1
            if (request + 1) % 100 == 0:
                self.net.sweep_eviction()
        # replica_count of every bundle, in one walk over the live stores
        held = Counter(key for node_id in self.net.live_ids()
                       for key, entry in self.net.nodes[node_id].store.entries.items()
                       if entry.payload is not None)
        counts = {name: held[derive_key(name)] for name in names}
        self.net.metrics.workloads.append({
            "kind": "zipf", "nodes": nodes, "bundles": bundles,
            "requests": requests, "exponent": exponent,
            "outcomes": outcomes,
        })
        self.net.metrics.replica_samples.append(
            {"clock": self.net.clock, "counts": counts})

    def _pick_publisher(self, key: int, rng) -> int:
        """Any live node except the key's root, so the source copy adds a
        second pinned replica. A single-node network has no choice."""
        live = self.net.live_ids()
        if len(live) == 1:
            return live[0]
        root = ring_root(live, key)
        while True:
            candidate = live[rng.randrange(len(live))]
            if candidate != root:
                return candidate

    def _cmd_dump(self, cmd: Command) -> None:
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
                "name": node.name,
                "entries": entries,
                "bytes": node.store.total_bytes(),
            })
        self.net.metrics.dumps.append({"clock": self.net.clock, "nodes": nodes})

    def _cmd_assert(self, cmd: Command) -> Optional[str]:
        compact, ast = cmd.args
        passed, detail = self._eval_predicate(ast)
        self.net.metrics.assertions.append(
            {"index": cmd.index, "predicate": compact, "passed": passed})
        if passed:
            return None
        return f"assert failed at command {cmd.index} (line {cmd.line}): {compact} ({detail})"

    # -- predicate evaluation

    def _eval_predicate(self, ast: tuple) -> tuple[bool, str]:
        if ast[0] == "installed":
            _, node, bundle = ast
            gw = self.gateways.get(self.names[node])
            state = gw.state_of(bundle) if gw is not None else None
            return state is not None, f"state is {state.value if state else 'absent'}"

        _, term, op, expected = ast
        if _TERMS[term[0]][0] == "lookup":
            actual = None if self.last_lookup is None else self.last_lookup[term[0]]
        else:
            actual = getattr(self, f"_term_{term[0]}")(*term[1:])
        if actual is None:
            return False, f"{term[0]} has no value yet"
        return _OPERATORS[op](actual, expected), f"actual {actual!r}"

    def _term_live_nodes(self) -> int:
        return len(self.net.live_ids())

    def _term_replicas(self, name: str) -> int:
        return store.replica_count(self.net, name)

    def _term_entries(self, node: str) -> int:
        return len(self.net.node(self.names[node]).store.entries)

    def _term_root(self, name: str) -> str:
        return self.net.nodes[ring_root(self.net.live_ids(), derive_key(name))].name


def run_scenario(path: str, seed: Optional[int] = None,
                 random_ids: bool = False) -> RunResult:
    """Parse and execute a scenario file. `seed` overrides the file's own
    seed directive; raises ScenarioParseError for anything wrong with the
    file, returns a RunResult for everything that happens at run time."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    scenario = parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
    effective = seed if seed is not None else (scenario.seed or 0)
    return ScenarioRunner(scenario, seed=effective, random_ids=random_ids).run()
