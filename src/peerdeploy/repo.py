"""Repository layer: p2p:// URIs, bundle descriptors, dependency resolution,
and the per-gateway lifecycle over the distributed component store.

A gateway is one overlay node plus a local RepositoryIndex describing the
bundles it may install. Installing "p2p://x.jar" resolves x.jar's import
closure against the index, fetches every missing bundle through the store,
and verifies each payload against the digest its descriptor promised.
"""

from __future__ import annotations

import dataclasses
import heapq
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from . import store as _store
from .errors import (
    IndexParseError,
    InstallError,
    IntegrityError,
    LifecycleError,
    LookupFailedError,
    MalformedUriError,
    NotFoundError,
    UnavailableError,
    UnknownBundleError,
    UnresolvableError,
    UnsupportedUriError,
    VersionConflictError,
)
from .simnet import SimNetwork
from .store import ComponentPayload, PublishTrail


# --------------------------------------------------------------------------
# URIs


def parse_uri(text: str) -> tuple[str, str]:
    """Split `scheme://rest`. Any scheme passes; a p2p rest is one bundle name."""
    scheme, sep, rest = text.partition("://")
    if not sep or not scheme:
        raise MalformedUriError(f"not a scheme://name reference: {text!r}")
    if scheme == "p2p" and not rest:
        raise MalformedUriError("p2p URI with an empty bundle name")
    if scheme == "p2p" and "/" in rest:
        raise MalformedUriError(f"bundle name may not contain '/': {rest!r}")
    return scheme, rest


# --------------------------------------------------------------------------
# descriptors and the index

_DIGEST_RE = re.compile(r"[0-9a-f]{32}")
_VERSION_RE = re.compile(r"\d+(\.\d+)*")


# A version's sort key; ComponentDescriptor has checked that it is dotted numeric.
def version_key(version: str) -> tuple[int, ...]:
    return tuple(int(part) for part in version.split("."))


@dataclass(frozen=True)
class ComponentDescriptor:
    """One bundle's metadata; the one check of its fields, naming the field it rejects."""

    name: str
    version: str
    digest: str
    size: int
    start_entry: Optional[str] = None
    imports: tuple[str, ...] = ()
    exports: tuple[str, ...] = ()
    source_uri: str = ""

    def __post_init__(self):
        if not self.name or "/" in self.name or "\n" in self.name:
            raise IndexParseError(f"bad bundle name {self.name!r}", field="name")
        if not _VERSION_RE.fullmatch(self.version):
            raise IndexParseError("version must be dotted numeric", field="version")
        if not _DIGEST_RE.fullmatch(self.digest):
            raise IndexParseError("digest must be 32 lowercase hex digits", field="digest")
        if self.size < 0:
            raise IndexParseError("size must be a non-negative integer", field="size")
        object.__setattr__(self, "imports", tuple(self.imports))
        object.__setattr__(self, "exports", tuple(self.exports))


def describe_payload(name: str, payload: ComponentPayload) -> ComponentDescriptor:
    """Descriptor of version 1.0, with no imports, exports or start entry, for
    a payload about to be published from this process."""
    return ComponentDescriptor(name=name, version="1.0", digest=payload.digest,
                               size=payload.size, source_uri=f"p2p://{name}")


class RepositoryIndex:
    """Named bundle descriptors, one entry per name, and the names exporting each package.

    `provider` and `resolve` answers are memoized here; `add`, the only
    writer, clears both memos.
    """

    def __init__(self):
        self._by_name: dict[str, ComponentDescriptor] = {}
        self._exporters: dict[str, set[str]] = {}
        self._providers: dict[str, Optional[ComponentDescriptor]] = {}
        self._resolved: dict[str, list[InstallGroup]] = {}

    def add(self, descriptor: ComponentDescriptor) -> None:
        self._providers.clear()
        self._resolved.clear()
        existing = self._by_name.get(descriptor.name)
        if existing is not None:
            if existing.digest != descriptor.digest:
                raise VersionConflictError(
                    f"index already lists {descriptor.name!r} with different content")
            for package in existing.exports:
                self._exporters[package].discard(existing.name)
        self._by_name[descriptor.name] = descriptor
        for package in descriptor.exports:
            self._exporters.setdefault(package, set()).add(descriptor.name)

    def get(self, name: str) -> Optional[ComponentDescriptor]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def provider(self, package: str) -> Optional[ComponentDescriptor]:
        """The exporter of `package` with the highest version, then the smallest name."""
        memo = self._providers
        if package not in memo:
            memo[package] = min(
                (self._by_name[name] for name in self._exporters.get(package, ())),
                key=lambda d: (tuple(-part for part in version_key(d.version)), d.name),
                default=None)
        return memo[package]


# --------------------------------------------------------------------------
# descriptor file format

INDEX_FIELDS = ("name", "version", "digest", "size", "start", "imports", "exports", "uri")


def _parse_packages(value: str, field: str) -> tuple[str, ...]:
    parts = value.split(",") if value else []
    if "" in parts:
        raise IndexParseError(f"empty package name in {field} list", field=field)
    return tuple(parts)


def _parse_count(value: str, lineno: int, field: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise IndexParseError(f"{field} must be a non-negative integer",
                              line=lineno, field=field)
    return int(value)


def parse_index(text: str) -> RepositoryIndex:
    """Strict parser: all eight keys, fixed order, or a diagnostic error.

    Truncated or reordered files never yield a partial index. Record values
    are ComponentDescriptor's to check; an error about a value gets the line
    of the field it names.
    """
    lines = text.split("\n")
    pos = 0
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1

    index = RepositoryIndex()
    while True:
        while pos < len(lines) and not lines[pos]:
            pos += 1
        if pos >= len(lines):
            return index
        values: dict[str, str] = {}
        line_of: dict[str, int] = {}
        for field in INDEX_FIELDS:
            if pos >= len(lines) or not lines[pos]:
                raise IndexParseError(f"record truncated before {field!r}",
                                      line=pos + 1, field=field)
            key, sep, value = lines[pos].partition(":")
            if not sep or value[:1] not in ("", " "):
                raise IndexParseError(f"expected 'key: value', got {lines[pos]!r}",
                                      line=pos + 1, field=field)
            if key != field:
                if key in INDEX_FIELDS:
                    raise IndexParseError(f"field {key!r} out of order, expected {field!r}",
                                          line=pos + 1, field=key)
                raise IndexParseError(f"unknown key {key!r}", line=pos + 1, field=key)
            values[field] = value[1:]
            pos += 1
            line_of[field] = pos
        # uri is blank until the bundle has been published somewhere
        if values["uri"]:
            try:
                parse_uri(values["uri"])
            except MalformedUriError as exc:
                raise IndexParseError(str(exc), line=line_of["uri"], field="uri") from exc
        try:
            descriptor = ComponentDescriptor(
                name=values["name"],
                version=values["version"],
                digest=values["digest"],
                size=_parse_count(values["size"], line_of["size"], "size"),
                start_entry=values["start"] or None,
                imports=_parse_packages(values["imports"], "imports"),
                exports=_parse_packages(values["exports"], "exports"),
                source_uri=values["uri"],
            )
        except IndexParseError as exc:
            exc.line = line_of[exc.field]
            raise
        if descriptor.name in index:
            raise IndexParseError(f"duplicate record for {descriptor.name!r}",
                                  line=line_of["name"], field="name")
        index.add(descriptor)


def load_index(path: str) -> RepositoryIndex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_index(fh.read())
        except UnicodeDecodeError as exc:
            raise IndexParseError(f"not UTF-8 text ({exc})") from exc


# --------------------------------------------------------------------------
# dependency resolution


@dataclass(frozen=True)
class InstallGroup:
    members: tuple[str, ...]
    cycle: bool


def resolve(index: RepositoryIndex, name: str) -> list[InstallGroup]:
    """Dependency-closed install order for one bundle.

    Providers come before dependents; mutually importing bundles come out
    together as one cycle group. Provider choice and ordering are both
    deterministic so resolve() replays identically. The index memoizes each
    order; every call returns a list of its own, and errors are not kept.
    """
    memo = index._resolved
    if name in memo:
        return list(memo[name])
    if name not in index:
        raise UnknownBundleError(f"{name!r} is not in the repository index")

    providers: dict[str, set[str]] = {}
    worklist = [name]
    while worklist:
        current = worklist.pop()
        if current in providers:
            continue
        descriptor = index.get(current)
        assert descriptor is not None
        wanted: set[str] = set()
        for package in descriptor.imports:
            if package in descriptor.exports:
                continue  # self-provided
            provider = index.provider(package)
            if provider is None:
                raise UnresolvableError(
                    f"{current!r} imports {package!r} which nothing exports",
                    package=package)
            if provider.name != current:
                wanted.add(provider.name)
        providers[current] = wanted
        worklist.extend(sorted(wanted - providers.keys(), reverse=True))

    order = memo[name] = _order_groups(_condense(providers), providers)
    return list(order)


def _condense(providers: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Strongly connected components of the dependency graph, each as its
    sorted members, found with an iterative Tarjan walk (recursion depth is
    unbounded otherwise). `low` holds exactly the nodes still on the stack."""
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    work: list[tuple[str, Iterator[str]]] = []
    sccs: list[tuple[str, ...]] = []

    def visit(node: str) -> None:
        order[node] = low[node] = len(order)
        stack.append(node)
        work.append((node, iter(sorted(providers[node]))))

    for root in sorted(providers):
        if root in order:
            continue
        visit(root)
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in order:
                    visit(nxt)
                    break
                if nxt in low:
                    low[node] = min(low[node], order[nxt])
            else:
                work.pop()
                if low[node] < order[node]:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                    continue
                component = {stack.pop()}
                while node not in component:
                    component.add(stack.pop())
                for member in component:
                    del low[member]
                sccs.append(tuple(sorted(component)))
    return sccs


def _order_groups(sccs: list[tuple[str, ...]],
                  providers: dict[str, set[str]]) -> list[InstallGroup]:
    """Kahn's walk over the condensed graph: of the groups whose providers
    are all placed, the one holding the smallest name goes next. A group is
    its sorted members, so groups compare by their smallest name."""
    group_of = {member: scc for scc in sccs for member in scc}
    waiting = {scc: {group_of[p] for member in scc for p in providers[member]} - {scc}
               for scc in sccs}
    dependents: dict[tuple[str, ...], list[tuple[str, ...]]] = {scc: [] for scc in sccs}
    for group, needs in waiting.items():
        for provider in needs:
            dependents[provider].append(group)
    ready = sorted(group for group, needs in waiting.items() if not needs)
    ordered: list[InstallGroup] = []
    while ready:
        group = heapq.heappop(ready)
        ordered.append(InstallGroup(members=group, cycle=len(group) > 1))
        for dependent in dependents[group]:
            waiting[dependent].discard(group)
            if not waiting[dependent]:
                heapq.heappush(ready, dependent)
    assert len(ordered) == len(sccs)
    return ordered


# --------------------------------------------------------------------------
# gateway state and lifecycle


class LifecycleState(Enum):
    INSTALLED = "INSTALLED"
    ACTIVE = "ACTIVE"


class GatewayState:
    """Installed-bundle map for the gateway running on one overlay node."""

    def __init__(self, node_id: int, index: RepositoryIndex):
        self.node_id = node_id
        self.index = index
        self.installed: dict[str, LifecycleState] = {}
        self.artifacts: dict[str, ComponentPayload] = {}

    def state_of(self, name: str) -> Optional[LifecycleState]:
        return self.installed.get(name)

    def _exports_besides(self, excluded: str | None = None) -> set[str]:
        available: set[str] = set()
        for name in self.installed:
            if name == excluded:
                continue
            descriptor = self.index.get(name)
            if descriptor is not None:
                available.update(descriptor.exports)
        return available


@dataclass
class InstallReport:
    requested: str
    order: list[InstallGroup]
    installed: list[str]  # newly fetched and installed by this call
    skipped: list[str]  # already present


def install(gw: GatewayState, net: SimNetwork, uri_text: str) -> InstallReport:
    """Fetch and install a bundle and everything it transitively imports."""
    scheme, bundle = parse_uri(uri_text)
    if scheme != "p2p":
        raise UnsupportedUriError(f"cannot install from {scheme!r} URIs, only p2p://")
    order = resolve(gw.index, bundle)
    newly: list[str] = []
    skipped: list[str] = []
    for group in order:
        for name in group.members:
            if name in gw.installed:
                skipped.append(name)
                continue
            descriptor = gw.index.get(name)
            assert descriptor is not None
            try:
                payload, _served_by, _hops = _store.lookup(net, gw.node_id, name)
            except (NotFoundError, UnavailableError, LookupFailedError) as exc:
                raise InstallError(
                    f"installing {bundle!r} failed: dependency {name!r} "
                    f"could not be fetched ({exc})", failed_dependency=name) from exc
            if payload.digest != descriptor.digest:
                raise IntegrityError(
                    f"{name!r} arrived with digest {payload.digest}, "
                    f"descriptor promises {descriptor.digest}")
            gw.artifacts[name] = payload
            gw.installed[name] = LifecycleState.INSTALLED
            newly.append(name)
    return InstallReport(requested=bundle, order=order,
                         installed=newly, skipped=skipped)


def _state(gw: GatewayState, name: str) -> LifecycleState:
    state = gw.installed.get(name)
    if state is None:
        raise LifecycleError(f"{name!r} is not installed")
    return state


def start(gw: GatewayState, name: str) -> LifecycleState:
    if _state(gw, name) is LifecycleState.ACTIVE:
        raise LifecycleError(f"{name!r} is already ACTIVE")
    descriptor = gw.index.get(name)
    if descriptor is None:
        raise LifecycleError(f"{name!r} has no descriptor in the index")
    available = gw._exports_besides()
    for package in descriptor.imports:
        if package not in available:
            raise LifecycleError(
                f"cannot start {name!r}: import {package!r} is unsatisfied")
    gw.installed[name] = LifecycleState.ACTIVE
    return LifecycleState.ACTIVE


def stop(gw: GatewayState, name: str) -> LifecycleState:
    state = _state(gw, name)
    if state is not LifecycleState.ACTIVE:
        raise LifecycleError(f"{name!r} is {state.value}, not ACTIVE")
    gw.installed[name] = LifecycleState.INSTALLED
    return LifecycleState.INSTALLED


def uninstall(gw: GatewayState, name: str) -> None:
    """Refused while ACTIVE, or while an ACTIVE bundle imports a package only it provides."""
    if _state(gw, name) is LifecycleState.ACTIVE:
        raise LifecycleError(f"{name!r} is ACTIVE; stop it first")
    descriptor = gw.index.get(name)
    lost = set(descriptor.exports if descriptor else ()) - gw._exports_besides(name)
    for other, other_state in gw.installed.items():
        other_desc = gw.index.get(other)
        if other_state is not LifecycleState.ACTIVE or other_desc is None:
            continue
        for package in other_desc.imports:
            if package in lost:
                raise LifecycleError(
                    f"cannot uninstall {name!r}: ACTIVE bundle {other!r} "
                    f"imports {package!r} from it")
    del gw.installed[name]
    gw.artifacts.pop(name, None)


def publish_local(gw: GatewayState, net: SimNetwork,
                  descriptor: ComponentDescriptor,
                  payload: ComponentPayload) -> PublishTrail:
    """Publish a bundle from this gateway and record it in the local index."""
    # store.publish checks the bytes against payload.digest before it sends anything.
    if descriptor.digest != payload.digest:
        raise IntegrityError(
            f"descriptor for {descriptor.name!r} does not match the payload bytes")
    existing = gw.index.get(descriptor.name)
    if existing is not None and existing.digest != descriptor.digest:
        raise VersionConflictError(
            f"index already lists {descriptor.name!r} with different content")
    final = dataclasses.replace(descriptor, source_uri=f"p2p://{descriptor.name}")
    trail = _store.publish(net, gw.node_id, final.name, payload)
    gw.index.add(final)
    gw.artifacts[final.name] = payload
    return trail
