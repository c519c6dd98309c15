"""Repository layer: URIs, descriptors, index files, resolution, lifecycle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from peerdeploy import build_network, publish, remove
from peerdeploy.errors import (
    IndexParseError,
    InstallError,
    IntegrityError,
    LifecycleError,
    MalformedUriError,
    UnknownBundleError,
    UnresolvableError,
    UnsupportedUriError,
    VersionConflictError,
)
from peerdeploy.repo import (
    ComponentDescriptor,
    GatewayState,
    RepositoryIndex,
    describe_payload,
    install,
    parse_index,
    parse_uri,
    publish_local,
    resolve,
    start,
    stop,
    uninstall,
    version_key,
    LifecycleState,
)
from peerdeploy.store import ComponentPayload
from oracles import check_resolution, serialize_index


def payload_of(text: str) -> ComponentPayload:
    return ComponentPayload.from_bytes(text.encode() * 30)


def desc(name, version="1.0", imports=(), exports=(), payload=None):
    payload = payload or payload_of(name)
    return ComponentDescriptor(
        name=name, version=version, digest=payload.digest, size=payload.size,
        imports=tuple(imports), exports=tuple(exports))


# -- URIs


def test_p2p_uri_round_trip():
    for name in ("log.jar", "a", "x-y_z.0.jar", "ünïcode.jar"):
        assert parse_uri(f"p2p://{name}") == ("p2p", name)


@given(st.text(min_size=1, max_size=40).filter(
    lambda s: "/" not in s and "://" not in s and not s.isspace()))
def test_p2p_uri_round_trip_property(name):
    assert parse_uri(f"p2p://{name}") == ("p2p", name)


def test_other_schemes_pass_through():
    assert parse_uri("http://example.org/x.jar") == ("http", "example.org/x.jar")
    # exact-case scheme match only
    assert parse_uri("P2P://x.jar") == ("P2P", "x.jar")


@pytest.mark.parametrize("bad", [
    "p2p://", "p2p://a/b", "no-scheme-at-all", "://x", "p2p:/x", "",
])
def test_malformed_uris_rejected(bad):
    with pytest.raises(MalformedUriError):
        parse_uri(bad)


# -- descriptors


def test_descriptor_validation():
    payload = payload_of("v")
    good = describe_payload("v.jar", payload)
    assert good.digest == payload.digest
    assert good.size == payload.size
    assert good.source_uri == "p2p://v.jar"
    for field, bad in [("name", ""), ("name", "a/b"), ("name", "a\nb"),
                       ("version", "1.a"), ("version", "1.0\n"),
                       ("digest", "zz"), ("digest", payload.digest + "\n"),
                       ("size", -1)]:
        values = dict(name="x", version="1.0", digest=payload.digest, size=1)
        values[field] = bad
        with pytest.raises(IndexParseError) as err:
            ComponentDescriptor(**values)
        assert (err.value.field, err.value.line) == (field, None), (field, bad)


def test_version_ordering():
    assert version_key("2.0") > version_key("1.9.9")
    assert version_key("1.10") > version_key("1.9")
    assert version_key("1.0.0") > version_key("1.0")


# -- index serialization


def test_index_round_trip_preserves_everything():
    originals = [desc("b.jar", "2.1", imports=("util",), exports=("b",)),
                 desc("a.jar", "1.0", exports=("util", "extra"))]
    back = parse_index(serialize_index(originals))
    assert [back.get(d.name) for d in originals] == originals
    assert back._by_name.keys() == {"a.jar", "b.jar"}


def test_index_serialization_is_stable():
    # parse_index reads back the test helper's text, field for field.
    originals = [desc("z.jar"), desc("a.jar")]
    text = serialize_index(originals)
    index = parse_index(text)
    assert serialize_index(index.get(d.name) for d in originals) == text
    assert serialize_index([]) == "# generated_at: 0\n"
    # records come out name-sorted, each with the full fixed field order
    assert text.index("name: a.jar") < text.index("name: z.jar")
    for field in ("name:", "version:", "digest:", "size:", "start:",
                  "imports:", "exports:", "uri:"):
        assert field in text


def test_index_add_conflicts_on_different_digest():
    index = RepositoryIndex()
    index.add(desc("c.jar"))
    index.add(desc("c.jar"))  # identical upsert is fine
    with pytest.raises(VersionConflictError):
        index.add(desc("c.jar", payload=payload_of("different")))


def test_parse_index_empty_and_comments():
    # A `generated_at` line is a comment like any other, whatever follows it.
    for text in ("", "# generated_at: 3\n", "# generated_at: \u00b2\n# more\n",
                 "# generated_at: 3"):  # the last one has no newline at its end
        assert parse_index(text)._by_name == {}


def test_parse_index_reports_line_and_field():
    text = serialize_index([desc("t.jar", imports=("x",))])
    # truncate in the middle of the record
    cut = text.split("\n")
    truncated = "\n".join(cut[:5])
    with pytest.raises(IndexParseError) as err:
        parse_index(truncated)
    assert err.value.line is not None
    assert err.value.field is not None
    # a truncated file never yields a partial index
    try:
        parse_index(truncated)
    except IndexParseError:
        pass


def test_parse_index_rejects_out_of_order_fields():
    lines = serialize_index([desc("o.jar")]).split("\n")
    record_start = next(i for i, line in enumerate(lines) if line.startswith("name:"))
    lines[record_start], lines[record_start + 1] = lines[record_start + 1], lines[record_start]
    with pytest.raises(IndexParseError) as err:
        parse_index("\n".join(lines))
    # the diagnostic names the misplaced key and its own line
    assert (err.value.field, err.value.line) == ("version", record_start + 1)


@pytest.mark.parametrize("field, bad", [
    ("name", "a/b"), ("version", "1.x"), ("digest", "ab"), ("size", "-3"),
    ("imports", "a,,b"), ("exports", "a,"), ("uri", "p2p://a/b"),
])
def test_parse_index_names_the_line_of_a_bad_descriptor(field, bad):
    lines = serialize_index([desc("first.jar"), desc("second.jar")]).split("\n")
    spoiled = max(i for i, line in enumerate(lines) if line.startswith(f"{field}: "))
    lines[spoiled] = f"{field}: {bad}"
    with pytest.raises(IndexParseError) as err:
        parse_index("\n".join(lines))
    assert err.value.field == field
    assert err.value.line == spoiled + 1  # the spoiled field's own line


def test_parse_index_rejects_duplicate_names():
    text = serialize_index([desc("d.jar")])
    record = text.split("\n\n", 1)[1]
    with pytest.raises(IndexParseError) as err:
        parse_index(text + "\n" + record)
    # the second record's name line
    assert (err.value.field, err.value.line) == ("name", text.count("\n") + 2)


# -- resolution


def make_index(*descriptors) -> RepositoryIndex:
    index = RepositoryIndex()
    for d in descriptors:
        index.add(d)
    return index


def test_resolve_linear_chain_orders_providers_first():
    descriptors = [
        desc("app.jar", imports=("svc",)),
        desc("svc.jar", imports=("util",), exports=("svc",)),
        desc("util.jar", exports=("util",)),
    ]
    groups = resolve(make_index(*descriptors), "app.jar")
    order = [m for g in groups for m in g.members]
    assert order.index("util.jar") < order.index("svc.jar") < order.index("app.jar")
    assert all(not g.cycle for g in groups)
    assert not check_resolution(
        {d.name: d for d in descriptors}, "app.jar", groups)


def test_resolve_prefers_highest_version_then_name():
    index = make_index(
        desc("app.jar", imports=("svc",)),
        desc("old-svc.jar", "1.0", exports=("svc",)),
        desc("new-svc.jar", "2.0", exports=("svc",)),
    )
    order = [m for g in resolve(index, "app.jar") for m in g.members]
    assert "new-svc.jar" in order and "old-svc.jar" not in order

    tie = make_index(
        desc("app.jar", imports=("svc",)),
        desc("bbb.jar", "1.0", exports=("svc",)),
        desc("aaa.jar", "1.0", exports=("svc",)),
    )
    order = [m for g in resolve(tie, "app.jar") for m in g.members]
    assert "aaa.jar" in order and "bbb.jar" not in order


def test_resolve_cycle_becomes_single_group():
    descriptors = [
        desc("a.jar", imports=("b",), exports=("a",)),
        desc("b.jar", imports=("a",), exports=("b",)),
        desc("top.jar", imports=("a",)),
    ]
    groups = resolve(make_index(*descriptors), "top.jar")
    cycle_groups = [g for g in groups if g.cycle]
    assert len(cycle_groups) == 1
    assert set(cycle_groups[0].members) == {"a.jar", "b.jar"}
    assert not check_resolution(
        {d.name: d for d in descriptors}, "top.jar", groups)


def test_resolve_self_export_satisfies_own_import():
    index = make_index(desc("self.jar", imports=("me",), exports=("me",)))
    groups = resolve(index, "self.jar")
    assert len(groups) == 1
    assert groups[0].members == ("self.jar",)
    assert groups[0].cycle is False


def test_resolve_missing_provider_names_package():
    index = make_index(desc("lonely.jar", imports=("ghost",)))
    with pytest.raises(UnresolvableError) as err:
        resolve(index, "lonely.jar")
    assert err.value.package == "ghost"


def test_resolve_unknown_bundle():
    with pytest.raises(UnknownBundleError):
        resolve(RepositoryIndex(), "nope.jar")


def test_resolve_random_graphs_against_checker():
    rng = random.Random(9)
    for trial in range(60):
        count = rng.randrange(2, 14)
        descriptors = {}
        for i in range(count):
            exports = (f"pkg{i}",)
            imports = tuple({f"pkg{rng.randrange(count)}"
                             for _ in range(rng.randrange(0, 3))})
            descriptors[f"b{i}.jar"] = desc(f"b{i}.jar", imports=imports,
                                            exports=exports)
        index = make_index(*descriptors.values())
        requested = f"b{rng.randrange(count)}.jar"
        groups = resolve(index, requested)
        emitted = {m for g in groups for m in g.members}
        problems = check_resolution(
            {n: descriptors[n] for n in emitted}, requested, groups)
        assert not problems, f"trial {trial}: {problems}"
        assert_smallest_ready_group_first(descriptors, groups)


def assert_smallest_ready_group_first(descriptors, groups):
    """Each group is, of the groups whose providers are all emitted, the one
    holding the smallest name. Every package here has a single exporter."""
    exporter = {p: name for name, d in descriptors.items() for p in d.exports}
    group_of = {m: g.members for g in groups for m in g.members}
    needs = {g.members: {group_of[exporter[p]] for m in g.members
                         for p in descriptors[m].imports} - {g.members}
             for g in groups}
    emitted = set()
    for group in groups:
        ready = [g for g, wants in needs.items() if g not in emitted and wants <= emitted]
        assert group.members == min(ready, key=min), (group.members, ready)
        emitted.add(group.members)


def test_resolve_is_deterministic():
    index = make_index(
        desc("a.jar", imports=("b", "c")),
        desc("b.jar", exports=("b",), imports=("c",)),
        desc("c.jar", exports=("c",)),
    )
    runs = {tuple(tuple(g.members) for g in resolve(index, "a.jar"))
            for _ in range(10)}
    assert len(runs) == 1


def members(groups):
    return [m for g in groups for m in g.members]


def test_resolve_sees_an_exporter_added_after_it():
    index = make_index(desc("app.jar", imports=("svc",)),
                       desc("svc-a.jar", version="1.0", exports=("svc",)))
    assert members(resolve(index, "app.jar")) == ["svc-a.jar", "app.jar"]
    index.add(desc("svc-b.jar", version="2.0", exports=("svc",)))
    assert members(resolve(index, "app.jar")) == ["svc-b.jar", "app.jar"]


def test_resolve_returns_a_list_the_caller_may_change():
    index = make_index(desc("app.jar", imports=("svc",)), desc("svc.jar", exports=("svc",)))
    expected = list(resolve(index, "app.jar"))
    for _ in range(2):  # the first call computes the order, the second finds it
        returned = resolve(index, "app.jar")
        assert returned == expected
        returned.reverse()
        returned.append(returned[0])
    assert resolve(index, "app.jar") == expected


def test_resolve_raises_again_on_a_repeated_call():
    index = make_index(desc("lonely.jar", imports=("ghost",)))
    for _ in range(2):
        with pytest.raises(UnknownBundleError):
            resolve(index, "nope.jar")
        with pytest.raises(UnresolvableError):
            resolve(index, "lonely.jar")


# -- install and lifecycle over the network


def setup_net_with_bundles(*descriptors_payloads, seed=20, size=16):
    net, names = build_network(size, seed=seed)
    index = RepositoryIndex()
    publisher = GatewayState(names["n0"], index=index)
    for descriptor, payload in descriptors_payloads:
        publish_local(publisher, net, descriptor, payload)
    client = GatewayState(names[f"n{size - 1}"], index=index)
    return net, names, index, client


def test_install_dependency_closure_and_lifecycle():
    util_payload = payload_of("util")
    app_payload = payload_of("app")
    net, names, index, client = setup_net_with_bundles(
        (desc("util.jar", exports=("util",), payload=util_payload), util_payload),
        (desc("app.jar", imports=("util",), payload=app_payload), app_payload),
    )
    report = install(client, net, "p2p://app.jar")
    assert set(report.installed) == {"util.jar", "app.jar"}
    assert client.state_of("app.jar") is LifecycleState.INSTALLED

    assert start(client, "util.jar") is LifecycleState.ACTIVE
    assert start(client, "app.jar") is LifecycleState.ACTIVE
    with pytest.raises(LifecycleError):
        uninstall(client, "util.jar")  # still ACTIVE itself
    stop(client, "app.jar")
    uninstall(client, "app.jar")  # stopped and nothing depends on it
    stop(client, "util.jar")
    uninstall(client, "util.jar")
    assert client.state_of("app.jar") is None
    assert client.state_of("util.jar") is None


def test_install_is_bit_identical():
    blob = bytes(random.Random(3).randrange(256) for _ in range(2048))
    payload = ComponentPayload.from_bytes(blob)
    net, names, index, client = setup_net_with_bundles(
        (desc("bits.jar", payload=payload), payload))
    install(client, net, "p2p://bits.jar")
    assert client.artifacts["bits.jar"].data == blob


def test_install_skips_already_installed():
    payload = payload_of("twice")
    net, names, index, client = setup_net_with_bundles(
        (desc("twice.jar", payload=payload), payload))
    install(client, net, "p2p://twice.jar")
    report = install(client, net, "p2p://twice.jar")
    assert report.installed == []
    assert "twice.jar" in report.skipped


def test_install_rejects_a_payload_its_descriptor_does_not_promise():
    net, names = build_network(16, seed=20)
    publish(net, names["n0"], "swap.jar", payload_of("served"))
    index = RepositoryIndex()
    index.add(desc("swap.jar", payload=payload_of("promised")))
    client = GatewayState(names["n15"], index=index)
    with pytest.raises(IntegrityError, match="descriptor promises"):
        install(client, net, "p2p://swap.jar")
    assert client.state_of("swap.jar") is None


def test_install_rejects_passthrough_and_malformed():
    net, names, index, client = setup_net_with_bundles()
    with pytest.raises(UnsupportedUriError):
        install(client, net, "http://elsewhere/x.jar")
    with pytest.raises(MalformedUriError):
        install(client, net, "p2p://a/b")


def test_install_aborts_naming_failed_dependency():
    util_payload = payload_of("util2")
    app_payload = payload_of("app2")
    net, names, index, client = setup_net_with_bundles(
        (desc("util2.jar", exports=("u2",), payload=util_payload), util_payload),
        (desc("app2.jar", imports=("u2",), payload=app_payload), app_payload),
    )
    # make the dependency unavailable in the store while staying in the index
    remove(net, names["n0"], "util2.jar")
    ttl = net.nodes[net.live_ids()[0]].store.config.ttl
    net.advance(ttl * 2)
    with pytest.raises(InstallError) as err:
        install(client, net, "p2p://app2.jar")
    assert err.value.failed_dependency == "util2.jar"
    assert client.state_of("app2.jar") is None


def test_lifecycle_illegal_transitions():
    payload = payload_of("lc")
    net, names, index, client = setup_net_with_bundles(
        (desc("lc.jar", payload=payload), payload))
    with pytest.raises(LifecycleError):
        start(client, "lc.jar")  # not installed yet
    with pytest.raises(LifecycleError):
        stop(client, "lc.jar")
    with pytest.raises(LifecycleError):
        uninstall(client, "lc.jar")
    install(client, net, "p2p://lc.jar")
    with pytest.raises(LifecycleError):
        stop(client, "lc.jar")  # installed but not active
    start(client, "lc.jar")
    with pytest.raises(LifecycleError):
        start(client, "lc.jar")  # already active
    with pytest.raises(LifecycleError):
        uninstall(client, "lc.jar")  # active bundles cannot be uninstalled
    stop(client, "lc.jar")
    uninstall(client, "lc.jar")


def test_start_requires_satisfied_imports():
    payload = payload_of("needy")
    net, names, index, client = setup_net_with_bundles()
    # place the artifact directly to isolate start() from resolve()
    index.add(desc("needy.jar", imports=("missing-at-runtime",), payload=payload))
    client.installed["needy.jar"] = LifecycleState.INSTALLED
    client.artifacts["needy.jar"] = payload
    with pytest.raises(LifecycleError):
        start(client, "needy.jar")


def test_start_refuses_a_bundle_the_index_does_not_describe():
    gw = GatewayState(0, index=RepositoryIndex())
    gw.installed["ghost.jar"] = LifecycleState.INSTALLED
    with pytest.raises(LifecycleError, match="has no descriptor"):
        start(gw, "ghost.jar")
    assert gw.state_of("ghost.jar") is LifecycleState.INSTALLED


def test_uninstall_refuses_while_active_importer_remains():
    lib_payload = payload_of("lib")
    use_payload = payload_of("use")
    net, names, index, client = setup_net_with_bundles(
        (desc("lib.jar", exports=("lib",), payload=lib_payload), lib_payload),
        (desc("use.jar", imports=("lib",), payload=use_payload), use_payload),
    )
    install(client, net, "p2p://use.jar")
    start(client, "lib.jar")
    start(client, "use.jar")
    stop(client, "lib.jar")
    with pytest.raises(LifecycleError):
        uninstall(client, "lib.jar")  # use.jar is ACTIVE and imports lib
    stop(client, "use.jar")
    uninstall(client, "lib.jar")


def test_import_rule_counts_every_installed_exporter():
    gw = GatewayState(0, index=make_index(
        desc("self.jar", imports=("own",), exports=("own",)),
        desc("lib.jar", exports=("lib",)),
        desc("twin.jar", exports=("lib",)),
        desc("use.jar", imports=("lib",)),
        desc("both.jar", imports=("lib",), exports=("lib",)),
    ))
    for name in ("self.jar", "lib.jar", "twin.jar", "use.jar"):
        gw.installed[name] = LifecycleState.INSTALLED
    start(gw, "self.jar")  # its own export satisfies its import
    start(gw, "use.jar")
    uninstall(gw, "twin.jar")  # lib.jar still exports lib
    with pytest.raises(LifecycleError, match="ACTIVE bundle 'use.jar' imports 'lib'"):
        uninstall(gw, "lib.jar")  # the last exporter of lib
    stop(gw, "use.jar")
    gw.installed["both.jar"] = LifecycleState.INSTALLED
    start(gw, "both.jar")
    uninstall(gw, "lib.jar")  # both.jar exports lib itself
    stop(gw, "both.jar")
    uninstall(gw, "both.jar")
    with pytest.raises(LifecycleError, match="import 'lib' is unsatisfied"):
        start(gw, "use.jar")


def test_publish_local_digest_mismatch():
    payload = payload_of("real")
    lying = desc("lie.jar", payload=payload_of("other"))
    net, names = build_network(4, seed=25)
    gw = GatewayState(names["n0"], index=RepositoryIndex())
    with pytest.raises(IntegrityError):
        publish_local(gw, net, lying, payload)


def test_publish_local_rejects_bytes_that_do_not_match_their_own_digest():
    # The descriptor agrees with the digest the payload claims, so only the
    # store's check of the bytes can catch it, and before any message is sent.
    claimed = payload_of("claimed")
    tampered = ComponentPayload(b"x" * claimed.size, claimed.digest, claimed.size)
    net, names = build_network(4, seed=25)
    index = RepositoryIndex()
    gw = GatewayState(names["n0"], index=index)
    sent = dict(net.metrics.sent)
    with pytest.raises(IntegrityError):
        publish_local(gw, net, desc("tampered.jar", payload=claimed), tampered)
    assert net.metrics.sent == sent
    assert index.get("tampered.jar") is None


def test_publish_local_index_conflict():
    payload = payload_of("one")
    net, names = build_network(4, seed=26)
    gw = GatewayState(names["n0"], index=RepositoryIndex())
    publish_local(gw, net, desc("c.jar", payload=payload), payload)
    other = payload_of("two")
    with pytest.raises(VersionConflictError):
        publish_local(gw, net, desc("c.jar", payload=other), other)


def test_publish_local_checks_the_index_its_gateways_share():
    # The runner's gateways share one index, so one gateway's entry stops
    # another from publishing different bytes under that name, before any
    # message is sent.
    payload = payload_of("one")
    net, names = build_network(4, seed=26)
    index = RepositoryIndex()
    first, second = (GatewayState(names[n], index=index) for n in ("n0", "n1"))
    publish_local(first, net, desc("c.jar", payload=payload), payload)
    sent, published = dict(net.metrics.sent), net.metrics.op_counts["publish"]
    other = payload_of("two")
    with pytest.raises(VersionConflictError, match="index already lists"):
        publish_local(second, net, desc("c.jar", payload=other), other)
    assert net.metrics.sent == sent
    assert net.metrics.op_counts["publish"] == published
    publish_local(second, net, desc("c.jar", payload=payload), payload)


def test_publish_local_sets_source_uri():
    payload = payload_of("uri")
    net, names = build_network(4, seed=27)
    index = RepositoryIndex()
    gw = GatewayState(names["n0"], index=index)
    publish_local(gw, net, desc("uri.jar", payload=payload), payload)
    assert index.get("uri.jar").source_uri == "p2p://uri.jar"
