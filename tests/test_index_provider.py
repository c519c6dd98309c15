"""Provider choice in the repository index: kept per package, never by
re-reading the whole index."""

import pytest

from peerdeploy.errors import UnresolvableError
from peerdeploy.repo import ComponentDescriptor, RepositoryIndex, resolve
from peerdeploy.store import ComponentPayload


def desc(name, version="1.0", imports=(), exports=()):
    payload = ComponentPayload.from_bytes(name.encode() * 30)
    return ComponentDescriptor(name=name, version=version, digest=payload.digest,
                               size=payload.size, imports=imports, exports=exports)


def index_of(*descriptors) -> RepositoryIndex:
    index = RepositoryIndex()
    for descriptor in descriptors:
        index.add(descriptor)
    return index


def test_a_replaced_descriptor_no_longer_provides_its_old_exports():
    index = index_of(desc("app.jar", imports=("svc",)), desc("svc.jar", exports=("svc",)))
    assert [m for g in resolve(index, "app.jar") for m in g.members] == ["svc.jar", "app.jar"]
    index.add(desc("svc.jar", exports=("other",)))
    with pytest.raises(UnresolvableError):
        resolve(index, "app.jar")


def test_resolve_of_a_long_chain_never_lists_the_index():
    # b{i} imports the packages of the next three bundles: 2,994 imports.
    count = 1000
    index = index_of(*(
        desc(f"b{i:04d}.jar", imports=tuple(f"p{j}" for j in range(i + 1, min(i + 4, count))),
             exports=(f"p{i}",))
        for i in range(count)))
    # The index has no method that lists it, so resolve cannot.
    assert not hasattr(index, "entries") and not hasattr(index, "__iter__")
    groups = resolve(index, "b0000.jar")
    assert [g.members[0] for g in groups] == [f"b{i:04d}.jar" for i in reversed(range(count))]
