"""Peer-to-peer component deployment on a simulated structured overlay.

Nodes form a prefix-routed ring, components are published under hashed
names with a trail of back-pointers, and a repository layer resolves
p2p:// URIs into installable dependency closures. Everything runs inside
a deterministic discrete-event simulation driven by scenario files.
"""

from . import cli, overlay, repo, routing, scenario, simnet, store
from .errors import (
    IndexParseError,
    InstallError,
    IntegrityError,
    InvalidNameError,
    LifecycleError,
    LookupFailedError,
    MalformedUriError,
    NotFoundError,
    NotOwnerError,
    PeerDeployError,
    RoutingFailureError,
    ScenarioExecutionError,
    ScenarioParseError,
    UnavailableError,
    UnknownBundleError,
    UnresolvableError,
    UnsupportedUriError,
    VersionConflictError,
)
from .ids import circular_distance, derive_key, digit, root_of, shared_prefix_len, to_hex
from .overlay import JoinReport, LeaveReport, OverlayNode, join, leave, route
from .repo import (
    ComponentDescriptor,
    GatewayState,
    InstallGroup,
    LifecycleState,
    P2pUri,
    PassthroughUri,
    RepositoryIndex,
    describe_payload,
    install,
    parse_uri,
    publish_local,
    resolve,
)
from .scenario import ScenarioRunner, build_network, parse_scenario, run_scenario
from .simnet import Metrics, SimConfig, SimNetwork, serialize_metrics
from .store import (
    ComponentPayload,
    NodeStore,
    Role,
    StoreConfig,
    StoreEntry,
    content_digest,
    lookup,
    publish,
    remove,
    replica_count,
)

__version__ = "0.1.0"

__all__ = [
    "ComponentDescriptor",
    "ComponentPayload",
    "GatewayState",
    "InstallGroup",
    "JoinReport",
    "LeaveReport",
    "LifecycleState",
    "Metrics",
    "NodeStore",
    "OverlayNode",
    "P2pUri",
    "PassthroughUri",
    "PeerDeployError",
    "RepositoryIndex",
    "Role",
    "ScenarioRunner",
    "SimConfig",
    "SimNetwork",
    "StoreConfig",
    "StoreEntry",
    "build_network",
    "circular_distance",
    "content_digest",
    "derive_key",
    "describe_payload",
    "digit",
    "install",
    "join",
    "leave",
    "lookup",
    "parse_scenario",
    "parse_uri",
    "publish",
    "publish_local",
    "remove",
    "replica_count",
    "resolve",
    "root_of",
    "route",
    "run_scenario",
    "serialize_metrics",
    "shared_prefix_len",
    "to_hex",
]
