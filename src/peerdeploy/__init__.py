"""Peer-to-peer component deployment on a simulated structured overlay.

Nodes form a prefix-routed ring, components are published under hashed
names with a trail of back-pointers, and a repository layer resolves
p2p:// URIs into installable dependency closures. Everything runs inside
a deterministic discrete-event simulation driven by scenario files.
"""

from .overlay import join, leave, route
from .scenario import build_network
from .simnet import serialize_metrics
from .store import lookup, publish, remove, replica_count
