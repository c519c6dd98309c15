"""Inputs the benchmark generates and the answers it checks the program against.

Nothing here imports peerdeploy: keys, ring distance, roots, payload bytes and
install closures are computed from their definitions, so a fault in the
program cannot hide behind a shared helper.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random

RING = 1 << 128


def key_of(name: str) -> int:
    """A component key: the first 128 bits of SHA-1 over the UTF-8 name."""
    return int.from_bytes(hashlib.sha1(name.encode("utf-8")).digest()[:16], "big")


def ring_distance(a: int, b: int) -> int:
    d = (a - b) % RING
    return min(d, RING - d)


def closest_live(live: list[int], key: int) -> int:
    """The id in the sorted list `live` nearest to key on the ring; ties go to
    the smaller id. Only the two ids around key's place can be nearest."""
    at = bisect.bisect_left(live, key)
    around = {live[(at - 1) % len(live)], live[at % len(live)]}
    return min(around, key=lambda node: (ring_distance(node, key), node))


def payload_bytes(seed: int, name: str) -> bytes:
    """Bundle content, 256 to 1279 bytes drawn from (seed, name)."""
    rng = random.Random(f"{seed}/{name}")
    return rng.randbytes(256 + rng.randrange(1024))


class Expected:
    """The bytes and md5 the benchmark generated for each bundle it publishes."""

    def __init__(self, seed: int):
        self.seed = seed
        self.data: dict[str, bytes] = {}
        self.md5: dict[str, str] = {}

    def make(self, name: str) -> bytes:
        data = payload_bytes(self.seed, name)
        self.data[name] = data
        self.md5[name] = hashlib.md5(data).hexdigest()
        return data

    def matches(self, name: str, data: bytes) -> bool:
        return data == self.data[name] and hashlib.md5(data).hexdigest() == self.md5[name]


class Zipf:
    """Rank sampler with weight 1 / rank**exponent over ranks 0..n-1."""

    def __init__(self, n: int, exponent: float):
        self.cumulative = list(itertools.accumulate(
            1.0 / (rank ** exponent) for rank in range(1, n + 1)))

    def draw(self, rng: random.Random) -> int:
        total = self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, rng.random() * total),
                   len(self.cumulative) - 1)


# --------------------------------------------------------------------------
# bundle catalogue for the repository workload


class Catalog:
    """A layered import graph with a few two-bundle cycles.

    Bundle `L<layer>b<i>.jar` exports the one package `p.L<layer>b<i>` and
    imports two or three packages from the two layers below; each cycle pair
    in a layer also imports the partner's package. Every package has exactly
    one exporter, so the closure of a bundle is fixed by the graph alone. The
    top layer holds the apps that get installed.

    The shape of the graph is the same for every seed, so that installing
    every app costs the same number of fetches; `rng` decides which name
    takes which place in it, and with the names the keys and their roots.
    """

    def __init__(self, rng: random.Random, layers: int, per_layer: int, cycles: int):
        shape = random.Random("catalog")
        self.layers: list[list[str]] = []
        self.imports: dict[str, list[str]] = {}
        self.exporter: dict[str, str] = {}
        for layer in range(layers):
            names = [f"L{layer}b{i}.jar" for i in range(per_layer)]
            rng.shuffle(names)
            for name in names:
                self.exporter[package_of(name)] = name
                below = [b for lower in self.layers[-2:] for b in lower]
                picks = shape.sample(below, min(len(below), shape.choice((2, 3))))
                self.imports[name] = [package_of(b) for b in picks]
            self.layers.append(names)
        for _ in range(cycles):
            a, b = shape.sample(self.layers[shape.randrange(1, layers - 1)], 2)
            if package_of(b) not in self.imports[a]:
                self.imports[a].append(package_of(b))
            if package_of(a) not in self.imports[b]:
                self.imports[b].append(package_of(a))

    @property
    def bundles(self) -> list[str]:
        return [name for layer in self.layers for name in layer]

    @property
    def apps(self) -> list[str]:
        return self.layers[-1]

    def providers(self, name: str) -> set[str]:
        return {self.exporter[p] for p in self.imports[name]} - {name}

    def closure(self, name: str) -> set[str]:
        seen = {name}
        stack = [name]
        while stack:
            for provider in self.providers(stack.pop()):
                if provider not in seen:
                    seen.add(provider)
                    stack.append(provider)
        return seen

    def check_order(self, name: str, groups: list[tuple[str, ...]]) -> str | None:
        """None when `groups` installs exactly the closure of `name`, each
        mutually importing set together, every provider before its
        dependents; otherwise what is wrong."""
        closure = self.closure(name)
        flat = [member for group in groups for member in group]
        if sorted(flat) != sorted(closure):
            return f"closure of {name} differs: got {len(flat)}, want {len(closure)}"
        reach = {member: self.closure(member) for member in closure}
        position = {}
        for index, group in enumerate(groups):
            for member in group:
                cycle = {m for m in closure if m in reach[member] and member in reach[m]}
                if cycle != set(group):
                    return f"{member} grouped with {sorted(group)}, cycle is {sorted(cycle)}"
                position[member] = index
        for member in closure:
            for provider in self.providers(member):
                if position[provider] > position[member]:
                    return f"{provider} installed after its dependent {member}"
        return None


def package_of(bundle: str) -> str:
    return "p." + bundle.removesuffix(".jar")
