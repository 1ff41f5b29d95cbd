"""Seeded rule-file generators for the benchmark workloads.

The firewall shape follows ClassBench's structure (Taylor & Turner,
INFOCOM 2005): addresses come from a small pool of nested prefixes, source
ports are mostly ``any``, and destination ports come from a few port
classes.  Every prefix is written as an explicit ``lo-hi`` range, never as
``/nn``, so a file means the same thing whatever the parser does with
prefix lengths.

Each generator takes the seed as an argument and returns the file text;
the same seed always gives the same bytes.  Proportions (how many rules
have a wildcard source, which port class, which action, ...) are exact for
a given size and only their placement is random, so inputs of one size
vary less in cost than independent draws would.
"""

from __future__ import annotations

import ipaddress
import random

_HEADER_ATTRS = (
    "attr protocol protocol-enum TCP,UDP,ICMP",
    "attr src_addr ipv4-range 0.0.0.0-255.255.255.255",
    "attr src_port port-range 0-65535",
    "attr dst_addr ipv4-range 0.0.0.0-255.255.255.255",
    "attr dst_port port-range 0-65535",
)
_PROTOCOLS = (("TCP", 0.6), ("UDP", 0.25), ("ICMP", 0.05), ("any", 0.1))
_DST_PORTS = ("any", "80", "443", "0-1023", "1024-65535")
_FRESH_LENGTHS = (8, 12, 16, 16, 20, 24, 24, 28, 32)
ATTACK_CLASSES = ("dos", "probe", "trojan", "worm")


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}/{seed}")


def _exact(rng: random.Random, n: int, weighted) -> list:
    """``n`` values in the given proportions (largest remainder), shuffled."""
    values, weights = zip(*weighted)
    total = sum(weights)
    counts = [int(n * w / total) for w in weights]
    by_remainder = sorted(range(len(values)), key=lambda i: -(n * weights[i] / total - counts[i]))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    out = [v for v, c in zip(values, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def _prefix_pool(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """``count`` prefixes as (network, length); every second one nests in an earlier one."""
    pool: list[tuple[int, int]] = []
    while len(pool) < count:
        bases = [p for p in pool if p[1] < 32]
        if len(pool) % 2 == 1 and bases:
            base, base_len = rng.choice(bases)
            length = rng.randint(base_len + 1, min(32, base_len + 8))
            net = base | (rng.getrandbits(length - base_len) << (32 - length))
        else:
            length = rng.choice(_FRESH_LENGTHS)
            net = rng.getrandbits(length) << (32 - length)
        if (net, length) not in pool:
            pool.append((net, length))
    return pool


def _range(prefix: tuple[int, int]) -> str:
    net, length = prefix
    hi = net | ((1 << (32 - length)) - 1)
    return f"{ipaddress.IPv4Address(net)}-{ipaddress.IPv4Address(hi)}"


def _pools(rng: random.Random, n: int) -> tuple[list, list]:
    count = max(1, n // 4)
    return _prefix_pool(rng, count), _prefix_pool(rng, count)


def _firewall_text(rng: random.Random, n: int, src_pool: list, dst_pool: list) -> str:
    lines = ["component FW", "kind filtering", *_HEADER_ATTRS, "decision action accept,deny", "rules"]
    columns = zip(
        _exact(rng, n, _PROTOCOLS),
        _exact(rng, n, (("any", 0.2), ("pool", 0.8))),
        _exact(rng, n, (("any", 0.9), ("1024-65535", 0.1))),
        _exact(rng, n, (("any", 0.1), ("pool", 0.9))),
        _exact(rng, n, [(port, 1) for port in _DST_PORTS]),
        _exact(rng, n, (("accept", 0.6), ("deny", 0.4))),
    )
    for i, (protocol, src, sport, dst, dport, action) in enumerate(columns, start=1):
        src = _range(rng.choice(src_pool)) if src == "pool" else src
        dst = _range(rng.choice(dst_pool)) if dst == "pool" else dst
        lines.append(" | ".join((str(i), protocol, src, sport, dst, dport, action)))
    lines.append(f"{n + 1} | any | any | any | any | any | deny")
    return "\n".join(lines) + "\n"


def firewall(seed: int, n: int) -> str:
    """A filtering rule file: ``n`` rules plus a final default deny."""
    rng = _rng(seed, f"fw{n}")
    src_pool, dst_pool = _pools(rng, n)
    return _firewall_text(rng, n, src_pool, dst_pool)


def pair(seed: int, n: int, m: int) -> tuple[str, str]:
    """A firewall of ``n`` rules plus default deny, and an IDS of ``m`` signatures.

    The IDS sits behind the firewall.  Its signatures reuse the firewall's
    address prefixes, so the two components overlap, and each one carries
    an ``attack_class`` label.
    """
    rng = _rng(seed, f"pair{n}/{m}")
    src_pool, dst_pool = _pools(rng, n)
    fw = _firewall_text(rng, n, src_pool, dst_pool)
    lines = [
        "component IDS",
        "kind alerting",
        *_HEADER_ATTRS,
        f"attr attack_class label-enum {','.join(ATTACK_CLASSES)}",
        "decision action reject,pass",
        "rules",
    ]
    columns = zip(
        _exact(rng, m, _PROTOCOLS),
        _exact(rng, m, (("any", 0.5), ("pool", 0.5))),
        _exact(rng, m, [(port, 1) for port in _DST_PORTS]),
        _exact(rng, m, [(attack, 1) for attack in ATTACK_CLASSES]),
        _exact(rng, m, (("reject", 0.8), ("pass", 0.2))),
    )
    for i, (protocol, src, dport, attack, action) in enumerate(columns, start=1):
        src = _range(rng.choice(src_pool)) if src == "pool" else src
        dst = _range(rng.choice(dst_pool))
        lines.append(" | ".join((str(i), protocol, src, "any", dst, dport, attack, action)))
    return fw, "\n".join(lines) + "\n"
