"""The planet type and its position/brightness snapshot tables.

A ``Planet`` is a name, an inertial position and an apparent magnitude.
A table maps each epoch to the planets listed for it; no propagation or
interpolation happens here.  File format: ``name,epoch,x_km,y_km,z_km,app_mag``
per line, read by ``star_catalog.read_lines``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .star_catalog import read_lines


class EphemerisError(ValueError):
    pass


@dataclass(frozen=True)
class Planet:
    name: str
    position_km: np.ndarray
    magnitude: float

    def __post_init__(self):
        pos = np.array(self.position_km, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise EphemerisError(f"bad position for {self.name}: {self.position_km}")
        if not math.isfinite(self.magnitude):
            raise EphemerisError(f"magnitude {self.magnitude} of {self.name} is not finite")
        pos.setflags(write=False)
        object.__setattr__(self, "position_km", pos)


def load_ephemeris(path) -> dict[str, tuple[Planet, ...]]:
    """Epoch -> planets, both in file order (``read_lines``).

    A line that does not parse, a non-finite position or magnitude or a
    repeated (name, epoch) raises EphemerisError naming the file and line.
    """
    table: dict[str, list[Planet]] = {}

    def parse(line: str) -> None:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected 6 fields, got {len(parts)}")
        name, epoch = parts[0], parts[1]
        try:
            x, y, z, mag = (float(v) for v in parts[2:])
        except ValueError as exc:
            raise ValueError(f"unparseable field ({exc})") from None
        planets = table.setdefault(epoch, [])
        if any(p.name == name for p in planets):
            raise ValueError(f"duplicate entry {(name, epoch)}")
        planets.append(Planet(name, [x, y, z], mag))

    read_lines(path, parse, EphemerisError)
    return {epoch: tuple(planets) for epoch, planets in table.items()}


def save_ephemeris(table: dict[str, tuple[Planet, ...]], path) -> None:
    """Write planets in order; float repr keeps the round trip bit-exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# name,epoch,x_km,y_km,z_km,app_mag\n")
        for epoch, planets in table.items():
            for p in planets:
                x, y, z = (float(v) for v in p.position_km)
                fh.write(f"{p.name},{epoch},{x!r},{y!r},{z!r},{float(p.magnitude)!r}\n")


def planets_at(path, epoch: str | None = None) -> tuple[Planet, ...]:
    """The planets of one epoch of a table file (default: its first epoch)."""
    table = load_ephemeris(path)
    if epoch is None:
        return next(iter(table.values()), ())
    if epoch not in table:
        raise EphemerisError(f"{path}: no epoch '{epoch}'")
    return table[epoch]
