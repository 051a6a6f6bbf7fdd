"""Seeded benchmark corpora: one instance grid per workload.

Each workload is a fixed grid of generator configurations. The grid is
what selects the layer the workload stresses (see NOTES.md); the corpus
seed only shifts every generator seed by the same offset, so the default
corpus (offset 0) is the one the committed reference answers describe.

Set-up is what a user pays once per corpus: generation through
``borwin.generate`` and the JSON round trip through ``borwin.io``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from borwin import generate, io


@dataclass(frozen=True)
class Spec:
    """One instance of a workload grid: generator family, keyword
    arguments for ``GeneratorConfig`` and the seed before the offset."""

    family: str  # "dag" | "huc"
    params: tuple[tuple[str, int], ...]
    seed: int

    def name(self, offset: int) -> str:
        tag = "".join(_SHORT[key] + str(val) for key, val in self.params)
        return f"{tag}s{self.seed + offset}"


_SHORT = {"periods": "T", "points": "P", "min_updown": "L", "vertices": "n"}


def _huc(periods: int, points: int, min_updown: int, seed: int) -> Spec:
    return Spec("huc", (("periods", periods), ("points", points), ("min_updown", min_updown)), seed)


def _dag(vertices: int, seed: int) -> Spec:
    return Spec("dag", (("vertices", vertices),), seed)


WORKLOADS: dict[str, tuple[Spec, ...]] = {
    # long horizons: large compiled graphs, time in the tail sweeps
    "huc-long": tuple(_huc(1200, p, l, s) for p, l in ((3, 2), (4, 3)) for s in (0, 1)),
    # short horizons: small graphs, time in the NMCKP bound and phase-2 loop
    "huc-short": tuple(
        _huc(t, p, l, s) for t in (24, 48, 96) for p in (3, 4) for l in (2, 3) for s in (0, 1, 2)
    ),
    # random DAGs: no compilation, time in label extension
    "dag-mixed": tuple(_dag(n, s) for n in (40, 80, 120) for s in range(6)),
}


@dataclass
class Instance:
    """A generated instance after the JSON round trip."""

    name: str
    family: str
    text: str  # canonical JSON as written by borwin.io.dump_json
    data: dict  # the parsed JSON, read by the independent verifier
    obj: object  # HucInstance or WindowedDag, handed to the solver

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def generate_texts(specs, offset: int) -> list[tuple[str, str, str]]:
    """(name, family, canonical JSON) per spec, in grid order."""
    out = []
    for spec in specs:
        config = generate.GeneratorConfig(seed=spec.seed + offset, family=spec.family, **dict(spec.params))
        out.append((spec.name(offset), spec.family, io.dump_json(generate.generate(config))))
    return out


def load_texts(texts) -> list[Instance]:
    """Parse each canonical JSON text back into a solver input."""
    out = []
    for name, family, text in texts:
        data = json.loads(text)
        loader = io.huc_from_dict if family == "huc" else io.dag_from_dict
        out.append(Instance(name, family, text, data, loader(data)))
    return out


def corpus_sha256(instances) -> str:
    """Digest of the whole corpus: names and canonical JSON, in grid order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.name.encode() + b"\n" + inst.text.encode())
    return h.hexdigest()
