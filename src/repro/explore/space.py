"""Typed knob spaces over :class:`SystemConfig` for design-space search.

A :class:`SearchSpace` declares an ordered tuple of :class:`Knob`\\ s, each
with a discrete value list and a target: a dotted ``SystemConfig`` path
(``noc.vcs_per_port``, ``mechanism``) set through
:meth:`SystemConfig.update` like any other data, or ``gpu`` — the GPU
workload, i.e. the injection intensity of the search point; the CPU
co-runner follows Table II.

A *genome* is a tuple of value indices, one per knob — what the search
policies propose and the evolutionary operators (mutation, crossover)
act on.  ``decode`` turns a genome into a validated ``(SystemConfig, gpu,
cpu)`` triple.  Genomes that differ only in inert genes (delegation
thresholds under a baseline mechanism) decode to configs with one
``config_hash()`` and so share one surrogate memo / sweep cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config.system import SystemConfig, Topology, nested, table1_mix
from repro.sweep.jobs import cpu_corunners

Genome = Tuple[int, ...]


@dataclass(frozen=True)
class Knob:
    """One discrete design knob."""

    name: str
    values: Tuple[Any, ...]
    #: dotted ``SystemConfig`` path, or ``gpu``.
    path: str
    #: the default value (reference designs use it); first value if unset.
    default: Any = None

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError(f"knob {self.name!r} needs >= 2 values")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"knob {self.name!r} has duplicate values")
        if self.default is not None and self.default not in self.values:
            raise ValueError(
                f"knob {self.name!r} default {self.default!r} not in values"
            )

    @property
    def default_index(self) -> int:
        if self.default is None:
            return 0
        return self.values.index(self.default)


@dataclass
class SearchSpace:
    """An ordered, finite knob space with genome encode/decode."""

    name: str
    knobs: Tuple[Knob, ...]
    description: str = ""
    #: fabric size, ``<width>x<height>``, filled with Table I's node mix.
    mesh: str = "8x8"
    #: workload when the space has no ``gpu`` knob.
    gpu: str = "SC"
    #: simulation window for promoted candidates; the mesh4x4 spaces
    #: default long (see repro.model.validate.grid_specs) because the
    #: small mesh's clog develops slowly.
    cycles: int = 3000
    warmup: int = 2000
    _by_name: Dict[str, int] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate knob names")
        self._by_name = {k.name: i for i, k in enumerate(self.knobs)}
        # fail fast on bad paths / values: decode the default genome
        self.decode(self.default_genome())

    # -- shape ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.knobs)

    @property
    def size(self) -> int:
        """Cardinality of the raw genome space."""
        total = 1
        for k in self.knobs:
            total *= len(k.values)
        return total

    # -- genome <-> values ------------------------------------------------

    def default_genome(self) -> Genome:
        return tuple(k.default_index for k in self.knobs)

    def values(self, genome: Genome) -> Dict[str, Any]:
        """Knob name -> chosen value, in knob order."""
        self._check(genome)
        return {k.name: k.values[g] for k, g in zip(self.knobs, genome)}

    def encode(self, values: Dict[str, Any]) -> Genome:
        """Inverse of :meth:`values`; unmentioned knobs take their default."""
        genome = list(self.default_genome())
        for name, value in values.items():
            if name not in self._by_name:
                raise KeyError(f"space {self.name!r} has no knob {name!r}")
            i = self._by_name[name]
            try:
                genome[i] = self.knobs[i].values.index(value)
            except ValueError:
                raise ValueError(
                    f"knob {name!r} has no value {value!r}"
                ) from None
        return tuple(genome)

    def _check(self, genome: Genome) -> None:
        if len(genome) != len(self.knobs):
            raise ValueError(
                f"genome length {len(genome)} != {len(self.knobs)} knobs"
            )
        for k, g in zip(self.knobs, genome):
            if not 0 <= g < len(k.values):
                raise ValueError(f"gene {g} out of range for knob {k.name!r}")

    # -- genome -> config -------------------------------------------------

    def decode(self, genome: Genome) -> Tuple[SystemConfig, str, str]:
        """Decode a genome into a validated ``(config, gpu, cpu)``."""
        try:
            width, height = map(int, self.mesh.split("x"))
        except (AttributeError, ValueError):
            raise ValueError(
                f"space mesh must be '<width>x<height>', got {self.mesh!r}"
            ) from None
        cfg = SystemConfig(**table1_mix(width, height))
        gpu = self.gpu
        for k, value in zip(self.knobs, self.values(genome).values()):
            if k.path == "gpu":
                gpu = value
            else:
                cfg.update(nested(k.path, value))
        return cfg.validate(), gpu, cpu_corunners(gpu, 1)[0]

    # -- evolutionary operators ------------------------------------------

    def random_genome(self, rng) -> Genome:
        return tuple(rng.randrange(len(k.values)) for k in self.knobs)

    def mutate(
        self, genome: Genome, rng, rate: Optional[float] = None
    ) -> Genome:
        """Per-knob mutation: each gene flips to a *different* value with
        probability ``rate`` (default 1/n_knobs)."""
        self._check(genome)
        rate = 1.0 / len(self.knobs) if rate is None else rate
        out = list(genome)
        for i, k in enumerate(self.knobs):
            if rng.random() < rate:
                alternatives = [
                    j for j in range(len(k.values)) if j != genome[i]
                ]
                out[i] = rng.choice(alternatives)
        return tuple(out)

    def crossover(self, a: Genome, b: Genome, rng) -> Genome:
        """Uniform crossover: each gene from either parent with p=0.5."""
        self._check(a)
        self._check(b)
        return tuple(x if rng.random() < 0.5 else y for x, y in zip(a, b))

    # -- reference designs ------------------------------------------------

    def reference_genomes(self) -> List[Genome]:
        """Anchor designs: every mechanism at default provisioning, pinned
        to the highest-injection workload (the last ``gpu`` value — spaces
        list workloads low to high).

        These are always simulated by the hybrid search, so the frontier
        manifest always contains the baseline-vs-DR comparison the paper
        makes, whatever the search wandered off to explore.
        """
        genomes: List[Genome] = []
        base = list(self.default_genome())
        if "gpu" in self._by_name:
            i = self._by_name["gpu"]
            base[i] = len(self.knobs[i].values) - 1
        if "mechanism" in self._by_name:
            i = self._by_name["mechanism"]
            for j in range(len(self.knobs[i].values)):
                g = list(base)
                g[i] = j
                genomes.append(tuple(g))
        else:
            genomes.append(tuple(base))
        return genomes

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "mesh": self.mesh,
            "cycles": self.cycles,
            "warmup": self.warmup,
            "size": self.size,
            "knobs": [
                {
                    "name": k.name,
                    "path": k.path,
                    "values": list(k.values),
                    "default": k.values[k.default_index],
                }
                for k in self.knobs
            ],
        }


# ---------------------------------------------------------------------------
# named demo spaces
# ---------------------------------------------------------------------------


def _workload_knob() -> Knob:
    # injection ladder, low -> high (NN light, HS mid, SC clogging-heavy)
    return Knob("gpu", ("NN", "HS", "SC"), "gpu", default="SC")


def _provisioning_knobs() -> Tuple[Knob, ...]:
    return (
        Knob("vcs_per_port", (2, 4), "noc.vcs_per_port", default=2),
        Knob("vc_depth_flits", (2, 4, 8), "noc.vc_depth_flits", default=4),
        Knob(
            "mem_injection_buffer_flits",
            (18, 36, 72),
            "noc.mem_injection_buffer_flits",
            default=36,
        ),
    )


def _delegation_knobs() -> Tuple[Knob, ...]:
    return (
        Knob(
            "only_when_blocked",
            (True, False),
            "delegation.only_when_blocked",
            default=True,
        ),
        Knob(
            "max_delegations_per_cycle",
            (1, 2, 4),
            "delegation.max_delegations_per_cycle",
            default=2,
        ),
    )


def mesh4x4_space() -> SearchSpace:
    """The 16-node CI-scale demo space (648 genomes)."""
    return SearchSpace(
        name="mesh4x4",
        description=(
            "16-node mesh: mechanism, delegation policy, VC/buffer "
            "provisioning and injection level"
        ),
        mesh="4x4",
        cycles=12000,
        warmup=3000,
        knobs=(
            _workload_knob(),
            Knob("mechanism", ("baseline", "dr"), "mechanism", default="baseline"),
            *_delegation_knobs(),
            *_provisioning_knobs(),
        ),
    )


def mesh8x8_space() -> SearchSpace:
    """The paper-scale space: Table I system plus topology/bandwidth."""
    return SearchSpace(
        name="mesh8x8",
        description=(
            "64-node system: mechanism, delegation policy, topology, "
            "bandwidth, VC/buffer provisioning and injection level"
        ),
        mesh="8x8",
        cycles=3000,
        warmup=2000,
        knobs=(
            _workload_knob(),
            Knob(
                "mechanism", ("baseline", "dr", "rp"), "mechanism",
                default="baseline",
            ),
            *_delegation_knobs(),
            Knob(
                "topology",
                (Topology.MESH, Topology.FLATTENED_BUTTERFLY),
                "noc.topology",
                default=Topology.MESH,
            ),
            Knob(
                "bandwidth_factor",
                (1.0, 2.0),
                "noc.bandwidth_factor",
                default=1.0,
            ),
            *_provisioning_knobs(),
        ),
    )


SPACES = {
    "mesh4x4": mesh4x4_space,
    "mesh8x8": mesh8x8_space,
}


def demo_space(name: str) -> SearchSpace:
    """Resolve a named demo space (``mesh4x4``, ``mesh8x8``)."""
    try:
        return SPACES[name]()
    except KeyError:
        raise ValueError(
            f"unknown space {name!r}; choose from {sorted(SPACES)}"
        ) from None
