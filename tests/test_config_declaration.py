"""Tests generated from the ``SystemConfig`` declaration.

None of these carries a field list: they walk ``dataclasses.fields`` and
read what each field declares (``repro.config.system._spec`` /
``_section`` metadata; an undecorated number is ``>= 1``), so a new field
is covered the moment it is declared.
"""

from __future__ import annotations

import dataclasses
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ConfigError,
    Mechanism,
    SystemConfig,
    baseline_config,
    canonical_config,
    config_from_dict,
    delegated_replies_config,
    mechanism_config,
    table1_mix,
)
from repro.config.system import nested
from repro.sim.simulator import build_system, run_simulation
from repro.sweep import JobSpec


def _walk(cls=SystemConfig, prefix=""):
    """``(dotted path, field)`` of every leaf, ``(path, None)`` per section."""
    for f in dataclasses.fields(cls):
        if f.default is dataclasses.MISSING:
            yield prefix + f.name, None
            yield from _walk(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


LEAVES = [(path, f) for path, f in _walk() if f is not None]
SECTIONS = [path for path, f in _walk() if f is None]
JSON_JUNK = [None, "4", 1.5, True, 3, [], {"x": 1}]


def _bounds(f):
    """(lo, hi, above) of a numeric leaf as declared."""
    md = f.metadata
    return md.get("lo", 1), md.get("hi"), md.get("above")


def _illegal_values(f):
    """Values the declaration of ``f`` rules out: wrong JSON types, and
    numbers beyond each declared bound / strangers to each choice list."""
    typ = type(f.default)
    accepted = (int, float) if typ is float else (typ,)
    bad = [
        v for v in JSON_JUNK
        # bool is an int to isinstance(), not to a config field
        if type(v) not in accepted and not issubclass(typ, enum.Enum)
    ]
    if issubclass(typ, enum.Enum) or "choices" in f.metadata:
        bad += ["stranger", 5, None, []]
    elif typ in (int, float):
        lo, hi, above = _bounds(f)
        step = 1 if typ is int else 0.5
        if lo is not None:
            bad += [lo - step, lo - 100 * step]
        if hi is not None:
            bad += [hi + step, hi + 100 * step]
        if above is not None:
            bad += [above, above - step]
        if f.metadata.get("whole"):
            bad.append(f.default + 0.5)
        if typ is float:
            bad.append(float("nan"))
    return bad


def _legal_value(f, draw_int, draw_unit):
    """One in-range value for ``f`` from two hypothesis draws."""
    typ = type(f.default)
    if typ is bool:
        return draw_int % 2 == 0
    if issubclass(typ, enum.Enum):
        return list(typ)[draw_int % len(typ)].value
    if "choices" in f.metadata:
        return f.metadata["choices"][draw_int % len(f.metadata["choices"])]
    if typ is str:
        return f"s{draw_int}"
    lo, hi, above = _bounds(f)
    if typ is int:
        base = 0 if lo is None else lo
        return base + draw_int if hi is None else min(hi, base + draw_int)
    if f.metadata.get("whole"):
        return float(lo + draw_int)
    low = above if above is not None else lo
    value = low + (hi - low) * draw_unit if hi is not None else low + draw_int
    return hi if above is not None and value <= above else value


def _other_value(f, value):
    """A legal value for ``f`` different from ``value``."""
    for draw in range(1, 6):
        other = _legal_value(f, draw, draw / 7)
        if other != value:
            return other
    raise AssertionError(f"no second legal value for {f.name}")


def _get(cfg, path):
    for part in path.split("."):
        cfg = getattr(cfg, part)
    return cfg


def _set(cfg, path, value):
    *sections, leaf = path.split(".")
    for part in sections:
        cfg = getattr(cfg, part)
    setattr(cfg, leaf, value)


def _assert_names(exc: ConfigError, path: str) -> None:
    assert "\n" not in str(exc) and path in str(exc)


# --- (a) legality --------------------------------------------------------


@pytest.mark.parametrize("path,f", LEAVES, ids=[p for p, _ in LEAVES])
def test_every_illegal_value_is_a_config_error_naming_the_path(path, f):
    bad = _illegal_values(f)
    assert bad, "every leaf rejects at least a wrong JSON type"
    for value in bad:
        with pytest.raises(ConfigError) as err:
            config_from_dict(nested(path, value))
        _assert_names(err.value, path)


@pytest.mark.parametrize("path", SECTIONS)
def test_a_section_needs_an_object(path):
    for value in (None, 5, "x", [1]):
        with pytest.raises(ConfigError, match=f"{path} is a section"):
            config_from_dict({path: value})


@settings(max_examples=200, deadline=None)
@given(
    leaf=st.sampled_from(LEAVES),
    draw_int=st.integers(0, 64),
    draw_unit=st.floats(0, 1),
)
def test_in_range_values_load_and_round_trip(leaf, draw_int, draw_unit):
    path, f = leaf
    value = _legal_value(f, draw_int, draw_unit)
    try:
        cfg = config_from_dict(nested(path, value))
    except ConfigError as exc:
        # in range on its own but against a cross-field rule (a mesh the
        # node mix no longer fills, a cache smaller than one set), which
        # names the field it is stated on
        assert "\n" not in str(exc)
        return
    assert _get(cfg, path) == value
    assert config_from_dict(cfg.to_dict()) == cfg
    assert config_from_dict(canonical_config(cfg.to_dict())).config_hash() \
        == cfg.config_hash()


@settings(max_examples=100, deadline=None)
@given(data=st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from([p.split(".")[-1] for p, _ in LEAVES] + SECTIONS)
        | st.text(max_size=4),
        inner, max_size=4,
    ),
    max_leaves=8,
))
def test_arbitrary_json_is_a_config_or_a_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        assert "\n" not in str(exc)
    else:
        assert config_from_dict(cfg.to_dict()) == cfg


# --- (b) identity --------------------------------------------------------


def _spec_key(cfg: SystemConfig) -> str:
    # built directly: identity must not depend on the config being legal
    config_json = json.dumps(cfg.to_dict(), sort_keys=True)
    return JobSpec(config_json, "HS", None, cycles=1, warmup=0).key()


def _holds(cfg: SystemConfig, when) -> bool:
    return when is not None and _get(cfg, when[0]) == when[1]


def _declared_inert(cfg: SystemConfig, path: str, f) -> bool:
    """Whether the declaration says nothing reads the leaf ``path`` on
    ``cfg``: it is ``identity=False``, or its own ``live_when`` does not
    hold, or its section's ``live_when`` does not hold (and it is not
    that switch itself) and neither does its own ``also_live_when``."""
    if f.metadata.get("identity") is False:
        return True
    if "live_when" in f.metadata:
        return not _holds(cfg, f.metadata["live_when"])
    top = SystemConfig.__dataclass_fields__[path.split(".")[0]]
    when = top.metadata.get("live_when")
    return not (
        when is None
        or path == when[0]
        or _holds(cfg, when)
        or _holds(cfg, f.metadata.get("also_live_when"))
    )


def _configs(mechanism: Mechanism, telemetry: bool, shared: bool, **overrides):
    """A factory of equal fresh configs, so twins never share a section."""
    def make():
        cfg = mechanism_config(mechanism.value, **overrides)
        cfg.telemetry.enabled = telemetry
        cfg.noc.separate_physical_networks = not shared
        return cfg
    return make


traced_or_not = pytest.mark.parametrize(
    "telemetry", [False, True], ids=["untraced", "traced"]
)
each_mechanism = pytest.mark.parametrize(
    "mechanism", list(Mechanism), ids=lambda m: m.value
)
two_networks_or_one = pytest.mark.parametrize(
    "shared", [False, True], ids=["separate", "shared"]
)


@two_networks_or_one
@traced_or_not
@each_mechanism
def test_inert_fields_share_an_identity_and_live_fields_fork_it(
    mechanism, telemetry, shared
):
    make = _configs(mechanism, telemetry, shared)
    base = make()
    inert = {p for p, f in LEAVES if _declared_inert(base, p, f)}
    assert ("telemetry.mode" in inert) == (not telemetry)
    assert ("delegation.frq_merge" in inert) == (
        mechanism is not Mechanism.DELEGATED_REPLIES
    )
    assert ("probing.probe_width" in inert) == (
        mechanism is not Mechanism.REALISTIC_PROBING
    )
    # RP parks probes on MSHR entries too, so its watchdog is read
    assert ("delegation.delayed_hit_timeout" in inert) == (
        mechanism is Mechanism.BASELINE
    )
    # nobody queues delegated requests unless Delegated Replies runs
    assert ("gpu_l1.frq_entries" in inert) == (
        mechanism is not Mechanism.DELEGATED_REPLIES
    )
    # each network organisation reads its own VC counts only
    assert ("noc.vcs_per_port" in inert) == shared
    assert ("noc.request_vcs" in inert) == (not shared)
    assert ("noc.reply_vcs" in inert) == (not shared)
    for path, f in LEAVES:
        twin = make()
        _set(twin, path, _other_value(f, _get(base, path)))
        same = path in inert
        assert (twin.config_hash() == base.config_hash()) == same, path
        assert (_spec_key(twin) == _spec_key(base)) == same, path


@two_networks_or_one
@traced_or_not
@each_mechanism
def test_what_the_identity_leaves_out_cannot_move_a_result(
    mechanism, telemetry, shared, tmp_path
):
    """The ground truth under the test above: "inert" is taken from the
    hash itself (changing the field alone keeps ``config_hash()``), every
    such field is changed at once, and the simulator may not notice.  A
    field the declaration wrongly calls inert — two design points aliased
    to one cache entry — fails here."""
    make = _configs(mechanism, telemetry, shared, **table1_mix(4, 4))
    base, twin = make(), make()
    for path, f in LEAVES:
        if type(f.default) is str and "choices" not in f.metadata:
            other = str(tmp_path / f.name)  # an output path
        else:
            other = _other_value(f, _get(base, path))
        probe = make()
        _set(probe, path, other)
        if probe.config_hash() == base.config_hash():
            _set(twin, path, other)
    assert twin != base and twin.config_hash() == base.config_hash()

    def simulate(cfg):
        result = run_simulation(cfg, "HS", "canneal", cycles=300, warmup=200)
        # counts what was written where, which the output paths decide
        result.telemetry_metrics = {}
        return result

    assert simulate(twin) == simulate(base)


def test_the_watchdog_is_identity_under_realistic_probing():
    """RP's probes park on outstanding MSHR entries like delegated delayed
    hits, and ``delegation.delayed_hit_timeout`` expires both."""
    def run(cfg):
        return run_simulation(cfg, "HS", "canneal", cycles=300, warmup=200)

    base = mechanism_config("rp", **table1_mix(4, 4))
    hasty = mechanism_config("rp", **table1_mix(4, 4))
    hasty.delegation.delayed_hit_timeout = 2
    assert run(hasty) != run(base)
    assert hasty.config_hash() != base.config_hash()
    assert (JobSpec.make(hasty, "HS", "canneal").key()
            != JobSpec.make(base, "HS", "canneal").key())


def test_an_inert_twin_of_the_baseline_has_the_baselines_identity():
    twin = baseline_config()
    twin.delegation.max_delegations_per_cycle = 4
    twin.probing.probe_width = 3
    twin.telemetry.mode = "full"
    assert twin != baseline_config()
    assert twin.config_hash() == baseline_config().config_hash()
    assert (JobSpec.make(twin, "HS", "canneal").key()
            == JobSpec.make(baseline_config(), "HS", "canneal").key())


# --- (c) the cases that motivated the single declaration -----------------


def test_mechanism_alone_runs_the_mechanism():
    small = table1_mix(4, 4)
    cfg = config_from_dict({**small, "mechanism": "delegated_replies"})
    result = run_simulation(cfg, "HS", "canneal", cycles=300, warmup=200)
    assert result.delegated_fraction > 0
    assert result == run_simulation(
        delegated_replies_config(**small), "HS", "canneal",
        cycles=300, warmup=200,
    )


HOSTILE = [
    ("noc.vcs_per_port", 0),
    ("noc.vc_depth_flits", 0),
    ("noc.mem_injection_buffer_flits", 4),
    ("gpu_core.warps", 0),
    ("noc.request_vcs", 0),
    ("noc.bandwidth_factor", -1),
    ("noc.bandwidth_factor", 0.5),
    ("telemetry.sample_rate", 7.0),
    ("gpu_l1.size_bytes", 100),
    ("sim_scale", 0),
    ("dram.banks", 0),
    ("noc.channel_width_bytes", 0),
    ("seed", "abc"),
    ("noc.vc_depth_flits", "4"),
    ("telemetry.mode", "fulll"),
    ("gpu_l1.mshrs", -1),
    ("n_mem", 0),
]


@pytest.mark.parametrize("path,value", HOSTILE,
                         ids=[f"{p}={v!r}" for p, v in HOSTILE])
def test_hostile_value_is_a_config_error_at_every_boundary(path, value):
    def live():
        cfg = baseline_config()
        cfg.noc.separate_physical_networks = path != "noc.request_vcs"
        _set(cfg, path, value)
        return cfg

    boundaries = (
        lambda: config_from_dict(nested(path, value)),
        lambda: JobSpec.make(live(), "HS", "canneal"),
        lambda: build_system(live(), "HS", "canneal"),
    )
    for cross in boundaries:
        with pytest.raises(ConfigError) as err:
            cross()
        _assert_names(err.value, path)


# --- (d) one node mix ----------------------------------------------------


@pytest.mark.parametrize("side,mix", [
    (8, (40, 16, 8)), (4, (10, 4, 2)), (16, (160, 64, 32)),
])
def test_table1_mix(side, mix):
    fields = table1_mix(side, side)
    assert (fields["n_gpu"], fields["n_cpu"], fields["n_mem"]) == mix
    assert SystemConfig(**fields).validate().n_nodes == side * side


# --- (e) what e2e_bench/ uses of the program -----------------------------


def test_names_the_repo_benchmark_imports_keep_their_call_shapes():
    from repro.config import NocConfig
    from repro.sim.engines import build_fabric  # noqa: F401
    from repro.sim.metrics import (  # noqa: F401
        collect_counters, derive_result, diff_counters,
    )
    from repro.sweep import (  # noqa: F401
        ResultCache, SweepRunner, mechanism_jobs, simulate_job,
    )

    assert NocConfig().link_flits_per_cycle == 1
    big = delegated_replies_config(
        mesh_width=16, mesh_height=16, n_gpu=160, n_cpu=64, n_mem=32
    )
    assert big.validate().delegation_active
    cfg = baseline_config()
    cfg.seed = 2
    cfg.telemetry.enabled = True
    cfg.telemetry.mode = "full"  # a plain string
    assert cfg.validate().telemetry.mode == "full"

    specs = mechanism_jobs(None, 1, 50, 30, ("baseline", "dr"))
    assert len(specs) == 22 and specs[1].label[2] == "dr"
    rebuilt = specs[1].system_config()
    assert rebuilt.delegation_active
    rebuilt.seed = 2
    again = JobSpec.make(
        rebuilt, specs[1].gpu, specs[1].cpu, cycles=specs[1].cycles,
        warmup=specs[1].warmup, label=specs[1].label,
    )
    assert again.key() == specs[1].reseeded(2).key() != specs[1].key()


# --- (e) a dragonfly needs two VCs per class ------------------------------


@pytest.mark.parametrize("separate,path", [
    (True, "noc.vcs_per_port"),
    (False, "noc.request_vcs"),
    (False, "noc.reply_vcs"),
])
def test_a_dragonfly_below_two_vcs_per_class_is_a_config_error(separate, path):
    """Its minimal routes have a channel-dependency cycle (ROADMAP 11(b)),
    which one VC per class deadlocks on; any other topology is fine."""
    def data(topology, vcs):
        return {"noc": {"topology": topology,
                        "separate_physical_networks": separate,
                        path.split(".")[1]: vcs}}

    with pytest.raises(ConfigError) as err:
        config_from_dict(data("dragonfly", 1))
    _assert_names(err.value, path)
    config_from_dict(data("dragonfly", 2))
    config_from_dict(data("mesh", 1))


def test_no_figure_point_hits_the_dragonfly_rule():
    from repro.experiments import fig05_topology, fig16_topology_dr

    for module in (fig05_topology, fig16_topology_dr):
        for spec in module.specs(["HS"]).values():
            spec.system_config().validate()
