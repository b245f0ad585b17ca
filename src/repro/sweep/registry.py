"""Named sweep scenarios: the paper's experiments as declarative specs.

Each entry maps a name (used by ``python -m repro sweep <name>``) to a
builder producing a :class:`repro.sweep.spec.ScenarioSpec` at full or
``--quick`` size.  The registered scenarios re-express the repo's
experiment scripts on top of the sweep subsystem:

* ``table1`` — the rotor-router cover rows of Table 1 (worst placement
  all-on-one/toward-node-0, best placement equally-spaced under the
  negative adversary) swept over k;
* ``table1_full`` — the actual Table 1: both models (rotor-router and
  k random walks) over both placements, walk cells as mean ± CI over
  seeded repetitions, with per-k speed-up and walk/rotor ratio tables
  joined from the same sweep;
* ``speedup`` — the speed-up study ``S(k) = C(n,1)/C(n,k)`` for both
  models (the paper's Θ(k²) rotor vs Θ(k²/log²k) walk contrast,
  Theorem 5), anchored by the k = 1 baseline cell;
* ``stabilization`` — the time-to-limit-cycle extension study:
  preperiod, period and in-cycle return gaps across initialization
  families including random ones;
* ``general_speedup`` — the Yanovski-style speed-up grid on general
  graph families (torus, hypercube, lollipop, G(n,p)): every
  (family, k, seed) cell is one lane of the batched CSR kernel, with
  the aggregate layer joining the k = 1 baselines into S(k) curves;
* ``cover_scaling`` — a wide (n, k, family) cover-time grid the serial
  experiment scripts never attempt in one run.

New workloads register with :func:`register`; the CLI lists whatever
is here.
"""

from __future__ import annotations

from typing import Callable

from repro.sweep.spec import GeneralScenarioSpec, InitFamily, ScenarioSpec

ScenarioBuilder = Callable[[bool], ScenarioSpec]

_SCENARIOS: dict[str, tuple[ScenarioBuilder, str]] = {}


def register(
    name: str, description: str
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Register a scenario builder under ``name`` for the CLI."""

    def wrap(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = (builder, description)
        return builder

    return wrap


def scenario_names() -> list[str]:
    return list(_SCENARIOS)


def scenario_description(name: str) -> str:
    return _SCENARIOS[name][1]


def scenario(name: str, quick: bool = False) -> ScenarioSpec:
    """Build the named scenario at full (default) or quick size."""
    try:
        builder, _ = _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep scenario {name!r}; known: {scenario_names()}"
        ) from None
    return builder(quick)


@register("table1", "Table 1 rotor-router cover times (worst + best placement)")
def _table1(quick: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="table1",
        ns=(128,) if quick else (512,),
        ks=(2, 4, 8) if quick else (2, 4, 8, 16, 32),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
        ),
        metrics=("cover",),
        description="deterministic cover-time columns of Table 1",
    )


#: The two Table 1 placements: the Theorem 1 worst case and the
#: Theorem 3 best placement under the Theorem 4 pointer adversary
#: (walk cells ignore the pointer half).
_TABLE1_FAMILIES = (
    InitFamily("all_on_one", "toward_node0"),
    InitFamily("equally_spaced", "negative"),
)


@register(
    "table1_full",
    "Table 1, both models: rotor-router vs k random walks (mean ± CI)",
)
def _table1_full(quick: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="table1_full",
        ns=(128,) if quick else (512,),
        # k = 1 anchors the speed-up column S(k) = C(n,1)/C(n,k).
        ks=(1, 2, 4, 8) if quick else (1, 2, 4, 8, 16, 32),
        families=_TABLE1_FAMILIES,
        metrics=("cover",),
        models=("rotor", "walk"),
        repetitions=5 if quick else 10,
        description=(
            "cover-time columns of Table 1 for both models, joined "
            "into per-k speed-ups and walk/rotor ratios"
        ),
    )


@register(
    "speedup",
    "speed-up S(k)=C(n,1)/C(n,k) for both models (Theorem 5 contrast)",
)
def _speedup(quick: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="speedup",
        ns=(64,) if quick else (256, 512),
        ks=(1, 2, 4) if quick else (1, 2, 4, 8, 16, 32),
        families=_TABLE1_FAMILIES,
        metrics=("cover",),
        models=("rotor", "walk"),
        repetitions=5 if quick else 10,
        description=(
            "k-agent speed-up of both models: Θ(k²) rotor best case "
            "vs Θ(k²/log²k) random walks"
        ),
    )


@register("stabilization", "time-to-limit-cycle + return gaps across inits")
def _stabilization(quick: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="stabilization",
        ns=(32, 64) if quick else (64, 128, 256),
        ks=(4,),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
            InitFamily("equally_spaced", "positive"),
            InitFamily("random", "random"),
        ),
        metrics=("stabilization", "return"),
        seeds=(0, 1),
        description="preperiod/period (Brent) and in-cycle visit gaps",
    )


@register(
    "general_speedup",
    "Yanovski-style speed-up grid on general graphs (CSR-batched kernel)",
)
def _general_speedup(quick: bool) -> GeneralScenarioSpec:
    from repro.graphs import (
        gnp_random_graph,
        hypercube,
        lollipop,
        torus_2d,
    )

    if quick:
        graphs = (
            ("torus", torus_2d(6, 6)),
            ("hypercube", hypercube(5)),
            ("lollipop", lollipop(8, 8)),
            ("gnp", gnp_random_graph(48, 0.15, seed=11)),
        )
        ks, seeds = (1, 2, 4), (0,)
    else:
        graphs = (
            ("torus", torus_2d(16, 16)),
            ("hypercube", hypercube(8)),
            ("lollipop", lollipop(24, 40)),
            ("gnp", gnp_random_graph(192, 0.04, seed=11)),
        )
        ks, seeds = (1, 2, 4, 8, 16), (0, 1, 2)
    return GeneralScenarioSpec(
        name="general_speedup",
        graphs=graphs,
        ks=ks,
        seeds=seeds,
        description=(
            "cover-time speed-up S(k) = C(1)/C(k) across general graph "
            "families, every (family, k, seed) cell one lane of the "
            "batched CSR kernel"
        ),
    )


@register("cover_scaling", "cover-time grid across n, k and init families")
def _cover_scaling(quick: bool) -> ScenarioSpec:
    return ScenarioSpec(
        name="cover_scaling",
        ns=(64, 128) if quick else (128, 256, 512, 1024),
        ks=(2, 4) if quick else (2, 4, 8, 16),
        families=(
            InitFamily("all_on_one", "toward_node0"),
            InitFamily("equally_spaced", "negative"),
            InitFamily("equally_spaced", "uniform"),
            InitFamily("half_ring", "alternating"),
            InitFamily("random", "random"),
        ),
        metrics=("cover",),
        seeds=(0, 1, 2) if not quick else (0,),
        description="how cover time scales outside the Table 1 corners",
    )
