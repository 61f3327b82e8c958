"""The ``ArchBackend`` interface: everything one architecture bundles.

The paper's central claim (Section IV, Table II) is that one API can
model many digital PIM architectures.  Before this layer existed, each
architecture was wired in by scattered ``if device_type is ...`` chains
across config, perf, energy, engine, experiments, and the CLI; adding a
variant meant editing six layers.  A backend object gathers all of those
decisions in one place:

* **identity** -- the device-type object (a :class:`PimDeviceType`
  member or a plug-in :class:`~repro.config.device.ArchDeviceType`),
  the canonical CLI name, and its aliases;
* **configuration** -- the Table II preset constructor
  (:meth:`ArchBackend.make_config`) and the parameters ``repro arch
  list`` displays (:meth:`ArchBackend.table2_params`);
* **performance** -- the perf-model factory
  (:meth:`ArchBackend.make_perf_model`) and the set of
  :class:`~repro.perf.base.CmdCost` counters its model emits;
* **energy** -- how the :class:`~repro.energy.model.EnergyModel` prices
  an ALU word op on this architecture (:meth:`ArchBackend.alu_op_pj`);
* **capabilities** -- whether commands lower to microprograms and
  whether the functional simulator supports the device;
* **caching** -- the source files whose content feeds the
  architecture's :func:`repro.engine.version.model_version` stamp.

Registering an instance with :func:`repro.arch.register_backend` is the
*only* step a new architecture needs; see ``docs/ARCHITECTURES.md`` for
the one-file walkthrough.
"""

from __future__ import annotations

import abc
import typing

from repro.config.device import ArchDeviceType, DeviceConfig, PimDeviceType

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.power import PowerConfig
    from repro.perf.base import CommandArgs, PerfModel

#: Either kind of device-type object a backend may carry.
DeviceTypeLike = typing.Union[PimDeviceType, ArchDeviceType]

#: Every energy-relevant counter :class:`~repro.perf.base.CmdCost`
#: carries.  A backend's ``cost_counters`` must be a subset; the
#: cross-backend contract test asserts its perf model never emits a
#: counter outside its declared set (which would silently go unpriced
#: or double-priced by a mismatched energy hook).
COST_COUNTERS = (
    "row_activations",
    "lane_logic_ops",
    "alu_word_ops",
    "walker_bits",
    "gdl_bits",
)


class ArchBackend(abc.ABC):
    """One pluggable PIM architecture.

    Subclasses override the class attributes and the two factories;
    everything else has workable defaults.  Instances are stateless --
    the registry holds exactly one per architecture.
    """

    #: Canonical CLI/registry name (``repro run --target <id>``).
    id: str = ""
    #: Alternate spellings accepted anywhere a name is (CLI, API).
    aliases: "tuple[str, ...]" = ()
    #: The device-type object configs carry for this architecture.
    device_type: DeviceTypeLike
    #: One-line description shown by ``repro arch list``.
    description: str = ""
    #: ``CmdCost`` counters this architecture's perf model emits.
    cost_counters: "tuple[str, ...]" = ()
    #: Source files/packages (relative to the ``repro`` package root)
    #: whose content stamps this architecture's cache keys.
    stamp_sources: "tuple[str, ...]" = ()
    #: Whether high-level commands lower to bit-serial microprograms.
    uses_microcode: bool = False
    #: Whether the functional simulator can verify results on it.
    supports_functional: bool = True
    #: Whether this backend is a generated, registration-scoped point
    #: (a :class:`repro.arch.parametric.ParametricBackend`) rather than
    #: a hand-written module.  ``repro arch list`` marks transient
    #: backends and sweeps unregister them when done.
    transient: bool = False
    #: For transient backends, the id of the hand-written base backend
    #: the point was derived from; ``None`` for hand-written backends.
    origin: "str | None" = None

    # -- identity -------------------------------------------------------------

    @property
    def display_name(self) -> str:
        """Figure/report label (delegates to the device type)."""
        return self.device_type.display_name

    @property
    def in_paper_evaluation(self) -> bool:
        return self.device_type.in_paper_evaluation

    def names(self) -> "tuple[str, ...]":
        """Every name this backend answers to (canonical id first)."""
        return (self.id, *self.aliases)

    # -- configuration --------------------------------------------------------

    @abc.abstractmethod
    def make_config(
        self, num_ranks: int = 32, **geometry_overrides: int
    ) -> DeviceConfig:
        """Build this architecture's device configuration."""

    def table2_params(self, num_ranks: int = 32) -> "dict[str, object]":
        """The Table II row ``repro arch list`` prints.

        Keys: ``cores`` (PIM core count), ``freq_mhz`` (compute clock,
        or None when timing is DRAM-driven), ``layout`` (native data
        layout), ``ap_support`` (associative-processing capability).
        """
        config = self.make_config(num_ranks)
        return {
            "cores": config.num_cores,
            "freq_mhz": self.compute_freq_mhz(config),
            "layout": config.native_layout.value,
            "ap_support": self.device_type.is_bit_serial,
        }

    def compute_freq_mhz(self, config: DeviceConfig) -> "float | None":
        """The architecture's compute clock, or None when DRAM-timed."""
        return None

    # -- performance ----------------------------------------------------------

    @abc.abstractmethod
    def make_perf_model(self, config: DeviceConfig) -> "PerfModel":
        """Instantiate the performance model for a config of this arch."""

    def cost_table(
        self, pipeline: "typing.Any", shapes: "tuple[CommandArgs, ...]"
    ) -> "typing.Any":
        """Price a batch of distinct command shapes as array columns.

        The vector engine (``repro.perf.vector``, the default analytic
        pricer of ``run_suite`` and the CLI) records an analytic run
        into a shape histogram, and :func:`repro.perf.plans.synthesize`
        calls this hook to price every distinct shape; it returns a
        :class:`repro.perf.vector.CostTable` whose columns are
        ``(pipeline.points, len(shapes))`` arrays: entry ``[p, i]`` is
        the cost of issuing ``shapes[i]`` exactly once at design point
        ``p``.

        The contract is *bit-identity with the scalar path*: for every
        shape and point the values must equal -- at full float
        precision -- what a one-point pipeline's
        ``cost_and_energy(shapes[i])`` returns, because
        ``--vector-check`` compares the reconstructed totals bit for
        bit.  This generic fallback simply routes each shape through the
        supplied :class:`~repro.perf.memo.CostPipeline`, which is always
        correct; backends with closed-form batch pricing may override,
        but only if they can hold the bit-identity contract.

        One call prices a vector of design points: a batched sweep
        (:mod:`repro.dse.batch`) hands in one pipeline per integer-knob
        sub-group of a geometry group, whose models carry the points'
        float cost knobs (clocks, the ALU energy constant) as float64
        arrays of length ``pipeline.points``.  Each cost field the
        pipeline returns is then a float (point-independent, broadcast
        here) or such an array.  An override must stay array-safe --
        the same float operations in the same order, no ``math`` calls
        or branches on a float knob -- and must price through the
        supplied pipeline's models on every call, never caching columns
        keyed on the shapes alone.
        """
        import numpy as np

        from repro.perf.vector import CostTable

        names = ("latency_ns", "execution_nj", "background_nj",
                 *COST_COUNTERS)
        # Counter values are read as direct attributes in COST_COUNTERS
        # order (a getattr loop here is measurable in batched sweeps).
        cost_and_energy = pipeline.cost_and_energy
        rows = []
        for args in shapes:
            cost, energy = cost_and_energy(args)
            rows.append((
                cost.latency_ns, energy.execution_nj, energy.background_nj,
                cost.row_activations, cost.lane_logic_ops,
                cost.alu_word_ops, cost.walker_bits, cost.gdl_bits,
            ))
        points = pipeline.points
        if points == 1:
            # Plain floats: one conversion, (shapes, fields) -> (fields,
            # 1, shapes).
            data = np.array(rows, dtype=np.float64).reshape(
                len(shapes), len(names)
            ).T[:, None, :]
        else:
            # Each value is a float or a (points,) array; assigning
            # either fills its (points,) slot.
            data = np.empty((len(names), points, len(shapes)))
            for index, row in enumerate(rows):
                for field, value in enumerate(row):
                    data[field, :, index] = value
        return CostTable(**{
            name: data[row] for row, name in enumerate(names)
        })

    def cost_memo_param(self, args: "CommandArgs") -> typing.Hashable:
        """The scalar's contribution to the command-cost memo key.

        :class:`repro.perf.memo.CostPipeline` memoizes ``(CmdCost,
        CommandEnergy)`` on ``(kind, bits, signed, cost_memo_param(args),
        operand layouts)``; this hook declares which scalar values this
        architecture's perf model prices identically.  The default --
        the raw scalar -- is always correct but never collapses two
        scalars into one entry.  Backends whose cost arithmetic ignores
        the scalar (the word-ALU models) override to ``None``; the
        microcoded backends map the scalar to the resolved microprogram
        parameter, so e.g. every ``ADD_SCALAR`` of the same baked
        immediate shares one entry.  See ``docs/PERFORMANCE.md`` §5.
        """
        return args.scalar

    # -- energy ---------------------------------------------------------------

    def alu_op_pj(self, power: "PowerConfig") -> float:
        """Energy (pJ) of one ALU word operation on this architecture.

        The default prices at the subarray-level (Fulcrum-class) ALPU;
        bank-scope backends override to the bank ALPU figure.  Backends
        that never emit ``alu_word_ops`` can leave either in place --
        the term multiplies a zero count.
        """
        return power.compute.fulcrum_alu_op_pj

    # -- caching --------------------------------------------------------------

    def stamp_entries(self) -> "tuple[str, ...]":
        """The source group feeding this architecture's version stamp."""
        return tuple(self.stamp_sources)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} id={self.id!r}>"
