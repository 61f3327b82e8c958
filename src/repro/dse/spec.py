"""Declarative sweep specifications over Table II knobs.

A :class:`SweepSpec` describes a family of hypothetical PIM designs as
data: one or more *base* architectures (any registered backend id --
the bit-serial vs word-ALU axis is the base axis), a grid of knob
*axes* whose cartesian product is enumerated, and optional explicit
*points* appended after the grid.  :meth:`SweepSpec.compile_points`
turns the spec into a deterministic, de-duplicated tuple of
:class:`SweepPoint`\\ s -- the unit :mod:`repro.dse.sweep` derives a
:class:`~repro.arch.parametric.ParametricBackend` from and fans out
through the engine.

Everything is validated up front with ``ERR_CONFIG``-coded
:class:`~repro.core.errors.PimConfigError`\\ s (unknown keys, knobs and
benchmarks, empty axes, point-count blowups), so a bad spec fails
before any simulation starts, with the offending field in the error
context.

JSON schema (see ``docs/DSE.md``)::

    {
      "name": "bank-width-freq",
      "bases": ["bank"],                   # or "base": "bank"
      "benchmarks": ["vecadd"],
      "num_ranks": 4,
      "axes": {                            # cartesian product, in order
        "banks_per_rank": [64, 128],
        "pe_width_bits": [32, 64, 128],
        "pe_freq_mhz": [164, 250]
      },
      "points": [{"gdl_width_bits": 256}]  # explicit extras (optional)
    }
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing

from repro.arch.parametric import KNOB_NAMES, knob_digest, normalize_knobs
from repro.core.errors import PimConfigError

#: Hard ceiling on compiled sweep size, overridable via the environment
#: (``docs/PERFORMANCE.md`` env-var table).  Guards against a fat-
#: fingered grid ("every knob, ten values each") launching a
#: multi-million-cell sweep.
MAX_POINTS_ENV = "REPRO_DSE_MAX_POINTS"
DEFAULT_MAX_POINTS = 4096

#: Keys a sweep-spec dict may carry.
_SPEC_KEYS = (
    "name", "base", "bases", "benchmarks", "num_ranks", "axes", "points"
)


def max_points() -> int:
    """The compiled-point ceiling (``REPRO_DSE_MAX_POINTS`` or 4096)."""
    raw = os.environ.get(MAX_POINTS_ENV)
    if not raw:
        return DEFAULT_MAX_POINTS
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise PimConfigError(
            f"{MAX_POINTS_ENV} must be a positive integer, got {raw!r}",
            env=raw,
        ) from None
    return value


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One compiled design point: a base backend plus canonical knobs."""

    base: str
    knobs: "tuple[tuple[str, object], ...]"

    @property
    def point_id(self) -> str:
        """Stable content-addressed id (matches the derived backend id).

        Cached on the instance (the sweep loop reads it many times per
        point); stored via ``object.__setattr__`` because the dataclass
        is frozen, and invisible to ``==``/``hash`` which only consult
        declared fields.
        """
        pid = self.__dict__.get("_point_id")
        if pid is None:
            pid = f"{self.base}@{knob_digest(self.knobs)[:12]}"
            object.__setattr__(self, "_point_id", pid)
        return pid

    def knobs_dict(self) -> "dict[str, object]":
        return dict(self.knobs)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A validated, immutable sweep description.

    ``axes`` is an ordered tuple of ``(knob, values)`` pairs; axis and
    value order define the grid enumeration order (row-major over the
    declared axes), which is what makes two compilations of the same
    spec -- and hence two sweep reports -- byte-identical.
    """

    name: str = "sweep"
    bases: "tuple[str, ...]" = ("bank",)
    benchmarks: "tuple[str, ...]" = ("vecadd",)
    num_ranks: int = 4
    axes: "tuple[tuple[str, tuple[object, ...]], ...]" = ()
    points: "tuple[tuple[tuple[str, object], ...], ...]" = ()

    def __post_init__(self) -> None:
        if not self.bases:
            raise PimConfigError("a sweep needs at least one base backend")
        if not self.benchmarks:
            raise PimConfigError("a sweep needs at least one benchmark")
        if self.num_ranks < 1:
            raise PimConfigError(
                f"num_ranks must be >= 1, got {self.num_ranks}",
                num_ranks=self.num_ranks,
            )
        if not self.axes and not self.points:
            raise PimConfigError(
                "a sweep needs 'axes' and/or 'points'; it compiled to "
                "zero design points", name=self.name,
            )
        for knob, values in self.axes:
            if not values:
                raise PimConfigError(
                    f"axis {knob!r} has no values", axis=knob,
                )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: "typing.Mapping[str, object]") -> "SweepSpec":
        """Build and validate a spec from a JSON-shaped dict."""
        if not isinstance(raw, dict):
            raise PimConfigError(
                f"a sweep spec must be a JSON object, got {type(raw).__name__}"
            )
        unknown = sorted(set(raw) - set(_SPEC_KEYS))
        if unknown:
            raise PimConfigError(
                f"unknown sweep-spec key(s) {unknown}; "
                f"known: {', '.join(_SPEC_KEYS)}",
                unknown=unknown,
            )
        if "base" in raw and "bases" in raw:
            raise PimConfigError("give 'base' or 'bases', not both")
        bases = raw.get("bases", [raw["base"]] if "base" in raw else ["bank"])
        if isinstance(bases, str) or not isinstance(bases, (list, tuple)):
            raise PimConfigError(
                f"'bases' must be a list of backend names, got {bases!r}",
                field="bases",
            )
        benchmarks = raw.get("benchmarks", ["vecadd"])
        if isinstance(benchmarks, str) or not isinstance(
            benchmarks, (list, tuple)
        ):
            raise PimConfigError(
                f"'benchmarks' must be a list of benchmark keys, "
                f"got {benchmarks!r}", field="benchmarks",
            )
        from repro.engine.cells import benchmark_keys

        known = benchmark_keys()
        for key in benchmarks:
            if key not in known:
                raise PimConfigError(
                    f"unknown benchmark {key!r}; "
                    f"known benchmarks: {', '.join(known)}",
                    benchmark=str(key), known=known,
                )
        num_ranks = raw.get("num_ranks", 4)
        if not isinstance(num_ranks, int) or isinstance(num_ranks, bool):
            raise PimConfigError(
                f"'num_ranks' must be an integer, got {num_ranks!r}",
                field="num_ranks",
            )
        axes_raw = raw.get("axes", {})
        if not isinstance(axes_raw, dict):
            raise PimConfigError(
                f"'axes' must be an object of knob -> value list, "
                f"got {axes_raw!r}", field="axes",
            )
        axes = []
        for knob, values in axes_raw.items():
            if knob not in KNOB_NAMES:
                raise PimConfigError(
                    f"unknown sweep axis {knob!r}; "
                    f"known knobs: {', '.join(KNOB_NAMES)}",
                    axis=str(knob), known=list(KNOB_NAMES),
                )
            if isinstance(values, (str, bytes)) or not isinstance(
                values, (list, tuple)
            ):
                raise PimConfigError(
                    f"axis {knob!r} needs a list of values, got {values!r}",
                    axis=str(knob),
                )
            axes.append((str(knob), tuple(values)))
        points_raw = raw.get("points", [])
        if not isinstance(points_raw, (list, tuple)):
            raise PimConfigError(
                f"'points' must be a list of knob objects, got {points_raw!r}",
                field="points",
            )
        points = []
        for index, point in enumerate(points_raw):
            if not isinstance(point, dict):
                raise PimConfigError(
                    f"points[{index}] must be a knob object, got {point!r}",
                    field="points", index=index,
                )
            points.append(tuple(sorted(point.items())))
        return cls(
            name=str(raw.get("name", "sweep")),
            bases=tuple(str(b) for b in bases),
            benchmarks=tuple(str(b) for b in benchmarks),
            num_ranks=num_ranks,
            axes=tuple(axes),
            points=tuple(points),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise PimConfigError(
                f"sweep spec is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: "str | os.PathLike") -> "SweepSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise PimConfigError(
                f"cannot read sweep spec {path}: {exc}", path=str(path),
            ) from None
        return cls.from_json(text)

    def to_dict(self) -> "dict[str, object]":
        """JSON-shaped echo of the spec (report provenance)."""
        return {
            "name": self.name,
            "bases": list(self.bases),
            "benchmarks": list(self.benchmarks),
            "num_ranks": self.num_ranks,
            "axes": {knob: list(values) for knob, values in self.axes},
            "points": [dict(point) for point in self.points],
        }

    # -- compilation ----------------------------------------------------------

    def compile_points(self) -> "tuple[SweepPoint, ...]":
        """Enumerate the de-duplicated design points, in grid order.

        For every base: the cartesian product of the axes (row-major in
        declared axis/value order), then the explicit points.  Knob
        dicts are normalized against the base backend, so two spellings
        of the same design (key order, ``pe_width_bits`` vs the concrete
        field, int vs float) collapse into one point.  Raises a coded
        error if the total exceeds :func:`max_points`, before any
        backend is derived.
        """
        import itertools

        from repro.arch.registry import resolve_backend

        combos = 1
        for _, values in self.axes:
            combos *= len(values)
        total = len(self.bases) * (combos if self.axes else 0)
        total += len(self.bases) * len(self.points)
        ceiling = max_points()
        if total > ceiling:
            raise PimConfigError(
                f"sweep {self.name!r} compiles to {total} points, above "
                f"the {ceiling}-point ceiling; shrink the axes or raise "
                f"{MAX_POINTS_ENV}",
                points=total, ceiling=ceiling,
            )
        compiled: "list[SweepPoint]" = []
        seen: "set[tuple[str, tuple]]" = set()
        for base_name in self.bases:
            base = resolve_backend(base_name)
            candidates: "list[dict[str, object]]" = []
            if self.axes:
                names = [knob for knob, _ in self.axes]
                for values in itertools.product(
                    *(values for _, values in self.axes)
                ):
                    candidates.append(dict(zip(names, values)))
            candidates.extend(dict(point) for point in self.points)
            for knobs in candidates:
                normalized = normalize_knobs(base, knobs)
                key = (base.id, normalized)
                if key in seen:
                    continue
                seen.add(key)
                compiled.append(SweepPoint(base=base.id, knobs=normalized))
        return tuple(compiled)
