"""The unified tuning request schema: one object, every tuner entry.

Production traffic reaches the autotuner in three modes — nominal
tuning (:func:`repro.autotuner.search.tune_model`), fault-aware tuning
(``robust_tune_model``), and the memoized ``degraded_retune`` stage —
each with its own positional engine function. :class:`TuneRequest`
covers all three with one keyword-only dataclass that the CLI, the
Python API, and the serving layer (:mod:`repro.service.server`) all
share; :meth:`TuneRequest.run` is the way to call the tuner:

* :meth:`TuneRequest.canonical` collapses every knob the requested
  mode ignores (the request-level analogue of
  :meth:`repro.algorithms.base.DistributedGeMM.canonical_config`), so
  near-duplicate production queries collapse onto one cache identity;
* :meth:`TuneRequest.cache_key` hashes the canonical JSON form into
  the content address used by the in-memory result cache and the
  on-disk :class:`repro.service.store.PlanStore`;
* :func:`execute` dispatches a request to the engine function of its
  mode and returns the mode's result object (``repro.tune`` and
  ``repro.robust_tune`` are this function).

The positional ``tune(model, batch, ...)``, ``robust_tune(...)`` and
``degraded_retune(...)`` shims, deprecated since 1.6.0, were removed
in 1.10.0.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Dict, Optional, Tuple

from repro.faults.hard import HardFault
from repro.faults.spec import FaultSpec
from repro.hw.params import HardwareParams
from repro.mesh.topology import Mesh2D
from repro.models.config import LLMConfig

#: The three tuning modes a request can ask for.
MODES = ("tune", "robust", "degraded")

#: Version of the canonical JSON schema; bump on incompatible change
#: so stored plans from older layouts are treated as misses, never
#: misread.
SCHEMA_VERSION = 1

# Keyword-only construction documents the API redesign contract; the
# dataclass kw_only knob only exists on Python 3.10+, so on 3.9 the
# fields are merely defaulted (the field order below keeps that legal).
_KW_ONLY = {"kw_only": True} if sys.version_info >= (3, 10) else {}


@dataclasses.dataclass(frozen=True, **_KW_ONLY)
class TuneRequest:
    """One autotuning query, whatever the mode.

    Attributes:
        model: The LLM architecture to tune.
        batch: Global batch size (sequences).
        hw: Hardware parameters of the target cluster.
        mode: ``"tune"`` (nominal autotuner), ``"robust"`` (tail-
            quantile search over a fault ensemble), or ``"degraded"``
            (re-tune on the torus surviving one dead chip).
        chips: Cluster size; ignored by ``"degraded"`` (the surviving
            ``mesh`` fixes it).
        optimize_dataflow: Autotuner Phase-1 on/off.
        min_mesh_dim: Smallest torus dimension considered.
        max_slices: Upper bound of the slice-count search.
        abft: Tune for ABFT-protected GeMMs.
        sdc_rate: Silent-corruption rate driving the ABFT recompute
            term; meaningless (and canonicalized away) without
            ``abft``.
        algorithm: Distributed GeMM algorithm simulated by robust
            mode; nominal and degraded tuning always use the shared
            analytical models.
        spec: Fault ensemble description (robust mode only).
        ensemble: Number of sampled fault plans (robust mode only).
        quantile: Tail quantile minimized by robust mode.
        mesh: The original (pre-failure) torus of degraded mode.
        dead: Coordinates of the dead chip in degraded mode.
        engine: Simulation engine hint (``"heap"``/``"compiled"``).
            Execution-only: both engines are bit-identical by
            contract, so the hint never enters the cache key.
    """

    model: LLMConfig
    batch: int
    hw: HardwareParams
    mode: str = "tune"
    chips: int = 0
    optimize_dataflow: bool = True
    min_mesh_dim: int = 2
    max_slices: int = 64
    abft: bool = False
    sdc_rate: float = 0.0
    algorithm: str = "meshslice"
    spec: Optional[FaultSpec] = None
    ensemble: int = 16
    quantile: float = 0.95
    mesh: Optional[Mesh2D] = None
    dead: Optional[Tuple[int, int]] = None
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.max_slices < 1:
            raise ValueError("max_slices must be >= 1")
        if not 0.0 <= self.sdc_rate <= 1.0:
            raise ValueError("sdc_rate must be in [0, 1]")
        if self.mode in ("tune", "robust") and self.chips < 1:
            raise ValueError(f"{self.mode} mode needs chips >= 1")
        if self.mode == "robust":
            if self.spec is None:
                raise ValueError("robust mode needs a fault spec")
            if self.ensemble < 1:
                raise ValueError("ensemble must be >= 1")
            if not 0.0 < self.quantile <= 1.0:
                raise ValueError("quantile must be in (0, 1]")
        if self.mode == "degraded":
            if self.mesh is None or self.dead is None:
                raise ValueError(
                    "degraded mode needs the original mesh and the "
                    "dead chip's coordinates"
                )
            if self.dead not in self.mesh.coords():
                raise ValueError(
                    f"dead chip {self.dead} outside {self.mesh}"
                )

    # ------------------------------------------------------ canonical form

    def canonical(self) -> "TuneRequest":
        """The representative of this request's equivalence class.

        Two requests that must produce identical results share one
        canonical form: every knob the mode ignores is reset to its
        default, ``sdc_rate`` collapses to 0 without ABFT (the
        protected estimate is the only reader), degraded mode derives
        ``chips`` from the surviving mesh, and the engine hint is
        dropped entirely (engines are bit-identical by contract).
        """
        replacements: Dict[str, Any] = {"engine": None}
        if not self.abft:
            replacements["sdc_rate"] = 0.0
        if self.mode != "robust":
            replacements.update(
                algorithm="meshslice", spec=None, ensemble=16,
                quantile=0.95,
            )
        if self.mode == "degraded":
            # The memoized degraded stage runs with the tuner defaults;
            # only (model, batch, mesh, dead, hw) key it.
            replacements.update(
                chips=self.mesh.size,
                optimize_dataflow=True, min_mesh_dim=2, max_slices=64,
                abft=False, sdc_rate=0.0,
            )
        else:
            replacements.update(mesh=None, dead=None)
        canonical = dataclasses.replace(self, **replacements)
        return self if canonical == self else canonical

    def cache_key(self) -> str:
        """Content address of the canonical form (sha256 hex digest)."""
        payload = json.dumps(
            self.canonical().to_dict(),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (stable schema; see ``from_dict``)."""
        return {
            "schema": SCHEMA_VERSION,
            "mode": self.mode,
            "model": _encode_dataclass(self.model),
            "batch": self.batch,
            "chips": self.chips,
            "hw": _encode_dataclass(self.hw),
            "optimize_dataflow": self.optimize_dataflow,
            "min_mesh_dim": self.min_mesh_dim,
            "max_slices": self.max_slices,
            "abft": self.abft,
            "sdc_rate": self.sdc_rate,
            "algorithm": self.algorithm,
            "spec": _encode_spec(self.spec),
            "ensemble": self.ensemble,
            "quantile": self.quantile,
            "mesh": list(self.mesh.shape) if self.mesh else None,
            "dead": list(self.dead) if self.dead else None,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TuneRequest":
        """Build a request from a dict (CLI query files, store records).

        ``model`` and ``hw`` accept either a registry name
        (``"gpt3-175b"``, ``"tpuv4-sim"``) or the full field dict the
        serializer emits, so handwritten query files stay short.
        """
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported TuneRequest schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known - {"schema"}
        if unknown:
            raise ValueError(
                f"unknown TuneRequest fields: {sorted(unknown)}"
            )
        kwargs: Dict[str, Any] = {
            key: value
            for key, value in data.items()
            if key in known and value is not None
        }
        if "model" in kwargs:
            kwargs["model"] = _decode_model(kwargs["model"])
        if "hw" in kwargs:
            kwargs["hw"] = _decode_hw(kwargs["hw"])
        if "spec" in kwargs:
            kwargs["spec"] = _decode_spec(kwargs["spec"])
        if "mesh" in kwargs:
            kwargs["mesh"] = Mesh2D(*kwargs["mesh"])
        if "dead" in kwargs:
            kwargs["dead"] = tuple(kwargs["dead"])
        return cls(**kwargs)

    def run(self):
        """Execute this request directly (no store, no service)."""
        return execute(self)


# ------------------------------------------------------------ field codecs


def _encode_dataclass(value: Any) -> Dict[str, Any]:
    """Flat frozen dataclass -> field dict (LLMConfig, HardwareParams)."""
    return {
        field.name: getattr(value, field.name)
        for field in dataclasses.fields(value)
    }


def _decode_model(value: Any) -> LLMConfig:
    if isinstance(value, LLMConfig):
        return value
    if isinstance(value, str):
        from repro.models import get_model

        return get_model(value)
    return LLMConfig(**value)


def _decode_hw(value: Any) -> HardwareParams:
    if isinstance(value, HardwareParams):
        return value
    if isinstance(value, str):
        from repro.hw import get_preset

        return get_preset(value)
    return HardwareParams(**value)


def _encode_spec(spec: Optional[FaultSpec]) -> Optional[Dict[str, Any]]:
    if spec is None:
        return None
    data = _encode_dataclass(spec)
    if spec.retry_policy is not None:
        data["retry_policy"] = _encode_dataclass(spec.retry_policy)
    data["hard_faults"] = [
        _encode_dataclass(fault) for fault in spec.hard_faults
    ]
    return data


def _decode_spec(value: Any) -> FaultSpec:
    if isinstance(value, FaultSpec):
        return value
    data = dict(value)
    if data.get("retry_policy") is not None:
        from repro.recovery.retry import RetryPolicy

        data["retry_policy"] = RetryPolicy(**data["retry_policy"])
    data["hard_faults"] = tuple(
        HardFault(**fault) for fault in data.get("hard_faults") or ()
    )
    return FaultSpec(**data)


# --------------------------------------------------------------- dispatch


def execute(request: TuneRequest):
    """Run one request through the engine function of its mode.

    This is the cold path — no plan store, no request coalescing; the
    serving layer (:class:`repro.service.server.TunerService`) wraps it
    with both. Returns the mode's native result object:
    :class:`~repro.autotuner.TuningResult`,
    :class:`~repro.autotuner.RobustTuningResult`, or
    :class:`~repro.recovery.degraded.DegradedRetune`.
    """
    if request.engine is not None:
        from repro.sim.compiled import set_default_engine

        set_default_engine(request.engine)
    request = request.canonical()
    if request.mode == "tune":
        from repro.autotuner.search import tune_model

        return tune_model(
            request.model,
            request.batch,
            request.chips,
            request.hw,
            optimize_dataflow=request.optimize_dataflow,
            min_mesh_dim=request.min_mesh_dim,
            max_slices=request.max_slices,
            abft=request.abft,
            sdc_rate=request.sdc_rate,
        )
    if request.mode == "robust":
        from repro.autotuner.search import robust_tune_model

        return robust_tune_model(
            request.model,
            request.batch,
            request.chips,
            request.hw,
            spec=request.spec,
            ensemble=request.ensemble,
            quantile=request.quantile,
            algorithm=request.algorithm,
            optimize_dataflow=request.optimize_dataflow,
            min_mesh_dim=request.min_mesh_dim,
            max_slices=request.max_slices,
            abft=request.abft,
            sdc_rate=request.sdc_rate,
        )
    from repro.perf.pipeline import degraded_retune_model

    return degraded_retune_model(
        request.model, request.batch, request.mesh, request.dead, request.hw
    )
