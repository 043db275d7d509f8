"""Declarative objectives over the benchmark history, one evaluator.

An objective is a bound on one observe-store metric, checked per
(bench, axis) group over a trailing window of records.  The bound is
either

* **absolute** (``baseline`` 0) — the service-level question *is the
  system meeting its stated objective over time*: the paper's real-time
  line (decode fps >= 25 at 720p) or the origin's deadline discipline
  (miss rate <= 2%); or
* **baseline-relative** (``baseline`` N > 0) — the regression question
  *did the newest run move against its own history*: the bound sits at
  the median of the N records before the group's newest record, widened
  by the larger of ``objective`` (a fraction of that median when
  ``relative``) and the noise band ``mad_sigmas * 1.4826 * MAD``.  The
  band is the robust analogue of k-sigma: a jittery axis is not flagged
  for its ordinary jitter while a quiet axis still trips on small, real
  shifts.  The newest record is the one judged, so an axis whose newest
  record lacks the metric has nothing to judge.

Specs are schema-versioned documents (``repro.observe.slo/1``)::

    {"schema": "repro.observe.slo/1",
     "objectives": [
       {"name": "serve-deadline-miss", "bench": "serve",
        "metric": "deadline_miss_rate", "objective": 0.02,
        "direction": "max", "window": 8, "fast_window": 2,
        "budget": 0.25, "burn_threshold": 2.0}]}

Evaluation follows the multi-window burn-rate pattern: each window's
**burn rate** is the fraction of violating records divided by the error
``budget`` (the tolerated violating fraction).  Burn 1.0 consumes the
budget exactly; a *fast* window burning at ``burn_threshold`` while the
*slow* window also burns ≥ 1.0 pages (OBS301) — that combination means
the breach is both severe and sustained, the standard defence against
paging on a single bad record.  Exhausting the slow-window budget
outright is OBS302; the newest record simply violating the bound is
reported under the objective's ``rule_id`` (OBS300 by default).

The regression gate (``hdvb-observe gate``) is :data:`DEFAULT_GATES`:
baseline-relative objectives over every bench with a one-record window
whose budget is the whole window.  Such a window never burns, so only
the newest-record finding fires, under the OBS201–207 rule ids.

Findings reuse :class:`repro.analysis.findings.Finding`, so the lint
reporters and the 0/1/2 exit-code convention apply unchanged, and the
whole pass is pure arithmetic over stored records — same history, same
findings, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, sort_findings
from repro.errors import ObserveError
from repro.observe.record import BenchRecord
from repro.observe.store import HistoryStore

#: Schema of one SLO spec document.
SLO_SCHEMA = "repro.observe.slo/1"

#: Trailing records in the slow window by default.
DEFAULT_WINDOW = 8

#: Trailing records in the fast window by default.
DEFAULT_FAST_WINDOW = 2

#: Fraction of a window's records allowed to violate the objective.
DEFAULT_BUDGET = 0.25

#: Fast-window burn rate that, combined with slow burn >= 1, alerts.
DEFAULT_BURN_THRESHOLD = 2.0

#: Records before the newest one that the regression gate's median uses.
DEFAULT_BASELINE = 5

#: Noise band width of a baseline-relative bound, in robust sigmas.
DEFAULT_MAD_SIGMAS = 3.0

#: Consistent-estimator factor: MAD * 1.4826 estimates one sigma for
#: normally distributed noise.
MAD_SIGMA_FACTOR = 1.4826

#: JSON-to-field coercions of :meth:`SloObjective.from_dict`, keyed by
#: the field's annotation (``axes`` is the one mapping).
_COERCE = {"str": str, "int": int, "float": float, "bool": bool}


def median(values: Sequence[float]) -> float:
    if not values:
        raise ObserveError("median of an empty sequence")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median."""
    centre = median(values)
    return median([abs(value - centre) for value in values])


@dataclass(frozen=True)
class SloObjective:
    """One objective over an observe-store metric.

    ``direction`` is the side the bound sits on: ``"max"`` means the
    metric must stay at or below it (a miss-rate ceiling, a bitrate that
    must not grow), ``"min"`` means at or above (an fps floor).
    ``bench`` ``"*"`` applies to every bench.  ``axes`` filters the
    records the objective applies to (subset match on the record's
    axes); empty applies to every axis group.  A ``baseline`` above 0
    makes ``objective`` a tolerance around the median of that many
    earlier records (see the module docstring); ``rule_id`` and ``unit``
    label the newest-record finding.
    """

    name: str
    bench: str
    metric: str
    objective: float
    direction: str = "max"            # "max" | "min"
    window: int = DEFAULT_WINDOW
    fast_window: int = DEFAULT_FAST_WINDOW
    budget: float = DEFAULT_BUDGET
    burn_threshold: float = DEFAULT_BURN_THRESHOLD
    axes: Mapping[str, Any] = field(default_factory=dict)
    baseline: int = 0
    relative: bool = False
    mad_sigmas: float = DEFAULT_MAD_SIGMAS
    rule_id: str = "OBS300"
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ObserveError("SLO objective needs a non-empty name")
        if not self.bench or not self.metric:
            raise ObserveError(
                f"SLO {self.name!r} needs both a bench and a metric")
        if self.direction not in ("max", "min"):
            raise ObserveError(
                f"SLO {self.name!r} direction must be 'max' or 'min', "
                f"got {self.direction!r}")
        if self.window < 1 or self.fast_window < 1:
            raise ObserveError(
                f"SLO {self.name!r} windows must be >= 1, got "
                f"window={self.window} fast_window={self.fast_window}")
        if self.fast_window > self.window:
            raise ObserveError(
                f"SLO {self.name!r} fast_window ({self.fast_window}) "
                f"cannot exceed window ({self.window})")
        if not 0.0 < self.budget <= 1.0:
            raise ObserveError(
                f"SLO {self.name!r} budget must be in (0, 1], "
                f"got {self.budget}")
        if self.burn_threshold < 1.0:
            raise ObserveError(
                f"SLO {self.name!r} burn_threshold must be >= 1, "
                f"got {self.burn_threshold}")
        if self.baseline < 0 or self.mad_sigmas < 0:
            raise ObserveError(
                f"SLO {self.name!r} baseline and mad_sigmas must be >= 0, "
                f"got baseline={self.baseline} mad_sigmas={self.mad_sigmas}")

    def excess(self, value: float, reference: float) -> float:
        """How far ``value`` sits past ``reference`` on the bad side."""
        if self.direction == "max":
            return value - reference
        return reference - value

    def to_dict(self) -> Dict[str, Any]:
        data = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        data["axes"] = dict(self.axes)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloObjective":
        if not isinstance(data, Mapping):
            raise ObserveError(
                f"SLO objective must be an object, got {type(data).__name__}")
        known = {spec.name: spec for spec in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ObserveError(
                f"SLO objective has unknown keys: {sorted(unknown)}")
        for name, spec in known.items():
            if (name not in data and spec.default is MISSING
                    and spec.default_factory is MISSING):
                raise ObserveError(
                    f"SLO objective missing required key {name!r}")
        try:
            return cls(**{name: _COERCE.get(known[name].type, dict)(value)
                          for name, value in data.items()})
        except (TypeError, ValueError) as error:
            raise ObserveError(f"malformed SLO objective: {error}") from None


#: The default objectives: the origin's deadline discipline, the paper's
#: 25 fps real-time line at the 720p tier, and graceful degradation.
DEFAULT_SLOS: Tuple[SloObjective, ...] = (
    SloObjective(name="serve-deadline-miss", bench="serve",
                 metric="deadline_miss_rate", objective=0.02,
                 direction="max"),
    SloObjective(name="serve-graceful", bench="serve",
                 metric="graceful_rate", objective=0.98, direction="min"),
    SloObjective(name="decode-realtime-720p", bench="performance",
                 metric="fps", objective=25.0, direction="min",
                 axes={"operation": "decode", "resolution": "720p25"}),
)


def _gate(metric: str, rule_id: str, direction: str, tolerance: float,
          relative: bool = False, unit: str = "") -> SloObjective:
    return SloObjective(
        name=f"gate-{metric}", bench="*", metric=metric,
        objective=tolerance, direction=direction, window=1, fast_window=1,
        budget=1.0, baseline=DEFAULT_BASELINE, relative=relative,
        rule_id=rule_id, unit=unit)


#: The regression gate: the paper-level tolerances (throughput drop
#: > 10 %, PSNR drop > 0.1 dB, bitrate growth > 2 %), plus the
#: resilience-rate and concealment-quality analogues so the robustness
#: and streaming benches gate through the same machinery.
DEFAULT_GATES: Tuple[SloObjective, ...] = (
    _gate("fps", "OBS201", "min", 0.10, relative=True, unit="fps"),
    _gate("psnr_db", "OBS202", "min", 0.1, unit="dB"),
    _gate("bitrate_kbps", "OBS203", "max", 0.02, relative=True,
          unit="kbit/s"),
    _gate("graceful_rate", "OBS204", "min", 0.02),
    _gate("conceal_rate", "OBS204", "min", 0.02),
    _gate("complete_rate", "OBS204", "min", 0.02),
    _gate("fec_recovery_rate", "OBS204", "min", 0.02),
    _gate("mean_psnr_delta_db", "OBS205", "min", 0.1, unit="dB"),
    # OBS206: the streaming-origin serve gate.  Rates are absolute
    # fractions; throughput and tail latency are relative to the rolling
    # median.  ``unhandled_escapes`` has zero tolerance — one task
    # escaping raw is a regression by definition.
    _gate("deadline_miss_rate", "OBS206", "max", 0.02),
    _gate("p99_miss_seconds", "OBS206", "max", 0.25, relative=True,
          unit="s"),
    _gate("shed_rate", "OBS206", "max", 0.02),
    _gate("sessions_per_second", "OBS206", "min", 0.10, relative=True),
    _gate("unhandled_escapes", "OBS206", "max", 0.0),
    # OBS207: the orchestrator run gate.  ``cell_failure_rate`` has zero
    # tolerance — a matrix with newly failing cells is a regression even
    # when the rest speeds up.  ``cache_hit_rate`` guards the artifact
    # cache's economy (a rerun of an unchanged spec should hit ~always);
    # ``cells_per_second`` guards orchestration throughput relative to
    # the rolling median.
    _gate("cell_failure_rate", "OBS207", "max", 0.0),
    _gate("cache_hit_rate", "OBS207", "min", 0.05),
    _gate("cells_per_second", "OBS207", "min", 0.10, relative=True),
)


def load_slo_spec(path: str) -> Tuple[SloObjective, ...]:
    """Parse and validate a ``repro.observe.slo/1`` spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ObserveError(f"cannot read SLO spec {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ObserveError(
            f"SLO spec {path} is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ObserveError(f"SLO spec {path} must be a JSON object")
    schema = document.get("schema")
    if schema != SLO_SCHEMA:
        raise ObserveError(
            f"SLO spec {path} has schema {schema!r}, expected {SLO_SCHEMA!r}")
    objectives = document.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        raise ObserveError(
            f"SLO spec {path} needs a non-empty 'objectives' list")
    parsed = tuple(SloObjective.from_dict(entry) for entry in objectives)
    names = [objective.name for objective in parsed]
    if len(set(names)) != len(names):
        raise ObserveError(f"SLO spec {path} has duplicate objective names")
    return parsed


@dataclass(frozen=True)
class SloStatus:
    """The evaluated state of one objective on one axis group."""

    objective: SloObjective
    bench: str
    axis_key: str
    records: int                  #: records considered (<= window)
    violations: int               #: violating records in the slow window
    fast_violations: int          #: violating records in the fast window
    slow_burn: float              #: violating fraction / budget, slow
    fast_burn: float              #: violating fraction / budget, fast
    latest_value: float
    latest_run: str
    reference: float              #: the bound, or the baseline median
    tolerance: float              #: excess allowed past ``reference``
    baseline_runs: int            #: records behind the median (0: absolute)

    @property
    def budget_remaining(self) -> float:
        """Fraction of the slow-window error budget still unspent."""
        return max(0.0, 1.0 - self.slow_burn)

    @property
    def breached(self) -> bool:
        return self.slow_burn > 1.0

    @property
    def bound_text(self) -> str:
        metric = self.objective.metric
        if self.objective.direction == "max":
            return f"{metric} <= {self.reference + self.tolerance:g}"
        return f"{metric} >= {self.reference - self.tolerance:g}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective.name,
            "bench": self.bench,
            "bound": self.bound_text,
            "axis": self.axis_key,
            "records": self.records,
            "violations": self.violations,
            "fast_violations": self.fast_violations,
            "slow_burn": round(self.slow_burn, 6),
            "fast_burn": round(self.fast_burn, 6),
            "budget_remaining": round(self.budget_remaining, 6),
            "latest_value": self.latest_value,
            "latest_run": self.latest_run,
        }


def _axes_match(objective: SloObjective, record: BenchRecord) -> bool:
    return all(str(record.axes.get(key)) == str(value)
               for key, value in objective.axes.items())


def evaluate_slo(history: Sequence[BenchRecord], objective: SloObjective,
                 bench: str, axis_key: str) -> Optional[SloStatus]:
    """Evaluate one objective over one axis group's trailing records."""
    metric = objective.metric
    considered = [record for record in history if metric in record.metrics]
    if not considered:
        return None
    reference, tolerance, prior = objective.objective, 0.0, []
    if objective.baseline:
        # The baseline is the slice before the group's newest record,
        # filtered by metric after slicing; a newest record without the
        # metric leaves nothing to judge.
        prior = [record.metrics[metric]
                 for record in history[-1 - objective.baseline:-1]
                 if metric in record.metrics]
        if metric not in history[-1].metrics or not prior:
            return None
        reference = median(prior)
        limit = (objective.objective * abs(reference) if objective.relative
                 else objective.objective)
        tolerance = max(limit,
                        objective.mad_sigmas * MAD_SIGMA_FACTOR * mad(prior))
    slow = [objective.excess(record.metrics[metric], reference) > tolerance
            for record in considered[-objective.window:]]
    fast = slow[-objective.fast_window:]
    newest = considered[-1]
    return SloStatus(
        objective=objective,
        bench=bench,
        axis_key=axis_key,
        records=len(slow),
        violations=sum(slow),
        fast_violations=sum(fast),
        slow_burn=(sum(slow) / len(slow)) / objective.budget,
        fast_burn=(sum(fast) / len(fast)) / objective.budget,
        latest_value=newest.metrics[metric],
        latest_run=newest.run_id,
        reference=reference,
        tolerance=tolerance,
        baseline_runs=len(prior),
    )


def evaluate_slos(store: HistoryStore,
                  objectives: Sequence[SloObjective] = DEFAULT_SLOS,
                  bench: Optional[str] = None,
                  ) -> Tuple[List[SloStatus], List[Finding]]:
    """Evaluate every objective over the store; statuses plus findings.

    Objectives whose bench has no matching records evaluate to nothing
    (an empty store is a clean store — there is no budget to burn).
    """
    location = str(store.path)
    grouped = sorted(store.history_per_axis(bench).items())
    statuses: List[SloStatus] = []
    findings: List[Finding] = []
    for objective in objectives:
        for (group_bench, axis_key), history in grouped:
            if objective.bench not in ("*", group_bench):
                continue
            matching = [record for record in history
                        if _axes_match(objective, record)]
            status = evaluate_slo(matching, objective, group_bench, axis_key)
            if status is None:
                continue
            statuses.append(status)
            findings.extend(_status_findings(status, location))
    return statuses, sort_findings(findings)


def _regression_message(status: SloStatus) -> str:
    """The newest-record message of a baseline-relative objective."""
    objective = status.objective
    value, centre = status.latest_value, status.reference
    move = objective.excess(value, centre)
    verb = "grew" if objective.direction == "max" else "dropped"
    unit = f" {objective.unit}" if objective.unit else ""
    if objective.relative and centre:
        amount = f"{abs(move) / abs(centre) * 100.0:.1f}%"
    else:
        amount = f"{abs(move):.3f}{unit}"
    return (
        f"{status.bench} [{status.axis_key}] {objective.metric} {verb} "
        f"{amount}: {value:.3f}{unit} vs rolling median {centre:.3f}{unit} "
        f"over {status.baseline_runs} run(s) "
        f"(tolerance {status.tolerance:.3f}{unit}, run {status.latest_run})"
    )


def _status_findings(status: SloStatus, location: str) -> List[Finding]:
    objective = status.objective
    module = f"{status.bench}:{status.axis_key}"
    findings: List[Finding] = []
    latest = status.latest_value
    if objective.excess(latest, status.reference) > status.tolerance:
        if objective.baseline:
            message = _regression_message(status)
            hint = ("confirm with a re-run; if the shift is intended, let "
                    "the new level enter the rolling baseline (or compact "
                    "the old history)")
        else:
            message = (f"SLO {objective.name}: latest record violates "
                       f"{status.bound_text} (value {latest:.4g}, "
                       f"run {status.latest_run})")
            hint = "a single violation spends budget; watch the burn rate"
        findings.append(Finding(rule_id=objective.rule_id, path=location,
                                module=module, line=0, message=message,
                                hint=hint))
    if (status.fast_burn >= objective.burn_threshold
            and status.slow_burn >= 1.0):
        findings.append(Finding(
            rule_id="OBS301",
            path=location,
            module=module,
            line=0,
            message=(
                f"SLO {objective.name}: burn-rate alert — fast window "
                f"burning at {status.fast_burn:.2f}x "
                f"(threshold {objective.burn_threshold:g}x) while the "
                f"slow window burns at {status.slow_burn:.2f}x "
                f"({status.violations}/{status.records} records violate "
                f"{status.bound_text})"),
            hint=(
                "a severe AND sustained breach: fix the regression or "
                "re-negotiate the objective"),
        ))
    if status.breached:
        findings.append(Finding(
            rule_id="OBS302",
            path=location,
            module=module,
            line=0,
            message=(
                f"SLO {objective.name}: error budget exhausted — "
                f"{status.violations}/{status.records} trailing records "
                f"violate {status.bound_text} "
                f"(budget {objective.budget:.0%} of the window, "
                f"burn {status.slow_burn:.2f}x)"),
            hint=(
                "freeze risky changes until the trailing window is back "
                "inside budget"),
        ))
    return findings


def render_slo_table(statuses: Sequence[SloStatus]) -> str:
    """Fixed-width human summary, one row per (objective, bench, axis)."""
    if not statuses:
        return "no SLO-relevant records in the store\n"
    headers = ("objective", "bench", "axis", "bound", "n", "viol", "fast",
               "slow-burn", "budget-left", "latest")
    rows = []
    for status in statuses:
        rows.append((
            status.objective.name,
            status.bench,
            status.axis_key or "-",
            status.bound_text,
            str(status.records),
            str(status.violations),
            str(status.fast_violations),
            f"{status.slow_burn:.2f}x",
            f"{status.budget_remaining:.0%}",
            f"{status.latest_value:.4g}",
        ))
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows))
              for i in range(len(headers))]
    lines = ["  ".join(header.ljust(widths[i])
                       for i, header in enumerate(headers))]
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def slo_document(statuses: Sequence[SloStatus],
                 findings: Sequence[Finding]) -> Dict[str, Any]:
    """The JSON evaluation report (statuses plus findings)."""
    return {
        "schema": SLO_SCHEMA,
        "statuses": [status.to_dict() for status in statuses],
        "findings": [finding.to_dict() for finding in findings],
    }


__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_BUDGET",
    "DEFAULT_BURN_THRESHOLD",
    "DEFAULT_FAST_WINDOW",
    "DEFAULT_GATES",
    "DEFAULT_MAD_SIGMAS",
    "DEFAULT_SLOS",
    "DEFAULT_WINDOW",
    "MAD_SIGMA_FACTOR",
    "SLO_SCHEMA",
    "SloObjective",
    "SloStatus",
    "evaluate_slo",
    "evaluate_slos",
    "load_slo_spec",
    "mad",
    "median",
    "render_slo_table",
    "slo_document",
]
