"""Machine-readable verification reports.

One document per run.  Numbers are serialized as decimal strings carrying
full working precision (shortest round-trip form for doubles), which keeps
reports diff-stable across platforms; the effective configuration snapshot
is embedded so a report can be reproduced exactly.  Fields are add-only:
parsers must tolerate unknown keys.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .evaluator import DEFAULT_MAX_TERMS
from .identities import VerificationRecord

TOOL_NAME = "autoseries"

#: Fixed CSV column order; append-only.
CSV_COLUMNS = (
    "identity",
    "s",
    "lhs_value",
    "lhs_bound",
    "rhs_value",
    "rhs_bound",
    "residual",
    "pass",
    "heuristic",
    "terms_used",
    "wall_time_s",
    "status",
    "reason",
)


def _num(x: float | None) -> str | None:
    # a refused record's values are NaN: it has none
    if x is None or math.isnan(x):
        return None
    return repr(float(x))


@dataclass
class RunConfig:
    """Effective settings for one run, after precedence resolution
    (flags > environment > config file > defaults)."""

    eps: float | None = None          # None: per-identity default tolerance
    precision_bits: int = 53
    max_terms: int = DEFAULT_MAX_TERMS
    out_format: str = "json"

    def snapshot(self) -> dict:
        return {
            "eps": _num(self.eps),
            "precision_bits": self.precision_bits,
            "max_terms": self.max_terms,
            "depth": None,  # add-only field; the FE depth is sized from s and eps
            "format": self.out_format,
        }


def record_to_dict(rec: VerificationRecord) -> dict:
    return {
        "identity": rec.identity_id,
        "s": _num(rec.s),
        "lhs_value": _num(rec.lhs_value),
        "lhs_bound": _num(rec.lhs_bound),
        "rhs_value": _num(rec.rhs_value),
        "rhs_bound": _num(rec.rhs_bound),
        "residual": _num(rec.residual),
        "pass": rec.passed,
        "heuristic": False,  # no check is heuristic; the key stays (fields are add-only)
        "terms_used": rec.terms_used,
        "wall_time_s": _num(rec.wall_time_s),
        "status": rec.status,
        "reason": rec.reason,
    }


def record_line(rec: VerificationRecord) -> str:
    """``[PASS]``/``[FAIL]`` with the residual and bounds, or ``[REFUSED]``
    with the reason."""
    s_txt = "-" if rec.s is None else f"{rec.s:g}"
    head = f"[{rec.status.upper()}] {rec.identity_id:<22s} s={s_txt:<6s}"
    if rec.reason is not None:
        return f"{head} {rec.reason}"
    return f"{head} residual={rec.residual:.3e} bounds={rec.lhs_bound + rec.rhs_bound:.3e}"


def record_from_dict(d: dict) -> VerificationRecord:
    def f(key):
        v = d.get(key)
        return math.nan if v is None else float(v)

    return VerificationRecord(
        identity_id=d["identity"],
        s=None if d.get("s") is None else float(d["s"]),
        lhs_value=f("lhs_value"),
        lhs_bound=f("lhs_bound"),
        rhs_value=f("rhs_value"),
        rhs_bound=f("rhs_bound"),
        residual=f("residual"),
        passed=bool(d["pass"]),
        terms_used=int(d.get("terms_used", 1)),
        wall_time_s=f("wall_time_s"),
        reason=d.get("reason"),
    )


@dataclass
class ReportDocument:
    """A full verification run: configuration, records, summary."""

    records: list[VerificationRecord] = field(default_factory=list)
    config: RunConfig = field(default_factory=RunConfig)
    version: str = "0.1.0"
    generated_at: str = ""

    def __post_init__(self) -> None:
        if not self.generated_at:
            self.generated_at = datetime.now(timezone.utc).isoformat(timespec="seconds")

    @property
    def summary(self) -> dict:
        """Record counts by status (passed + failed + refused = total)."""
        status = [r.status for r in self.records]
        return {
            "total": len(self.records),
            "passed": status.count("pass"),
            "failed": status.count("fail"),
            "wall_time_s": _num(sum(r.wall_time_s for r in self.records)),
            "refused": status.count("refused"),
        }

    def summary_line(self) -> str:
        sm = self.summary
        refused = f", {sm['refused']} refused" if sm["refused"] else ""
        return f"summary: {sm['passed']}/{sm['total']} passed{refused}"

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_obj(self) -> dict:
        return {
            "tool": TOOL_NAME,
            "version": self.version,
            "generated_at": self.generated_at,
            "config": self.config.snapshot(),
            "records": [record_to_dict(r) for r in self.records],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        obj = json.loads(text)
        cfg = obj.get("config", {})
        config = RunConfig(
            eps=None if cfg.get("eps") is None else float(cfg["eps"]),
            precision_bits=int(cfg.get("precision_bits", 53)),
            max_terms=int(cfg.get("max_terms", DEFAULT_MAX_TERMS)),
            out_format=cfg.get("format", "json"),
        )
        return cls(
            records=[record_from_dict(d) for d in obj.get("records", [])],
            config=config,
            version=obj.get("version", "unknown"),
            generated_at=obj.get("generated_at", ""),
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in self.records:
            d = record_to_dict(rec)
            # csv writes None (s of a fixed-form record) as ""
            writer.writerow(
                str(v).lower() if isinstance(v, bool) else v for v in map(d.get, CSV_COLUMNS)
            )
        return buf.getvalue()

    def to_text(self) -> str:
        lines = [f"{TOOL_NAME} {self.version} verification report ({self.generated_at})"]
        for rec in self.records:
            if rec.reason is not None:
                lines.append(f"  {record_line(rec)}")
                continue
            lines.append(f"  {record_line(rec)} terms={rec.terms_used}")
        lines.append(self.summary_line())
        return "\n".join(lines) + "\n"

    def render(self, out_format: str | None = None) -> str:
        fmt = out_format or self.config.out_format
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        if fmt == "text":
            return self.to_text()
        raise ValueError(f"unknown report format {fmt!r}")
