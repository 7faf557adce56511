"""CSV report and JSON sidecar emission.

The CSV body is a pure function of the resolved config: LF newlines, comma
separator, '.' decimal point, no locale or timestamp anywhere.  Timestamps
and environment notes live only in the sidecar.  Both files are written to
temporary files in the output directory first and renamed into place only
once both are complete, so a failed run never leaves a half-written report.
"""

from __future__ import annotations

import csv
import datetime
import json
import os
from pathlib import Path
from typing import Any

from .config import ConfigError
from .experiments import REPORT_COLUMNS


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(
    resolved: dict, rows: list[dict[str, Any]], tool_version: str
) -> tuple[Path, Path]:
    out_dir = Path(resolved["output"]["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"key 'dir': cannot create output directory '{out_dir}': {exc}") from exc
    basename = resolved["output"]["basename"]
    csv_path = out_dir / f"{basename}.csv"
    sidecar_path = out_dir / f"{basename}.meta.json"

    sidecar = {
        "schema_version": resolved["schema_version"],
        "tool": "gemmsim",
        "tool_version": tool_version,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "resolved_config": resolved,
        "csv": csv_path.name,
        "row_count": len(rows),
        "report_columns": REPORT_COLUMNS,
    }
    # Short fixed names, so any basename that fits a file name fits here too.
    tmp_csv, tmp_sidecar = (
        out_dir / f".gemmsim-{os.getpid()}{suffix}.tmp" for suffix in (".csv", ".meta.json")
    )
    try:
        with tmp_csv.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS)
            for row in rows:
                writer.writerow([_cell(row.get(col)) for col in REPORT_COLUMNS])
        with tmp_sidecar.open("w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_csv, csv_path)
        os.replace(tmp_sidecar, sidecar_path)
    finally:
        tmp_csv.unlink(missing_ok=True)
        tmp_sidecar.unlink(missing_ok=True)
    return csv_path, sidecar_path
