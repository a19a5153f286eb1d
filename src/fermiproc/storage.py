"""On-disk format of the ledger time series (CSV)."""

from pathlib import Path

from .observables import ProcessRecord

CSV_HEADER = ",".join(ProcessRecord.CSV_FIELDS)


def format_float(x):
    return f"{x:.17g}"


def write_series_csv(path, records):
    """Write the ledger time series with 17 significant digits per field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(",".join(format_float(v) for v in rec.csv_row()) + "\n")
    return path


def read_series_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            vals = [float(x) for x in line.split(",")]
            records.append(ProcessRecord(*vals))
    return records


__all__ = ["write_series_csv", "read_series_csv", "CSV_HEADER", "format_float"]
