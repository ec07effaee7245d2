"""Reading a trace CSV back, for tests that check what ``write_trace``
wrote."""

import csv


def read_trace(path):
    """Parse a trace CSV back into its header and typed rows (ints for
    step/decision, floats elsewhere)."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        fields = list(reader.fieldnames or [])
        rows = [{key: int(value) if key in ("step", "decision") else float(value)
                 for key, value in raw.items()}
                for raw in reader]
    return fields, rows
