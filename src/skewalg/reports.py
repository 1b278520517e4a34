"""Structured plain-text reports with byte-stable rendering."""


class Report:
    """Key-value lines grouped under [section] headers, echoing the command."""

    def __init__(self, command):
        self.lines = [f"command: {command}"]

    def add_section(self, name):
        self.lines.append("")
        self.lines.append(f"[{name}]")

    def add(self, key, value):
        self.lines.append(f"{key}: {value}")

    def render(self):
        return "\n".join(self.lines) + "\n"


def classification_items(classification):
    """(variety, verdict text) pairs in the fixed classification order."""
    items = []
    for v in classification.verdicts:
        if v.member:
            items.append((v.variety, "holds"))
        else:
            items.append(
                (
                    v.variety,
                    f"FAILS ({v.failed_identity}; witness {v.witness.describe()})",
                )
            )
    return items
