"""Violation reports: checkers return data, they do not raise on math
failures.  A report is empty iff every checked axiom holds exactly."""


class ViolationReport:
    def __init__(self):
        self.entries = []

    def add(self, tag, indices=None, lhs=None, rhs=None, note=None):
        self.entries.append({
            "tag": tag,
            "indices": indices,
            "lhs": lhs,
            "rhs": rhs,
            "note": note,
        })

    def merge(self, other):
        self.entries.extend(other.entries)
        return self

    def require(self, condition, tag, indices=None, lhs=None, rhs=None, note=None):
        if not condition:
            self.add(tag, indices, lhs, rhs, note)
        return condition

    @property
    def ok(self):
        return not self.entries

    def tags(self):
        return sorted({e["tag"] for e in self.entries})

    def to_json(self):
        out = []
        for e in self.entries:
            out.append({"tag": e["tag"],
                        "indices": e["indices"],
                        "note": e["note"]})
        return out

    def __repr__(self):
        if self.ok:
            return "ViolationReport(ok)"
        return "ViolationReport(%d violations: %s)" % (
            len(self.entries), ", ".join(self.tags()))
