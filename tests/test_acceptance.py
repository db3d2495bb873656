"""Acceptance gate: the package's headline claims at full scale.

One test per row of `landau_cylinder.verify.CHECKS`, run on the row's full
inputs.  Each prints one [PASS]/[FAIL] line with the measured numbers, then
asserts.  The checks and their tolerances live in the table, which
`landau-cylinder verify` runs on the rows' quick inputs.
"""

from landau_cylinder.verify import CHECKS


def _gate(check):
    def test(capsys):
        ok, detail = check.run(check.full, check.seed)
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {check.label}: {detail}")
        assert ok, f"{check.label}: {detail}"

    return test


# one module-level test per row, so ids stay stable: test_<NN>_<name> for
# the numbered criteria, test_<name> for the other rows
for _check in CHECKS:
    _prefix = f"{_check.criterion[0]:02d}_" if _check.criterion else ""
    globals()[f"test_{_prefix}{_check.name}"] = _gate(_check)
