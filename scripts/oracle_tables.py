#!/usr/bin/env python3
"""Print character-oracle dimension tables for a range of n.

The oracle averages exterior-power characters over conjugacy classes,
so it reaches n well past what the explicit kernel engine handles;
each row is checked against the closed-form vector, and the first
mismatch ends the listing with exit code 1.

usage: oracle_tables.py [n_max]
"""

import sys

from equivext.cli import TABLE_ORDER, _oracle_extension
from equivext.dimformulas import formula_table


def main(n_max: int = 8) -> int:
    for entry in _oracle_extension(2, n_max):
        n = entry["n"]
        print(f"n = {n}")
        for family in TABLE_ORDER:
            dims = entry[family]
            match = dims == list(formula_table(family, n).dims)
            tag = "OK" if match else "MISMATCH"
            print(f"  {family:9s} ({','.join(map(str, dims))})  {tag}")
            if not match:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 8))
