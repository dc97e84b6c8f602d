"""Record the expand digest table: every pool support in every characteristic.

    python3 perfbench/record_digests.py

Runs ``gvand expand`` in process on each (support, characteristic) of the
fixed expand pool and writes perfbench/expand_digests.json.  Run it only
at a commit whose expand output is trusted: the benchmark then counts
every later output that differs as a failed operation.
"""

import contextlib
import io
import json
import os
import sys

from checks import check_expand, expand_digest
from corpus import CHARS, expand_key, expand_pool
from passrun import import_cli
from run import DIGESTS, WORKDIR


def main() -> int:
    cli, _ = import_cli()
    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, "input.json")
    table = {}
    for (N, n), candidates in sorted(expand_pool().items()):
        for vecs in candidates:
            for char in CHARS:
                op = {"command": "expand", "char": char, "support": {"n": n, "exponents": [list(v) for v in vecs]}}
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op["support"], fh)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(["expand", "--input", path, "--char", str(char)])
                text = out.getvalue()
                key = expand_key(op)
                table[key] = expand_digest(text)
                problem = "exit %d" % rc if rc else check_expand(op, text, table)
                if problem:
                    sys.stderr.write(f"{key}: {problem}\n")
                    return 1
        print(f"N={N} n={n}: {len(candidates)} supports x {len(CHARS)} characteristics", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
