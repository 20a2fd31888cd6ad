"""One set-up, timed from a fresh interpreter.

Reads ``{"src": ..., "uris": [...], "policies": [...]}`` on stdin, imports
prunecheck from ``src``, builds every environment from its URI and loads
every policy document, then prints one JSON line with the import time.
The parent times from starting this process to reading that line.
"""

import json
import sys
import time


def main() -> None:
    request = json.loads(sys.stdin.readline())
    sys.path.insert(0, request["src"])
    started = time.perf_counter()
    import prunecheck

    import_s = time.perf_counter() - started
    envs = [prunecheck.from_uri(uri) for uri in request["uris"]]
    policies = [prunecheck.load_policy(text) for text in request["policies"]]
    print(json.dumps({"import_s": import_s, "objects": len(envs) + len(policies)}), flush=True)


if __name__ == "__main__":
    main()
