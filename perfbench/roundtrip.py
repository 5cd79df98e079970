"""Check that spectrum files survive load -> save byte for byte.

    python3 roundtrip.py FILE...

Loads each file with ``markovforge.spectrum_io.load``, saves it again next to
the original and compares the bytes.  Prints one JSON object mapping each
file to true (identical) or an error string, and exits 0.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from markovforge import spectrum_io

    result = {}
    for path in sys.argv[1:]:
        copy = path + ".roundtrip"
        try:
            spectrum_io.save(spectrum_io.load(path), copy)
            same = Path(copy).read_bytes() == Path(path).read_bytes()
            result[path] = True if same else "bytes differ after load -> save"
        except Exception as e:  # a failed round trip is reported, not raised
            result[path] = f"{type(e).__name__}: {e}"
        finally:
            if os.path.exists(copy):
                os.remove(copy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
