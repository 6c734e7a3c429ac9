"""Toy transcriber for ``asrlab stitch --audio`` (standard library only).

Contract: ``python3 bench/transcriber.py TEXTS_DIR CHUNK.wav`` prints the text
the generator wrote for the chunk index in the WAV name (``chunk0007.wav`` ->
``TEXTS_DIR/0007.txt``) and exits 0; an unknown index exits 1.
"""

import os
import re
import sys


def main() -> int:
    texts_dir, wav = sys.argv[1], sys.argv[2]
    match = re.search(r"(\d+)\.wav$", os.path.basename(wav))
    path = os.path.join(texts_dir, f"{int(match.group(1)):04d}.txt") if match else ""
    if not os.path.isfile(path):
        print(f"transcriber: no text for {wav}", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as fh:
        sys.stdout.write(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
