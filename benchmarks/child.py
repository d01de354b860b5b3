"""Runs one CLI operation in a fresh interpreter and reports its timings.

Usage: child.py RESULT_JSON TRACE SRC_DIR -- ARGV...

Times the import of ``spurious_lens.cli`` and the ``cli.main(ARGV)`` call,
then writes the exit code, the timings, the peak RSS (VmHWM, Linux) and,
when TRACE is 1, the recorded spans to RESULT_JSON.  ``imported_at`` is read
from the system-wide monotonic clock, so the parent can subtract its spawn
time.
"""

import json
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """This process's own peak RSS.  ru_maxrss would not do: Linux carries
    the parent's high-water mark over into a child across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, trace, src_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py RESULT_JSON TRACE SRC_DIR -- ARGV...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from spurious_lens import cli
    import_s = time.perf_counter() - t0
    imported_at = time.monotonic()
    if not Path(cli.__file__).resolve().is_relative_to(Path(src_dir).resolve()):
        print(f"imported {cli.__file__}, not the checkout's {src_dir}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer(op_id=Path(result_path).stem)
        tracer.install()

    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to the parent as a failed operation
        code = None
        error = traceback.format_exc()
    op_s = time.perf_counter() - t0

    result = {
        "exit_code": code,
        "error": error,
        "import_s": import_s,
        "imported_at": imported_at,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
