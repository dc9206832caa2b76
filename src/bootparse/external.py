"""Protocol adapter for out-of-process span scorers.

Lets a stronger model (e.g. a fine-tuned encoder served elsewhere)
score the inside view of ``parse``'s charts; training and the bootstrap
loops always use the builtin classifiers.  The wire format is
line-delimited: one JSON request per span,

    {"view": "inside", "tokens": ["the", "dog"], "i": 0, "j": 1}

answered by exactly one probability literal per line, in request order.
Anything else (a wait to write or read longer than the timeout,
non-numeric or non-UTF-8 output, early exit) is an error.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess

from .errors import ExternalScorerError
from .treebank import Sentence, Span


class ExternalScorer:
    """Scores spans by querying a child process over stdin/stdout."""

    def __init__(self, command, view: str, timeout: float = 10.0):
        self.command = command
        self.view = view
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._buffer = b""

    def _ensure_started(self):
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                # stderr passes through to ours for debuggability
            )
            # written with os.write as far as the pipe takes it, so a
            # full pipe never blocks the reads
            os.set_blocking(self._proc.stdin.fileno(), False)
            self._buffer = b""
        elif self._proc.poll() is not None:
            raise ExternalScorerError(f"scorer exited with status {self._proc.returncode}")

    def _exchange(self, requests: bytes, count: int) -> list[bytes]:
        """Send requests and read count reply lines, in one selector loop.

        A scorer may answer before it has read all its input, so writes
        and reads interleave; every wait for either is bounded by the
        timeout.
        """
        proc = self._proc
        unsent = memoryview(requests)
        missing = count - self._buffer.count(b"\n")
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if unsent:
                sel.register(proc.stdin, selectors.EVENT_WRITE)
            while unsent or missing > 0:
                ready = sel.select(self.timeout)
                if not ready:
                    raise ExternalScorerError(f"scorer timed out after {self.timeout}s")
                for key, _ in ready:
                    if key.fileobj is proc.stdin:
                        try:
                            unsent = unsent[os.write(proc.stdin.fileno(), unsent) :]
                        except BlockingIOError:
                            continue
                        except OSError as exc:
                            raise ExternalScorerError(f"scorer process is gone: {exc}") from exc
                        if not unsent:
                            sel.unregister(proc.stdin)
                    else:
                        chunk = os.read(proc.stdout.fileno(), 65536)
                        if not chunk:
                            raise ExternalScorerError("scorer closed its output")
                        self._buffer += chunk
                        missing -= chunk.count(b"\n")
        *lines, self._buffer = self._buffer.split(b"\n", count)
        return lines

    def score_spans(self, sentence: Sentence, spans) -> list[float]:
        spans = list(spans)
        requests = []
        for sp in spans:
            if sp.j >= len(sentence):
                raise ValueError(f"span {sp} outside sentence {sentence.id}")
            request = {"view": self.view, "tokens": list(sentence.tokens), "i": sp.i, "j": sp.j}
            requests.append(json.dumps(request, sort_keys=True) + "\n")
        self._ensure_started()
        out = []
        for sp, raw in zip(spans, self._exchange("".join(requests).encode("utf-8"), len(spans))):
            try:
                value = float(raw.decode("utf-8"))
            except ValueError:  # a UnicodeDecodeError too
                raise ExternalScorerError(
                    f"non-numeric scorer response {raw!r} for span {sp}"
                ) from None
            if not (0.0 <= value <= 1.0):
                raise ExternalScorerError(f"score {value} for span {sp} is outside [0, 1]")
            out.append(value)
        return out

    def close(self):
        if self._proc is not None and self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
