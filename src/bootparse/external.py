"""Protocol adapter for out-of-process span scorers.

Lets a stronger model (e.g. a fine-tuned encoder served elsewhere)
score the inside view of ``parse``'s charts; training and the bootstrap
loops always use the builtin classifiers.  The wire format is
line-delimited: one JSON request per span,

    {"view": "inside", "tokens": ["the", "dog"], "i": 0, "j": 1}

answered by exactly one probability literal per line, in request order.
Anything else (a wait to write or read longer than the timeout,
non-numeric or non-UTF-8 output, output beyond the replies asked for,
early exit) is an error.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess

from .errors import ConfigError, ExternalScorerError
from .treebank import Sentence, Span

# how long the first sentence's replies may run past the count: a scorer
# that answers more than once per request does so from its first sentence
PROBE_S = 0.1


class ExternalScorer:
    """Scores spans by querying a child process over stdin/stdout."""

    def __init__(self, command, view: str, timeout: float = 10.0):
        self.command = command
        self.view = view
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._probed = False

    def _ensure_started(self):
        if self._proc is None:
            try:
                # stderr passes through to ours for debuggability
                self._proc = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
                )
            except OSError as exc:
                raise ConfigError(f"cannot start scorer.command {self.command!r}: {exc}") from exc
            # written with os.write as far as the pipe takes it, so a
            # full pipe never blocks the reads
            os.set_blocking(self._proc.stdin.fileno(), False)
        elif self._proc.poll() is not None:
            raise ExternalScorerError(f"scorer exited with status {self._proc.returncode}")

    def _read(self) -> bytes:
        chunk = os.read(self._proc.stdout.fileno(), 65536)
        if not chunk:
            raise ExternalScorerError("scorer closed its output")
        return chunk

    def _exchange(self, requests: bytes, count: int) -> list[bytes]:
        """Send requests and read count reply lines, in one selector loop.

        A scorer may answer before it has read all its input, so writes
        and reads interleave; every wait for either is bounded by the
        timeout.  Output before the requests or past the count-th line
        is an error, so no reply is ever read for the wrong span.  After
        the session's first sentence the scorer gets PROBE_S to write
        more, so surplus replies written one at a time are named there
        rather than read as the next sentence's.
        """
        proc = self._proc
        unsent = memoryview(requests)
        received = b""
        missing = count
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if sel.select(0):
                raise ExternalScorerError(f"surplus scorer output {self._read()[:40]!r}")
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
                        chunk = self._read()
                        received += chunk
                        missing -= chunk.count(b"\n")
            # the first sentence's replies may run on, each wait up to
            # PROBE_S, until a surplus line is whole; an exit here is found
            # by the next sentence, if there is one
            while not self._probed and missing == 0 and sel.select(PROBE_S):
                chunk = os.read(proc.stdout.fileno(), 65536)
                self._probed = not chunk
                received += chunk
                missing -= chunk.count(b"\n")
            self._probed = True
        *lines, rest = received.split(b"\n", count)
        if rest:
            raise ExternalScorerError(f"surplus scorer output {rest[:40]!r}")
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

    def finish(self):
        """Close a session whose every reply has been read, and fail if the
        scorer wrote more, however late: what it wrote before it exited is
        still in the pipe."""
        proc = self._proc
        self.close()
        if proc is None:
            return
        with proc.stdout:
            os.set_blocking(proc.stdout.fileno(), False)
            try:
                rest = os.read(proc.stdout.fileno(), 40)
            except BlockingIOError:
                rest = b""
        if rest:
            raise ExternalScorerError(f"surplus scorer output {rest!r}")

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
