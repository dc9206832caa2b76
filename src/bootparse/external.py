"""Protocol adapter for out-of-process span scorers.

Lets a stronger model (e.g. a fine-tuned encoder served elsewhere)
score the inside view of ``parse``'s charts; training and the bootstrap
loops always use the builtin classifiers.  The wire format is
line-delimited: one JSON request per span,

    {"view": "inside", "tokens": ["the", "dog"], "i": 0, "j": 1}

answered by exactly one probability literal per line, in request order.
Anything else (timeouts, non-numeric output, early exit) is an error.
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
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                # stderr passes through to ours for debuggability
            )
            self._buffer = b""

    def _read_line(self) -> str:
        proc = self._proc
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        try:
            while b"\n" not in self._buffer:
                if not sel.select(self.timeout):
                    raise ExternalScorerError(
                        f"scorer timed out after {self.timeout}s"
                    )
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    raise ExternalScorerError("scorer closed its output")
                self._buffer += chunk
        finally:
            sel.close()
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8").strip()

    def score_spans(self, sentence: Sentence, spans) -> list[float]:
        spans = list(spans)
        self._ensure_started()
        proc = self._proc
        requests = []
        for sp in spans:
            if sp.j >= len(sentence):
                raise ValueError(f"span {sp} outside sentence {sentence.id}")
            requests.append(
                json.dumps(
                    {
                        "view": self.view,
                        "tokens": list(sentence.tokens),
                        "i": sp.i,
                        "j": sp.j,
                    },
                    sort_keys=True,
                )
            )
        try:
            proc.stdin.write(("\n".join(requests) + "\n").encode("utf-8"))
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ExternalScorerError(f"scorer process is gone: {exc}") from exc

        out = []
        for sp in spans:
            line = self._read_line()
            try:
                value = float(line)
            except ValueError:
                raise ExternalScorerError(
                    f"non-numeric scorer response {line!r} for span {sp}"
                ) from None
            if not (0.0 <= value <= 1.0):
                raise ExternalScorerError(
                    f"score {value} for span {sp} is outside [0, 1]"
                )
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
