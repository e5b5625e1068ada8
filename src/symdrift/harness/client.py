"""Remote chat client and its deterministic test double.

Endpoint protocol: POST JSON {"prompt": ..., "temperature": ...} and read
{"text": ..., "usage": {"input_tokens": n, "output_tokens": m}}. The endpoint
URL and credential come from environment variables (see config module).
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from ..errors import ClientError


@dataclass(frozen=True)
class Completion:
    text: str
    tokens_in: int = 0
    tokens_out: int = 0


@dataclass
class UsageLedger:
    tokens_in: int = 0
    tokens_out: int = 0
    calls: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, completion: Completion) -> None:
        with self._lock:
            self.tokens_in += completion.tokens_in
            self.tokens_out += completion.tokens_out
            self.calls += 1


class HttpChatClient:
    """Blocking JSON client with bounded exponential-backoff retries."""

    def __init__(self, endpoint: str, api_key: str | None = None,
                 timeout_s: float = 30.0, max_retries: int = 3,
                 backoff_s: float = 1.0, ledger: UsageLedger | None = None,
                 sleeper=time.sleep):
        if not endpoint:
            raise ClientError("no endpoint configured")
        self._endpoint = endpoint
        self._api_key = api_key
        self._timeout = timeout_s
        self._max_retries = max_retries
        self._backoff = backoff_s
        self.ledger = ledger or UsageLedger()
        self._sleep = sleeper

    def complete(self, prompt: str, temperature: float = 0.2) -> Completion:
        payload = json.dumps({"prompt": prompt, "temperature": temperature}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        last_error: Exception | None = None
        for attempt in range(self._max_retries):
            request = urllib.request.Request(self._endpoint, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=self._timeout) as response:
                    body = json.loads(response.read().decode("utf-8"))
                usage = body.get("usage", {})
                completion = Completion(
                    text=str(body.get("text", "")),
                    tokens_in=int(usage.get("input_tokens", 0)),
                    tokens_out=int(usage.get("output_tokens", 0)),
                )
                self.ledger.add(completion)
                return completion
            except (urllib.error.URLError, OSError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < self._max_retries:
                    self._sleep(self._backoff * (2 ** attempt))
        raise ClientError(f"endpoint failed after {self._max_retries} attempts: {last_error}")


class StubClient:
    """Deterministic in-memory double: replies served in order or computed by
    a callable; every call lands in the ledger like the real client."""

    def __init__(self, replies=None, responder=None):
        self._replies = list(replies or [])
        self._responder = responder
        self._served = 0
        self.prompts: list[str] = []
        self.ledger = UsageLedger()

    def complete(self, prompt: str, temperature: float = 0.2) -> Completion:
        del temperature
        self.prompts.append(prompt)
        if self._responder is not None:
            completion = self._responder(prompt)
        else:
            if self._served >= len(self._replies):
                raise ClientError("stub exhausted its canned replies")
            completion = self._replies[self._served]
            self._served += 1
        if isinstance(completion, str):
            completion = Completion(completion)
        self.ledger.add(completion)
        return completion
