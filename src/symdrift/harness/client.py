"""Remote chat client.

Endpoint protocol: POST JSON {"prompt": ..., "temperature": ...} and read
{"text": ..., "usage": {"input_tokens": n, "output_tokens": m}}, the shape
`datasets.REPLY`; `usage` and its counts are optional. The endpoint
URL and credential come from environment variables (see config module).
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from ..errors import ClientError, FormatError
from .datasets import REPLY, check

TIMEOUT_S = 30.0
MAX_RETRIES = 3
BACKOFF_S = 1.0  # the first retry's wait; each later one doubles it


class Completion(NamedTuple):
    text: str
    tokens_in: int = 0
    tokens_out: int = 0


class HttpChatClient:
    """Blocking JSON client with bounded exponential-backoff retries."""

    def __init__(self, endpoint: str, api_key: str | None = None, sleeper=time.sleep):
        if not endpoint:
            raise ClientError("no endpoint configured")
        self._endpoint = endpoint
        self._api_key = api_key
        self._sleep = sleeper

    def complete(self, prompt: str, temperature: float) -> Completion:
        # Loaded on the first request, so an offline run never imports the
        # HTTP stack. Its errors, `URLError` and `HTTPError`, are `OSError`s.
        import urllib.request

        payload = json.dumps({"prompt": prompt, "temperature": temperature}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES):
            request = urllib.request.Request(self._endpoint, data=payload, headers=headers)
            try:
                with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
                    body = json.loads(response.read().decode("utf-8"))
                # A reply that is JSON but not the protocol's object is as
                # unusable as one that is not JSON, and is retried the same way.
                check(body, REPLY, "reply")
                usage = body.get("usage", {})
                return Completion(body["text"], usage.get("input_tokens", 0),
                                  usage.get("output_tokens", 0))
            except (OSError, ValueError, FormatError) as exc:
                last_error = exc
                if attempt + 1 < MAX_RETRIES:
                    self._sleep(BACKOFF_S * (2 ** attempt))
        raise ClientError(f"endpoint failed after {MAX_RETRIES} attempts: {last_error}")
