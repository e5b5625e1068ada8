"""Remote chat client.

Endpoint protocol: POST JSON {"prompt": ..., "temperature": ...} and read
{"text": ..., "usage": {"input_tokens": n, "output_tokens": m}}. The endpoint
URL and credential come from environment variables (see config module).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from ..errors import ClientError

TIMEOUT_S = 30.0
MAX_RETRIES = 3
BACKOFF_S = 1.0  # the first retry's wait; each later one doubles it


@dataclass(frozen=True)
class Completion:
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

    def complete(self, prompt: str, temperature: float = 0.2) -> Completion:
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
                usage = body.get("usage", {})
                return Completion(
                    text=str(body.get("text", "")),
                    tokens_in=int(usage.get("input_tokens", 0)),
                    tokens_out=int(usage.get("output_tokens", 0)),
                )
            except (urllib.error.URLError, OSError, ValueError) as exc:
                last_error = exc
                if attempt + 1 < MAX_RETRIES:
                    self._sleep(BACKOFF_S * (2 ** attempt))
        raise ClientError(f"endpoint failed after {MAX_RETRIES} attempts: {last_error}")
