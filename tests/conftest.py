"""Suite-wide guards."""

from __future__ import annotations

import socket

import pytest


def _refuse(*args, **kwargs):
    raise RuntimeError("a test tried to open a network connection")


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """No test opens a socket: the toolkit runs offline, and its chat client
    is exercised through a test double or a patched `urlopen`."""
    monkeypatch.setattr(socket.socket, "connect", _refuse)
    monkeypatch.setattr(socket.socket, "connect_ex", _refuse)
    monkeypatch.setattr(socket, "create_connection", _refuse)
