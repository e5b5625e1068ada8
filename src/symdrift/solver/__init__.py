"""Desk-scale decision engines plus the model-enumeration oracle."""
