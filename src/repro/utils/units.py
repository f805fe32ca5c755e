"""Byte/bandwidth units."""

from __future__ import annotations

__all__ = ["KB", "MB", "GB"]

KB = 1024
MB = 1024**2
GB = 1024**3
