"""Discrete-event kernel: time, events, components, deterministic RNG."""

from .component import Component
from .events import Event, EventQueue
from .simtime import MS, NS, PS, SEC, US, TIME_INFINITY, bits_time, fmt_time

__all__ = ["Component", "Event", "EventQueue",
           "MS", "NS", "PS", "SEC", "US", "TIME_INFINITY",
           "bits_time", "fmt_time"]
