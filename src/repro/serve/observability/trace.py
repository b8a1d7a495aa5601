"""Span-based tracer on the simulated clock.

Every session of the token engine gets an event-sourced timeline:
``enqueue -> queue_wait -> admit -> prefill/decode steps ->
preempt/stall/recover -> retire``.  The pool emits dispatch and
weight-reprogram spans per worker, and the ``FleetMonitor`` emits
health-transition instants.  Two consumers:

* a **queryable in-memory index** — :meth:`Tracer.spans` /
  :meth:`Tracer.instants` filter by track/id/name/category, and
  :meth:`Tracer.session_timeline` + :meth:`Tracer.gap_free` verify that
  a session's phase spans tile its lifetime with **exact float
  boundaries** (valid because every boundary is the same float the
  engine propagated — no arithmetic re-derivation happens here);
* a **Chrome trace-event JSON export** (:meth:`Tracer.chrome_trace`)
  loadable in Perfetto / ``chrome://tracing``: ``ph:"X"`` duration
  events with microsecond timestamps, one pid per track kind and one
  tid per session/worker, plus instant (``ph:"i"``) markers.

Recording is deliberately dumb — a tuple append per span — so tracing
stays inside the benchmark's wall-clock overhead budget; ``Span``
objects materialise only at query/export time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Instant", "Tracer", "TRACKS"]

# Track kind -> Chrome trace pid.  One "process" per subsystem keeps
# Perfetto's timeline grouped: sessions (token engine), workers (pool),
# control (fleet monitor).  Pid 2 stays reserved for "request" so
# exported traces keep their pids.
TRACKS = {"session": 1, "request": 2, "worker": 3, "control": 4}


@dataclass(frozen=True)
class Span:
    """A closed interval ``[t0, t1]`` on one track, in simulated seconds."""

    track: str
    track_id: int
    name: str
    t0: float
    t1: float
    category: str = ""
    args: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker at ``t`` on one track."""

    track: str
    track_id: int
    name: str
    t: float
    args: Optional[Dict[str, Any]] = None


class Tracer:
    """Append-only span/instant store with query + Chrome export.

    Queries that pin ``(track, track_id)`` go through a **lazy
    incremental index**: record-time stays a bare tuple append (the
    overhead-gate hot path), and the first such query after new records
    indexes only the appended tail.  The store is append-only, so
    indexed positions never invalidate, and index-backed results are in
    recording order — identical to the linear scan they replace.
    """

    __slots__ = (
        "_spans",
        "_instants",
        "_span_index",
        "_span_indexed",
        "_instant_index",
        "_instant_indexed",
    )

    def __init__(self):
        # (track, track_id, name, t0, t1, category, args)
        self._spans: List[Tuple[str, int, str, float, float, str, Any]] = []
        # (track, track_id, name, t, args)
        self._instants: List[Tuple[str, int, str, float, Any]] = []
        # (track, track_id) -> positions, grown lazily at query time.
        self._span_index: Dict[Tuple[str, int], List[int]] = {}
        self._span_indexed = 0
        self._instant_index: Dict[Tuple[str, int], List[int]] = {}
        self._instant_indexed = 0

    # Recording (hot path) ----------------------------------------------
    def span(
        self,
        track: str,
        track_id: int,
        name: str,
        t0: float,
        t1: float,
        category: str = "",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._spans.append((track, track_id, name, t0, t1, category, args))

    def instant(
        self,
        track: str,
        track_id: int,
        name: str,
        t: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._instants.append((track, track_id, name, t, args))

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants)

    # Query index -------------------------------------------------------
    def _ensure_index(self) -> None:
        """Index the tail appended since the last indexed query."""
        spans = self._spans
        if self._span_indexed < len(spans):
            index = self._span_index
            for pos in range(self._span_indexed, len(spans)):
                record = spans[pos]
                key = (record[0], record[1])
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = []
                bucket.append(pos)
            self._span_indexed = len(spans)
        instants = self._instants
        if self._instant_indexed < len(instants):
            index = self._instant_index
            for pos in range(self._instant_indexed, len(instants)):
                record = instants[pos]
                key = (record[0], record[1])
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = []
                bucket.append(pos)
            self._instant_indexed = len(instants)

    def spans(
        self,
        track: Optional[str] = None,
        track_id: Optional[int] = None,
        name: Optional[str] = None,
        category: Optional[str] = None,
    ) -> List[Span]:
        out = []
        if track is not None and track_id is not None:
            # O(matching): walk only this (track, track_id)'s positions.
            self._ensure_index()
            positions = self._span_index.get((track, track_id), ())
            for pos in positions:
                tr, tid, nm, t0, t1, cat, args = self._spans[pos]
                if name is not None and nm != name:
                    continue
                if category is not None and cat != category:
                    continue
                out.append(Span(tr, tid, nm, t0, t1, cat, args))
            return out
        for tr, tid, nm, t0, t1, cat, args in self._spans:
            if track is not None and tr != track:
                continue
            if track_id is not None and tid != track_id:
                continue
            if name is not None and nm != name:
                continue
            if category is not None and cat != category:
                continue
            out.append(Span(tr, tid, nm, t0, t1, cat, args))
        return out

    def instants(
        self,
        track: Optional[str] = None,
        track_id: Optional[int] = None,
        name: Optional[str] = None,
    ) -> List[Instant]:
        out = []
        if track is not None and track_id is not None:
            self._ensure_index()
            positions = self._instant_index.get((track, track_id), ())
            for pos in positions:
                tr, tid, nm, t, args = self._instants[pos]
                if name is not None and nm != name:
                    continue
                out.append(Instant(tr, tid, nm, t, args))
            return out
        for tr, tid, nm, t, args in self._instants:
            if track is not None and tr != track:
                continue
            if track_id is not None and tid != track_id:
                continue
            if name is not None and nm != name:
                continue
            out.append(Instant(tr, tid, nm, t, args))
        return out

    def span_records(
        self,
        track: Optional[str] = None,
        track_id: Optional[int] = None,
    ) -> List[Tuple[str, int, str, float, float, str, Any]]:
        """Raw span tuples ``(track, track_id, name, t0, t1, category,
        args)`` — the zero-wrapping sibling of :meth:`spans` for bulk
        consumers (export, rollups) where per-record :class:`Span`
        construction dominates.  Same ordering guarantees as
        :meth:`spans`; records are the stored tuples, not copies.
        """
        if track is None and track_id is None:
            return list(self._spans)
        if track is not None and track_id is not None:
            self._ensure_index()
            spans = self._spans
            positions = self._span_index.get((track, track_id), ())
            return [spans[pos] for pos in positions]
        return [
            record
            for record in self._spans
            if (track is None or record[0] == track)
            and (track_id is None or record[1] == track_id)
        ]

    def instant_records(
        self,
        track: Optional[str] = None,
        track_id: Optional[int] = None,
    ) -> List[Tuple[str, int, str, float, Any]]:
        """Raw instant tuples ``(track, track_id, name, t, args)``."""
        if track is None and track_id is None:
            return list(self._instants)
        if track is not None and track_id is not None:
            self._ensure_index()
            instants = self._instants
            positions = self._instant_index.get((track, track_id), ())
            return [instants[pos] for pos in positions]
        return [
            record
            for record in self._instants
            if (track is None or record[0] == track)
            and (track_id is None or record[1] == track_id)
        ]

    def drop_track_ids(self, track: str, track_ids) -> Tuple[int, int]:
        """Drop every span/instant of the given ids on one track.

        The tail-sampling compaction path: uninteresting sessions'
        timelines are removed wholesale after their durations have been
        folded into sketches.  Returns ``(spans_dropped,
        instants_dropped)``.  The lazy query index assumes the store is
        append-only, so a drop resets it; the next indexed query
        rebuilds from scratch.
        """
        doomed = set(track_ids)
        if not doomed:
            return (0, 0)
        kept_spans = [
            record
            for record in self._spans
            if record[0] != track or record[1] not in doomed
        ]
        kept_instants = [
            record
            for record in self._instants
            if record[0] != track or record[1] not in doomed
        ]
        spans_dropped = len(self._spans) - len(kept_spans)
        instants_dropped = len(self._instants) - len(kept_instants)
        self._spans = kept_spans
        self._instants = kept_instants
        self._span_index = {}
        self._span_indexed = 0
        self._instant_index = {}
        self._instant_indexed = 0
        return (spans_dropped, instants_dropped)

    def track_ids(self, track: str) -> List[int]:
        self._ensure_index()
        ids = {tid for tr, tid in self._span_index if tr == track}
        ids.update(tid for tr, tid in self._instant_index if tr == track)
        return sorted(ids)

    def session_timeline(self, session_id: int, track: str = "session") -> List[Span]:
        """All phase spans of one session, ordered by start time.

        Emission order is already time-ordered within a track id (the
        engine emits as the simulated clock advances); the sort is a
        stable belt-and-braces so the gap check never depends on it.
        """
        spans = self.spans(track=track, track_id=session_id)
        spans.sort(key=lambda s: (s.t0, s.t1))
        return spans

    def gaps(
        self,
        session_id: int,
        track: str = "session",
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Uncovered intervals of ``[start, end]`` under exact equality.

        Adjacent spans must satisfy ``next.t0 == prev.t1`` *bitwise*:
        every boundary is a float the emitter forwarded unmodified, so
        tolerance would only hide real bookkeeping bugs.
        """
        timeline = self.session_timeline(session_id, track=track)
        if not timeline:
            if start is not None and end is not None and end > start:
                return [(start, end)]
            return []
        out: List[Tuple[float, float]] = []
        if start is not None and timeline[0].t0 != start:
            out.append((start, timeline[0].t0))
        cursor = timeline[0].t1
        for span in timeline[1:]:
            if span.t0 != cursor:
                out.append((cursor, span.t0))
            cursor = max(cursor, span.t1)
        if end is not None and cursor != end:
            out.append((cursor, end))
        return out

    def gap_free(
        self,
        session_id: int,
        start: Optional[float] = None,
        end: Optional[float] = None,
        track: str = "session",
    ) -> bool:
        return not self.gaps(session_id, track=track, start=start, end=end)

    # Chrome trace-event export ----------------------------------------
    def chrome_events(self) -> List[Dict[str, Any]]:
        """Trace-event dicts (Perfetto-loadable), timestamps in us."""
        events: List[Dict[str, Any]] = []
        for track, pid in sorted(TRACKS.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": track},
                }
            )
        for tr, tid, nm, t0, t1, cat, args in self._spans:
            event = {
                "ph": "X",
                "pid": TRACKS.get(tr, 0),
                "tid": tid,
                "name": nm,
                "cat": cat or tr,
                "ts": t0 * 1e6,
                "dur": (t1 - t0) * 1e6,
            }
            if args:
                event["args"] = args
            events.append(event)
        for tr, tid, nm, t, args in self._instants:
            event = {
                "ph": "i",
                "pid": TRACKS.get(tr, 0),
                "tid": tid,
                "name": nm,
                "cat": tr,
                "ts": t * 1e6,
                "s": "t",
            }
            if args:
                event["args"] = args
            events.append(event)
        return events

    def chrome_trace(self) -> str:
        """Deterministic JSON dump: same run -> byte-identical text."""
        return json.dumps(
            {"traceEvents": self.chrome_events(), "displayTimeUnit": "ns"},
            sort_keys=True,
            separators=(",", ":"),
        )

    def summary(self) -> Dict[str, Any]:
        by_track: Dict[str, int] = {}
        for tr, *_ in self._spans:
            by_track[tr] = by_track.get(tr, 0) + 1
        return {
            "spans": len(self._spans),
            "instants": len(self._instants),
            "spans_by_track": dict(sorted(by_track.items())),
        }
