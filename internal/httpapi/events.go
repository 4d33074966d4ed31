package httpapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"doscope/internal/attack"
)

// eventJSON is one /v1/events line.
type eventJSON struct {
	Source  string   `json:"source"`
	Vector  string   `json:"vector"`
	Target  string   `json:"target"`
	Start   int64    `json:"start"`
	End     int64    `json:"end"`
	Packets uint64   `json:"packets"`
	Bytes   uint64   `json:"bytes"`
	MaxPPS  float64  `json:"max_pps,omitempty"`
	AvgRPS  float64  `json:"avg_rps,omitempty"`
	Ports   []uint16 `json:"ports,omitempty"`
}

func toEventJSON(e *attack.Event) eventJSON {
	return eventJSON{
		Source:  e.Source.String(),
		Vector:  e.Vector.String(),
		Target:  e.Target.String(),
		Start:   e.Start,
		End:     e.End,
		Packets: e.Packets,
		Bytes:   e.Bytes,
		MaxPPS:  e.MaxPPS,
		AvgRPS:  e.AvgRPS,
		Ports:   e.Ports,
	}
}

// eventsTrailer is the final NDJSON line of every /v1/events page: the
// emitted count, whether more matches remain, and if so the cursor
// that resumes exactly after the last emitted event. Clients
// distinguish it from event lines by the "page" field.
type eventsTrailer struct {
	Page     bool          `json:"page"`
	Count    int           `json:"count"`
	More     bool          `json:"more"`
	Next     string        `json:"next,omitempty"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

// cursor addresses a position in the global IterByStart order: resume
// at events with Start >= ts, skipping the first skip events whose
// Start equals ts exactly (already emitted by earlier pages). The text
// form is "ts:skip".
type cursor struct {
	ts   int64
	skip int
}

func parseCursor(s string) (cursor, error) {
	tsStr, skipStr, ok := strings.Cut(s, ":")
	if !ok {
		return cursor{}, fmt.Errorf("cursor %q: want \"start:skip\"", s)
	}
	ts, err := strconv.ParseInt(tsStr, 10, 64)
	if err != nil {
		return cursor{}, fmt.Errorf("cursor %q: bad start timestamp", s)
	}
	skip, err := strconv.Atoi(skipStr)
	if err != nil || skip < 0 {
		return cursor{}, fmt.Errorf("cursor %q: bad skip count", s)
	}
	return cursor{ts: ts, skip: skip}, nil
}

func (c cursor) String() string { return fmt.Sprintf("%d:%d", c.ts, c.skip) }

// narrowToCursor tightens the plan's day range so execution resumes at
// the cursor's day instead of re-scanning (and, federated, re-shipping)
// everything before it: DayOf is monotone in Start, so no event at or
// past the cursor can live below day DayOf(ts). When the plan carries
// no day filter the range is opened upward to beyond-the-window values
// rather than the window edge — a day filter is exclusive of
// out-of-window events, and pagination must not change which events
// match.
func narrowToCursor(p attack.Plan, c cursor) attack.Plan {
	day := int32(attack.DayOf(c.ts))
	if p.HasDays {
		if day > p.DayLo {
			p.DayLo = day
		}
		return p
	}
	p.HasDays, p.DayLo, p.DayHi = true, day, math.MaxInt32-1
	return p
}

// handleEvents streams matching events as NDJSON in global start-time
// order (attack.FedQuery.IterByStart: ties resolve by backend order,
// then per-store order), paginated by limit= and resumed by cursor=.
// Pages are not cached — they stream — but deep pagination stays
// cheap: the cursor's day bound prunes every shard (and for remote
// backends, every shipped segment) below the resume point.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	limit, err := intParam(r.URL.Query(), "limit", 1000, 1, s.maxPage)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var cur cursor
	resuming := false
	if cs := r.URL.Query().Get("cursor"); cs != "" {
		if cur, err = parseCursor(cs); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		resuming = true
	}
	exec := p
	if resuming {
		exec = narrowToCursor(p, cur)
	}
	it, statuses, closer, err := s.query(r.Context(), exec).IterByStart()
	defer closer.Close()
	if err = s.verdict(statuses, err); err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	var (
		emitted  int
		more     bool
		lastTS   int64
		lastTies int // events emitted with Start == lastTS, this page
		skipped  int // cursor ties skipped so far
	)
	for e := range it {
		if resuming {
			if e.Start < cur.ts {
				continue
			}
			if e.Start == cur.ts && skipped < cur.skip {
				skipped++
				continue
			}
		}
		if emitted == limit {
			more = true
			break
		}
		if e.Start == lastTS && emitted > 0 {
			lastTies++
		} else {
			lastTS, lastTies = e.Start, 1
		}
		if err := enc.Encode(toEventJSON(e)); err != nil {
			return // client went away mid-stream
		}
		emitted++
		if emitted%512 == 0 {
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	trailer := eventsTrailer{Page: true, Count: emitted, More: more, Degraded: degradedFrom(statuses)}
	if trailer.Degraded != nil {
		s.metrics.degraded.Add(1)
	}
	if more {
		next := cursor{ts: lastTS, skip: lastTies}
		if resuming && lastTS == cur.ts {
			// Still inside the cursor's tie run: the skip count is
			// cumulative across pages.
			next.skip += cur.skip
		}
		trailer.Next = next.String()
	}
	enc.Encode(trailer)
}
