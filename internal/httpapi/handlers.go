package httpapi

import (
	"cmp"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/netx"
)

// planFrom compiles the request's filter parameters (or plan=) into a
// plan, reporting a 400 on any malformed or out-of-domain value.
func planFrom(w http.ResponseWriter, r *http.Request) (attack.Plan, bool) {
	p, err := attack.PlanFromValues(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return attack.Plan{}, false
	}
	return p, true
}

// intParam parses an optional integer parameter with bounds.
func intParam(v url.Values, key string, def, min, max int) (int, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < min || n > max {
		return 0, fmt.Errorf("%s=%q: want an integer in [%d, %d]", key, s, min, max)
	}
	return n, nil
}

// healthzSite is one remote backend's circuit-breaker view in
// /healthz: which site, and whether the breaker currently has it out
// of rotation.
type healthzSite struct {
	Backend  int    `json:"backend"`
	Addr     string `json:"addr"`
	Breaker  string `json:"breaker"` // "closed", "open", "half-open"
	Failures int    `json:"failures,omitempty"`
}

// healthzBody is the /healthz response. ok reports liveness and stays
// true while degraded — a front end missing a site is still worth
// routing to; degraded tells the orchestrator a site is out.
type healthzBody struct {
	OK       bool          `json:"ok"`
	Backends int           `json:"backends"`
	Degraded bool          `json:"degraded"`
	Sites    []healthzSite `json:"sites,omitempty"`
}

// handleHealthz answers liveness probes. It touches no backend — the
// breaker states it reports are in-memory snapshots — and bypasses
// every gate, so it keeps answering while the server sheds load.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hz := healthzBody{OK: true, Backends: len(s.backends)}
	for i, b := range s.backends {
		rs, ok := b.(*federation.RemoteStore)
		if !ok {
			continue
		}
		st, on := rs.Breaker()
		if !on {
			continue
		}
		hz.Sites = append(hz.Sites, healthzSite{
			Backend: i, Addr: rs.Addr(),
			Breaker: st.State.String(), Failures: st.Failures,
		})
		if st.State != federation.BreakerClosed {
			hz.Degraded = true
		}
	}
	body, err := marshalBody(hz)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, body)
}

// handleStats serves the counter snapshot plus per-backend state.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot()
	snap.CacheEntries = s.cache.len()
	snap.Backends = s.backendsInfo()
	body, err := marshalBody(snap)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, body)
}

// countResponse is the /v1/count body.
type countResponse struct {
	Plan     string        `json:"plan"`
	Count    int           `json:"count"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	s.cached(w, r, "count", "", p, func() (any, bool, error) {
		n, statuses, err := s.query(r.Context(), p).Count()
		if err = s.verdict(statuses, err); err != nil {
			return nil, false, err
		}
		d := degradedFrom(statuses)
		return countResponse{Plan: p.EncodeString(), Count: n, Degraded: d}, d != nil, nil
	})
}

// vectorCount is one row of the /v1/count/vector body; rows cover
// every vector, in vector order, so clients need no name lookup to
// align series.
type vectorCount struct {
	Vector string `json:"vector"`
	Count  int    `json:"count"`
}

type countByVectorResponse struct {
	Plan     string        `json:"plan"`
	Counts   []vectorCount `json:"counts"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

func (s *Server) handleCountByVector(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	s.cached(w, r, "count/vector", "", p, func() (any, bool, error) {
		counts, statuses, err := s.query(r.Context(), p).CountByVector()
		if err = s.verdict(statuses, err); err != nil {
			return nil, false, err
		}
		rows := make([]vectorCount, attack.NumVectors)
		for v := range counts {
			rows[v] = vectorCount{Vector: attack.Vector(v).String(), Count: counts[v]}
		}
		d := degradedFrom(statuses)
		return countByVectorResponse{Plan: p.EncodeString(), Counts: rows, Degraded: d}, d != nil, nil
	})
}

// countByDayResponse is the /v1/count/day body: one cell per day of
// the measurement window, index = day offset from the window start.
type countByDayResponse struct {
	Plan     string        `json:"plan"`
	Days     []int         `json:"days"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

func (s *Server) handleCountByDay(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	s.cached(w, r, "count/day", "", p, func() (any, bool, error) {
		days, statuses, err := s.query(r.Context(), p).CountByDay()
		if err = s.verdict(statuses, err); err != nil {
			return nil, false, err
		}
		d := degradedFrom(statuses)
		return countByDayResponse{Plan: p.EncodeString(), Days: days, Degraded: d}, d != nil, nil
	})
}

// prefixGroup is one row of /v1/count/target-prefix: a target block,
// its matching event count, and how many distinct targets it holds.
type prefixGroup struct {
	Prefix  string `json:"prefix"`
	Events  int    `json:"events"`
	Targets int    `json:"targets"`
}

type targetPrefixResponse struct {
	Plan      string        `json:"plan"`
	GroupBits int           `json:"group_bits"`
	Total     int           `json:"total_groups"`
	Groups    []prefixGroup `json:"groups"`
	Degraded  *degradedJSON `json:"degraded,omitempty"`
}

// handleCountTargetPrefix groups matching events by target block, at
// any block size.
// group= sets the grouping prefix length (default 32, exact targets);
// top= caps the rows returned, ordered by event count. Unlike the pure
// counting endpoints this iterates events (remote backends ship their
// matching subset once as a segment), so responses lean on the
// version-keyed cache.
func (s *Server) handleCountTargetPrefix(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	group, err := intParam(r.URL.Query(), "group", 32, 0, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	top, err := intParam(r.URL.Query(), "top", 100, 1, 100000)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	extra := fmt.Sprintf("group=%d&top=%d", group, top)
	s.cached(w, r, "count/target-prefix", extra, p, func() (any, bool, error) {
		type tally struct {
			events  int
			targets map[netx.Addr]struct{}
		}
		it, statuses, closer, err := s.query(r.Context(), p).Iter()
		defer closer.Close()
		if err = s.verdict(statuses, err); err != nil {
			return nil, false, err
		}
		groups := make(map[netx.Addr]*tally)
		for e := range it {
			key := e.Target.Mask(group)
			t := groups[key]
			if t == nil {
				t = &tally{targets: make(map[netx.Addr]struct{})}
				groups[key] = t
			}
			t.events++
			t.targets[e.Target] = struct{}{}
		}
		rows := make([]prefixGroup, 0, len(groups))
		for addr, t := range groups {
			rows = append(rows, prefixGroup{
				Prefix:  fmt.Sprintf("%s/%d", addr, group),
				Events:  t.events,
				Targets: len(t.targets),
			})
		}
		slices.SortFunc(rows, func(a, b prefixGroup) int {
			if c := cmp.Compare(b.Events, a.Events); c != 0 {
				return c
			}
			return cmp.Compare(a.Prefix, b.Prefix)
		})
		total := len(rows)
		if len(rows) > top {
			rows = rows[:top]
		}
		d := degradedFrom(statuses)
		return targetPrefixResponse{
			Plan: p.EncodeString(), GroupBits: group, Total: total, Groups: rows,
			Degraded: d,
		}, d != nil, nil
	})
}
