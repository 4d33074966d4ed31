package httpapi

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"slices"

	"doscope/internal/attack"
	"doscope/internal/netx"
	"doscope/internal/stats"
)

// The figure endpoints serve the source paper's measurement views
// (Figures 1, 5, 6 and 7) as live aggregates over the backend set —
// the attack-plane halves of those figures, computable from events
// alone. (Figures 6 and 7 additionally join against the Web-site model
// in the paper; that join lives in internal/core and needs the
// OpenINTEL-style history, which the serving layer does not carry, so
// here Figure 6 is the repeated-targeting histogram and Figure 7 the
// unique-target time series.)
//
// All figure endpoints accept the standard filter parameters except
// source= — the figures are per-source by construction — and every
// response is cached under the backend version vector, so a fleet of
// dashboard consumers polling the same figure between ingest batches
// executes it once.

// figure1Response carries Figure 1's daily-attacks panels: one series
// per sensor plus the combined view, straight from the per-day count
// indexes (three CountByDay plans, no event scan).
type figure1Response struct {
	Plan      string        `json:"plan"`
	Days      int           `json:"days"`
	Telescope []int         `json:"telescope"`
	Honeypot  []int         `json:"honeypot"`
	Combined  []int         `json:"combined"`
	Degraded  *degradedJSON `json:"degraded,omitempty"`
}

// figure5Response is Figure 5's combined daily series restricted to
// medium-plus events — intensity at least the per-source mean over the
// matching events, the paper's §4 definition.
type figure5Response struct {
	Plan          string             `json:"plan"`
	Days          int                `json:"days"`
	MediumPlus    []int              `json:"medium_plus"`
	MeanIntensity map[string]float64 `json:"mean_intensity"`
	Degraded      *degradedJSON      `json:"degraded,omitempty"`
}

// figureBin is one histogram bin of Figure 6.
type figureBin struct {
	Bin   string `json:"bin"`
	Count int    `json:"count"`
}

// figure6Response is the attack-plane Figure 6: the log-binned
// histogram of attacks per unique target — how concentrated repeated
// targeting is.
type figure6Response struct {
	Plan     string        `json:"plan"`
	Targets  int           `json:"targets"`
	Bins     []figureBin   `json:"bins"`
	Degraded *degradedJSON `json:"degraded,omitempty"`
}

// figure7Response is the attack-plane Figure 7: daily unique targets,
// the medium-plus restriction of the same series, and the four peak
// days.
type figure7Response struct {
	Plan          string             `json:"plan"`
	Days          int                `json:"days"`
	DailyTargets  []int              `json:"daily_targets"`
	DailyMedium   []int              `json:"daily_medium"`
	PeakDays      []int              `json:"peak_days"`
	PeakValues    []int              `json:"peak_values"`
	MeanIntensity map[string]float64 `json:"mean_intensity"`
	Degraded      *degradedJSON      `json:"degraded,omitempty"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	p, ok := planFrom(w, r)
	if !ok {
		return
	}
	if p.Source >= 0 {
		writeError(w, http.StatusBadRequest, "figures compute their own per-source panels; drop the source filter")
		return
	}
	fig := r.PathValue("fig")
	ctx := r.Context()
	var compute func() (any, bool, error)
	switch fig {
	case "1":
		compute = func() (any, bool, error) { return s.figure1(ctx, p) }
	case "5":
		compute = func() (any, bool, error) { return s.figure5(ctx, p) }
	case "6":
		compute = func() (any, bool, error) { return s.figure6(ctx, p) }
	case "7":
		compute = func() (any, bool, error) { return s.figure7(ctx, p) }
	default:
		writeError(w, http.StatusNotFound, fmt.Sprintf("no figure %q: serving 1, 5, 6, 7", fig))
		return
	}
	s.cached(w, r, "figures/"+fig, "", p, compute)
}

// figure1 answers from the count indexes alone: one CountByDay plan
// per panel, fanned to every backend. A backend that misses any panel
// marks the whole figure degraded — the panels must describe the same
// backend subset to be comparable.
func (s *Server) figure1(ctx context.Context, p attack.Plan) (any, bool, error) {
	var merged []attack.BackendStatus
	panel := func(src int8) ([]int, error) {
		pp := p
		pp.Source = src
		days, statuses, err := s.query(ctx, pp).CountByDay()
		merged = mergeStatuses(merged, statuses)
		return days, s.verdict(statuses, err)
	}
	tel, err := panel(int8(attack.SourceTelescope))
	if err != nil {
		return nil, false, err
	}
	hp, err := panel(int8(attack.SourceHoneypot))
	if err != nil {
		return nil, false, err
	}
	comb, err := panel(-1)
	if err != nil {
		return nil, false, err
	}
	d := degradedFrom(merged)
	return figure1Response{
		Plan: p.EncodeString(), Days: attack.WindowDays,
		Telescope: tel, Honeypot: hp, Combined: comb, Degraded: d,
	}, d != nil, nil
}

// meanIntensity computes the per-source mean intensity over the
// matching events of the fetched stores — the medium-plus threshold.
func meanIntensity(p attack.Plan, stores []*attack.Store) [attack.NumSources]float64 {
	var sum [attack.NumSources]float64
	var n [attack.NumSources]int
	for e := range p.Query(stores...).Iter() {
		sum[e.Source.Sensor()] += e.Intensity()
		n[e.Source.Sensor()]++
	}
	var mean [attack.NumSources]float64
	for src := range mean {
		if n[src] > 0 {
			mean[src] = sum[src] / float64(n[src])
		}
	}
	return mean
}

func meanJSON(mean [attack.NumSources]float64) map[string]float64 {
	return map[string]float64{
		attack.SourceTelescope.String(): mean[attack.SourceTelescope],
		attack.SourceHoneypot.String():  mean[attack.SourceHoneypot],
	}
}

// figure5 fetches the matching events once (remote backends ship one
// segment) and runs two passes over the local partials: means, then
// the medium-plus daily tally.
func (s *Server) figure5(ctx context.Context, p attack.Plan) (any, bool, error) {
	stores, statuses, closer, err := s.query(ctx, p).Stores()
	defer closer.Close()
	if err = s.verdict(statuses, err); err != nil {
		return nil, false, err
	}
	mean := meanIntensity(p, stores)
	days := make([]int, attack.WindowDays)
	for e := range p.Query(stores...).Iter() {
		if e.Intensity() < mean[e.Source.Sensor()] {
			continue
		}
		if d := e.Day(); d >= 0 && d < attack.WindowDays {
			days[d]++
		}
	}
	d := degradedFrom(statuses)
	return figure5Response{
		Plan: p.EncodeString(), Days: attack.WindowDays,
		MediumPlus: days, MeanIntensity: meanJSON(mean), Degraded: d,
	}, d != nil, nil
}

// figure6 tallies events per unique target and log-bins the counts.
func (s *Server) figure6(ctx context.Context, p attack.Plan) (any, bool, error) {
	it, statuses, closer, err := s.query(ctx, p).Iter()
	defer closer.Close()
	if err = s.verdict(statuses, err); err != nil {
		return nil, false, err
	}
	perTarget := make(map[netx.Addr]int)
	for e := range it {
		perTarget[e.Target]++
	}
	vals := make([]int, 0, len(perTarget))
	for _, n := range perTarget {
		vals = append(vals, n)
	}
	h := stats.NewLogHistogram(vals)
	bins := make([]figureBin, len(h.Counts))
	for k, n := range h.Counts {
		bins[k] = figureBin{Bin: h.BinLabel(k), Count: n}
	}
	d := degradedFrom(statuses)
	return figure6Response{Plan: p.EncodeString(), Targets: len(perTarget), Bins: bins, Degraded: d}, d != nil, nil
}

// figure7 builds the daily unique-target series (overall and
// medium-plus) plus the four peak days, mirroring core.Figure7's
// attack-plane half: a target counts once per day it is attacked.
func (s *Server) figure7(ctx context.Context, p attack.Plan) (any, bool, error) {
	stores, statuses, closer, err := s.query(ctx, p).Stores()
	defer closer.Close()
	if err = s.verdict(statuses, err); err != nil {
		return nil, false, err
	}
	mean := meanIntensity(p, stores)
	dailyAll := make([]int, attack.WindowDays)
	dailyMed := make([]int, attack.WindowDays)
	seenAll := make(map[int64]struct{})
	seenMed := make(map[int64]struct{})
	for e := range p.Query(stores...).Iter() {
		d := e.Day()
		if d < 0 || d >= attack.WindowDays {
			continue
		}
		key := int64(d)<<32 | int64(uint32(e.Target))
		if _, ok := seenAll[key]; !ok {
			seenAll[key] = struct{}{}
			dailyAll[d]++
		}
		if e.Intensity() >= mean[e.Source.Sensor()] {
			if _, ok := seenMed[key]; !ok {
				seenMed[key] = struct{}{}
				dailyMed[d]++
			}
		}
	}
	type peak struct{ day, v int }
	peaks := make([]peak, 0, attack.WindowDays)
	for d, v := range dailyAll {
		peaks = append(peaks, peak{d, v})
	}
	slices.SortFunc(peaks, func(a, b peak) int {
		if c := cmp.Compare(b.v, a.v); c != 0 {
			return c
		}
		return cmp.Compare(a.day, b.day)
	})
	d := degradedFrom(statuses)
	res := figure7Response{
		Plan: p.EncodeString(), Days: attack.WindowDays,
		DailyTargets: dailyAll, DailyMedium: dailyMed,
		MeanIntensity: meanJSON(mean), Degraded: d,
	}
	for i := 0; i < 4 && i < len(peaks); i++ {
		res.PeakDays = append(res.PeakDays, peaks[i].day)
		res.PeakValues = append(res.PeakValues, peaks[i].v)
	}
	return res, d != nil, nil
}
