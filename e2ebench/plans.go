package main

import (
	"fmt"
	"math/rand"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// The query mix every HTTP workload draws from. The endpoints are the
// httpapi counting and figure surface; the weights, like the day-range
// lengths below and the Zipf exponent of fed-query, are assumptions no
// measured query log backs. Each run's manifest gives every endpoint's
// own median, so the weighting cannot hide a change on one endpoint.
var endpointMix = []struct {
	path   string
	weight int
}{
	{"/v1/count", 4},
	{"/v1/count/vector", 2},
	{"/v1/count/day", 2},
	{"/v1/count/target-prefix", 1},
	{"/v1/figures/1", 1},
}

// request is one HTTP query: an endpoint and its compiled plan.
type request struct {
	path string
	plan attack.Plan
}

// url is the request's path and query string.
func (r request) url() string {
	if q := r.plan.Values().Encode(); q != "" {
		return r.path + "?" + q
	}
	return r.path
}

// population draws n distinct-looking requests from the endpoint mix:
// counts and vector counts over random day ranges, day series per
// source, target-prefix breakdowns over random /8-/16 blocks, and
// Figure 1 over random day ranges.
func population(seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, e := range endpointMix {
		total += e.weight
	}
	days := func(p *attack.Plan) {
		lo := rng.Intn(attack.WindowDays)
		hi := min(attack.WindowDays-1, lo+rng.Intn(180))
		p.HasDays, p.DayLo, p.DayHi = true, int32(lo), int32(hi)
	}
	out := make([]request, n)
	for i := range out {
		pick := rng.Intn(total)
		var path string
		for _, e := range endpointMix {
			if pick < e.weight {
				path = e.path
				break
			}
			pick -= e.weight
		}
		p := attack.PlanAll()
		switch path {
		case "/v1/count", "/v1/count/vector", "/v1/figures/1":
			days(&p)
		case "/v1/count/day":
			p.Source = int8(rng.Intn(attack.NumSources+1)) - 1
		case "/v1/count/target-prefix":
			bits := 8 + rng.Intn(9)
			addr := netx.Addr(rng.Uint32()).Mask(bits)
			p.HasPrefix, p.PrefixBits, p.Prefix = true, uint8(bits), addr
		default:
			panic(fmt.Sprintf("unhandled endpoint %s", path))
		}
		out[i] = request{path: path, plan: p}
	}
	return out
}

// zipfSequence draws n indexes into a population of size popSize,
// Zipf-distributed with exponent s (index 0 the most popular).
func zipfSequence(seed int64, popSize, n int, s float64) []int32 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(popSize-1))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(z.Uint64())
	}
	return out
}

// endpointP50 is each endpoint's median latency in ms over the
// successful samples; path names the endpoint of operation op.
func endpointP50(samples []sample, path func(op int) string) map[string]float64 {
	lat := make(map[string][]float64)
	for _, s := range samples {
		if !s.err {
			p := path(s.op)
			lat[p] = append(lat[p], ms(s.latency()))
		}
	}
	out := make(map[string]float64, len(lat))
	for p, v := range lat {
		out[p] = newDist(v).pct(50)
	}
	return out
}
