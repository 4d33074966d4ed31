// Package openintel reproduces the role the OpenINTEL active DNS
// measurement platform plays in the paper (§3.2): structural daily
// measurement of all domains in .com/.net/.org, yielding the historical
// mapping between Web sites (www labels) and the IP addresses hosting
// them, plus the DPS-use data set derived from NS/CNAME/A evidence.
//
// Two acquisition paths share one output type (History):
//
//   - the wire path measures a live authoritative server through the
//     dnswire codec, exactly like the real platform queries the real DNS
//     (used in integration tests and the dnsmeasure example), and
//   - the model path derives the same per-domain timelines directly from
//     the synthetic Web ecosystem, which is behaviourally equivalent to
//     walking every domain every day but feasible at full simulated scale.
package openintel

import (
	"sync"

	"doscope/internal/dps"
	"doscope/internal/netx"
	"doscope/internal/webmodel"
)

// Segment is one homogeneous stretch of a domain's DNS state: the www
// label resolves to Addr and the domain is (or is not) behind a DPS.
type Segment struct {
	From, To int32 // day indexes, inclusive
	Addr     netx.Addr
	Provider dps.Provider
}

// History holds per-domain measurement timelines for the whole window.
type History struct {
	WindowDays int
	// Segments[id] are ordered, non-overlapping day ranges.
	Segments [][]Segment
	// TLD[id] is the domain's TLD (webmodel.TLD values).
	TLD []uint8

	revOnce sync.Once
	rev     *ReverseIndex
}

// FromWebModel derives the History the daily walker would have measured,
// by evaluating each domain's DNS state through the same detector at its
// change points (birth and migration day).
func FromWebModel(pop *webmodel.Population, det *dps.Detector, windowDays int) *History {
	h := &History{
		WindowDays: windowDays,
		Segments:   make([][]Segment, pop.NumDomains()),
		TLD:        make([]uint8, pop.NumDomains()),
	}
	for id := 0; id < pop.NumDomains(); id++ {
		d := &pop.Domains[id]
		h.TLD[id] = uint8(d.TLD)
		birth := int32(d.BirthDay)
		if int(birth) >= windowDays {
			continue
		}
		changeDays := []int32{birth}
		if d.MigDay > birth && int(d.MigDay) < windowDays {
			changeDays = append(changeDays, d.MigDay)
		}
		var segs []Segment
		for i, from := range changeDays {
			to := int32(windowDays - 1)
			if i+1 < len(changeDays) {
				to = changeDays[i+1] - 1
			}
			day := int(from)
			segs = append(segs, Segment{
				From: from, To: to,
				Addr:     pop.AddrOf(uint32(id), day),
				Provider: det.Detect(pop.DNSStateOf(uint32(id), day)),
			})
		}
		h.Segments[id] = segs
	}
	return h
}

// NumDomains returns the number of measured domains.
func (h *History) NumDomains() int { return len(h.Segments) }

// BirthDay returns the first day a domain was seen, or -1 if never.
func (h *History) BirthDay(id uint32) int {
	segs := h.Segments[id]
	if len(segs) == 0 {
		return -1
	}
	return int(segs[0].From)
}

// FirstProtectedDay returns the first day the domain was seen behind a
// DPS, with the provider; ok is false if it never was.
func (h *History) FirstProtectedDay(id uint32) (int, dps.Provider, bool) {
	for _, s := range h.Segments[id] {
		if s.Provider != dps.None {
			return int(s.From), s.Provider, true
		}
	}
	return 0, dps.None, false
}

// Preexisting reports whether the domain was protected from its first
// observation (the paper's "preexisting customer" class).
func (h *History) Preexisting(id uint32) bool {
	segs := h.Segments[id]
	return len(segs) > 0 && segs[0].Provider != dps.None
}

// DataPoints estimates the total measurement data points collected over
// the window, Table 2 style: one A observation per domain-day plus one NS
// observation per domain-day (CNAME chains add one more).
func (h *History) DataPoints() uint64 {
	var total uint64
	for id := range h.Segments {
		for _, s := range h.Segments[id] {
			days := uint64(s.To - s.From + 1)
			total += days * 2
		}
	}
	return total
}

// --- reverse index -------------------------------------------------------

// Hosting is one stretch of days on which a site was hosted at an
// address: one Segment, seen from the address.
type Hosting struct {
	From, To int32 // day indexes, inclusive
	ID       uint32
}

// ReverseIndex answers "which Web sites were on this address on this day",
// the join at the heart of §5. It is laid out flat: slot maps an address
// to its slot s, whose hostings are entries[off[s]:off[s+1]] in site-id
// order. Lookups are by slot: an address is hashed once, by Slot, however
// often its hostings are read.
type ReverseIndex struct {
	slot    map[netx.Addr]int32
	off     []int32
	entries []Hosting
}

// ReverseIndex returns the history's reverse index, built by the first
// call and shared by every later one, so each analysis over the same
// history reuses it. The history must not change after the first call.
func (h *History) ReverseIndex() *ReverseIndex {
	h.revOnce.Do(func() { h.rev = h.buildReverseIndex() })
	return h.rev
}

// buildReverseIndex inverts the history by counting: one pass numbers the
// addresses and counts their segments, a second scatters the segments
// into their slots in site-id order.
func (h *History) buildReverseIndex() *ReverseIndex {
	total := 0
	for _, segs := range h.Segments {
		total += len(segs)
	}
	r := &ReverseIndex{slot: make(map[netx.Addr]int32)}
	segSlot := make([]int32, 0, total) // each segment's slot, in scan order
	var counts []int32
	for _, segs := range h.Segments {
		for _, s := range segs {
			sl, ok := r.slot[s.Addr]
			if !ok {
				sl = int32(len(counts))
				r.slot[s.Addr] = sl
				counts = append(counts, 0)
			}
			counts[sl]++
			segSlot = append(segSlot, sl)
		}
	}
	r.off = make([]int32, len(counts)+1)
	for sl, n := range counts {
		r.off[sl+1] = r.off[sl] + n
	}
	r.entries = make([]Hosting, total)
	next := counts // reused as each slot's fill cursor
	copy(next, r.off)
	k := 0
	for id, segs := range h.Segments {
		for _, s := range segs {
			sl := segSlot[k]
			k++
			r.entries[next[sl]] = Hosting{s.From, s.To, uint32(id)}
			next[sl]++
		}
	}
	return r
}

// Slot returns the slot of an address, or -1 if it never hosted a
// measured site.
func (r *ReverseIndex) Slot(addr netx.Addr) int32 {
	if sl, ok := r.slot[addr]; ok {
		return sl
	}
	return -1
}

// Hostings returns the hostings of the address whose slot Slot returned,
// in site-id order; a negative slot has none. A site is hosted at an
// address on day d if d lies in one of its hostings there. The slice is
// the index's own and must not be modified.
func (r *ReverseIndex) Hostings(slot int32) []Hosting {
	if slot < 0 {
		return nil
	}
	return r.entries[r.off[slot]:r.off[slot+1]]
}
