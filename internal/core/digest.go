package core

import (
	"math"
	"slices"

	"doscope/internal/attack"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/stats"
)

// devent is one attack event as the paper's analyses read it: 40 bytes,
// with the target replaced by its dense id and the port list by the
// three facts the analyses use.
type devent struct {
	start, end int64
	// intensity is MaxPPS for telescope events, AvgRPS for honeypot
	// events (Event.Intensity).
	intensity float64
	tid       int32 // dense target id: index into digest.targets
	// day is Event.Day clamped to [-1, MaxInt32], so every out-of-window
	// day stays out of the window.
	day    int32
	port   uint16 // first targeted port; the only one when nports == 1
	src    attack.Source
	vec    attack.Vector
	nports uint8 // distinct targeted ports, saturating at 255
	web    bool  // some targeted port is a Web port (attack.WebPort)
}

// dtarget is one distinct attacked address with what the analyses look
// up per address, resolved once: 24 bytes.
type dtarget struct {
	addr netx.Addr
	// slot is the address's openintel.ReverseIndex slot; -1 when it never
	// hosted a measured site or the Dataset has no History.
	slot int32
	// asn is a dense id into digest.asns; -1 when the address has no
	// origin AS or the Dataset has no Plan.
	asn      int32
	s16, s24 int32 // dense ids of the address's /16 and /24
	srcs     uint8 // bit 1<<src for each source that attacked it
}

// digest is both attack stores flattened once per store version into
// what every event-walking analysis reads, so a full report walks the
// stores once instead of once per analysis, and looks up the metadata
// of an address once instead of once per event.
type digest struct {
	// events holds every event of both stores in start order, the
	// order of attack.Query.IterByStart over (Telescope, Honeypot). Each
	// source's events appear in that store's Iter order.
	events []devent
	// targets holds the distinct targets in ascending address order, so
	// /16 and /24 ids ascend with them.
	targets []dtarget
	// byTarget lists event indices grouped by target: the events of
	// target t are byTarget[toff[t]:toff[t+1]], in start order.
	byTarget []int32
	toff     []int32
	asns     []ipmeta.ASN // distinct origin ASes, ascending
	n16, n24 int          // distinct /16s and /24s
	// sorted holds each source's intensities, ascending; mean their
	// mean, summed in event order.
	sorted [attack.NumSources][]float64
	mean   [attack.NumSources]float64
}

// medium reports whether the event is of medium or higher intensity:
// at least the mean intensity of its data set (MediumPlus).
func (d *digest) medium(e *devent) bool {
	return e.intensity >= d.mean[e.src]
}

// digest returns the event digest of the current store versions,
// building it from one IterByStart pass when either store changed.
func (ds *Dataset) digest() *digest {
	ds.refreshCaches()
	if ds.dig != nil {
		return ds.dig
	}
	n := ds.Telescope.Len() + ds.Honeypot.Len()
	d := &digest{events: make([]devent, 0, n)}
	d.sorted[attack.SourceTelescope] = make([]float64, 0, ds.Telescope.Len())
	d.sorted[attack.SourceHoneypot] = make([]float64, 0, ds.Honeypot.Len())
	addrs := make([]netx.Addr, 0, n)
	var sum [attack.NumSources]float64
	for e := range ds.All().IterByStart() {
		day := e.Day()
		if day < 0 {
			day = -1
		}
		v := devent{
			start: e.Start, end: e.End, intensity: e.Intensity(),
			day: int32(min(day, math.MaxInt32)),
			src: e.Source.Sensor(), vec: e.Vector,
			nports: uint8(min(len(e.Ports), math.MaxUint8)),
		}
		if len(e.Ports) > 0 {
			v.port = e.Ports[0]
		}
		for _, p := range e.Ports {
			if attack.WebPort(p) {
				v.web = true
				break
			}
		}
		d.events = append(d.events, v)
		addrs = append(addrs, e.Target)
		d.sorted[v.src] = append(d.sorted[v.src], v.intensity)
		sum[v.src] += v.intensity
	}
	for src, s := range d.sorted {
		if len(s) > 0 {
			d.mean[src] = sum[src] / float64(len(s))
		}
		stats.SortFloat64s(s)
	}
	d.indexTargets(addrs)
	ds.resolveTargets(d)
	ds.dig = d
	return d
}

// indexTargets numbers the distinct targets in address order, sets each
// event's tid and source bit, and groups the events by target. addrs
// holds each event's target.
func (d *digest) indexTargets(addrs []netx.Addr) {
	d.byTarget = sortByAddr(addrs)
	d.toff = make([]int32, 0, len(addrs)/2+1)
	var prev16, prev24 netx.Addr
	for k, i := range d.byTarget {
		a := addrs[i]
		if len(d.targets) == 0 || a != d.targets[len(d.targets)-1].addr {
			if len(d.targets) == 0 || a.Slash16() != prev16 {
				prev16 = a.Slash16()
				d.n16++
			}
			if len(d.targets) == 0 || a.Slash24() != prev24 {
				prev24 = a.Slash24()
				d.n24++
			}
			d.targets = append(d.targets, dtarget{addr: a, slot: -1, asn: -1, s16: int32(d.n16 - 1), s24: int32(d.n24 - 1)})
			d.toff = append(d.toff, int32(k))
		}
		tid := len(d.targets) - 1
		e := &d.events[i]
		e.tid = int32(tid)
		d.targets[tid].srcs |= 1 << e.src
	}
	d.toff = append(d.toff, int32(len(addrs)))
}

// sortByAddr returns the indices of addrs ordered by address, equal
// addresses in index order: a stable LSD radix sort, one byte per pass.
func sortByAddr(addrs []netx.Addr) []int32 {
	perm, tmp := make([]int32, len(addrs)), make([]int32, len(addrs))
	for i := range perm {
		perm[i] = int32(i)
	}
	for shift := 0; shift < 32; shift += 8 {
		var next [256]int32
		for _, a := range addrs {
			next[byte(a>>shift)]++
		}
		if slices.Contains(next[:], int32(len(addrs))) {
			continue // one bucket: the pass would not move anything
		}
		off := int32(0)
		for b, c := range next {
			next[b] = off
			off += c
		}
		for _, i := range perm {
			b := byte(addrs[i] >> shift)
			tmp[next[b]] = i
			next[b]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}

// resolveTargets looks up each target's reverse-index slot and origin
// AS, once per target.
func (ds *Dataset) resolveTargets(d *digest) {
	if ds.History != nil {
		rev := ds.History.ReverseIndex()
		for i := range d.targets {
			d.targets[i].slot = rev.Slot(d.targets[i].addr)
		}
	}
	if ds.Plan == nil {
		return
	}
	asOf := make([]ipmeta.ASN, len(d.targets))
	for i := range d.targets {
		if asn, ok := ds.Plan.ASOf(d.targets[i].addr); ok {
			asOf[i] = asn
			d.targets[i].asn = 0 // resolved; numbered below
			d.asns = append(d.asns, asn)
		}
	}
	slices.Sort(d.asns)
	d.asns = slices.Compact(d.asns)
	for i := range d.targets {
		if t := &d.targets[i]; t.asn >= 0 {
			id, _ := slices.BinarySearch(d.asns, asOf[i])
			t.asn = int32(id)
		}
	}
}
