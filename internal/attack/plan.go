package attack

import (
	"encoding/binary"
	"fmt"
	"math"

	"doscope/internal/netx"
)

// Plan is a Query's filter set in portable, serializable form: the
// source, vector, day-range, and target-prefix filters, without the
// stores they run against. A Query carries exactly one Plan, and a Plan
// is what federation ships to a remote site — the site binds it to its
// local store and executes it there, so counting terminals move index
// partials instead of events. PlanAll, the zero value with Source set
// to -1, matches every event.
type Plan struct {
	Source     int8   // -1 = any sensor
	VecMask    uint32 // 0 = all vectors; else bit v selects Vector(v)
	HasDays    bool
	DayLo      int32 // inclusive day range, meaningful when HasDays
	DayHi      int32
	HasPrefix  bool
	PrefixBits uint8     // 0..32, meaningful when HasPrefix
	Prefix     netx.Addr // masked to PrefixBits
}

// PlanAll returns the plan matching every event.
func PlanAll() Plan { return Plan{Source: -1} }

// All reports whether the plan carries no filter at all — the case where
// a federation site can ship its store verbatim instead of materializing
// a filtered copy.
func (p Plan) All() bool {
	return p.Source < 0 && p.VecMask == 0 && !p.HasDays && !p.HasPrefix
}

// The filter semantics, written once: the Query and FedQuery builders
// and PlanFromValues all narrow a plan through these mutators.

// addVectors adds the vectors to the plan's vector mask. It panics on a
// vector the 32-bit mask cannot represent, which would otherwise shift
// to no bit at all and leave the filter matching every vector.
func (p *Plan) addVectors(vs ...Vector) {
	for _, v := range vs {
		if v >= 32 {
			panic(fmt.Sprintf("attack: vector %d does not fit a plan's 32-bit vector mask", v))
		}
		p.VecMask |= 1 << v
	}
}

// setDays sets the inclusive day range, saturating each bound to the
// int32 day domain the wire encoding carries, so a local query and its
// shipped plan select the same days.
func (p *Plan) setDays(lo, hi int) {
	sat := func(d int) int32 { return int32(min(max(d, math.MinInt32), math.MaxInt32)) }
	p.HasDays, p.DayLo, p.DayHi = true, sat(lo), sat(hi)
}

// setPrefix sets the target prefix a/bits, masking a to bits. It panics
// on a prefix length outside [0, 32].
func (p *Plan) setPrefix(a netx.Addr, bits int) {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("attack: prefix length %d outside [0, 32]", bits))
	}
	p.HasPrefix, p.PrefixBits, p.Prefix = true, uint8(bits), a.Mask(bits)
}

// selects reports whether the plan's source and vector filters admit
// events of (src, vec).
func (p *Plan) selects(src, vec int) bool {
	return (p.Source < 0 || int(p.Source) == src) && (p.VecMask == 0 || p.VecMask&(1<<vec) != 0)
}

// startRange returns the plan's day range as start timestamps
// [lo, hi): DayOf is a floor division, so day d in [DayLo, DayHi] is
// exactly start in [DayLo*86400, (DayHi+1)*86400) relative to the
// window — two compares per row on the hot path instead of a division.
func (p *Plan) startRange() (lo, hi int64) {
	return WindowStart + int64(p.DayLo)*86400, WindowStart + (int64(p.DayHi)+1)*86400
}

// Plan returns the query's filters in their portable form.
func (q *Query) Plan() Plan { return q.plan }

// Query binds the plan to the given stores as an executable query — the
// inverse of Query.Plan, used by federation sites to run a shipped plan
// against their local store.
func (p Plan) Query(stores ...*Store) *Query {
	lo, hi := p.startRange()
	return &Query{stores: stores, plan: p, startLo: lo, startHi: hi}
}

// PlanSize is the length of the fixed binary plan encoding.
const PlanSize = 20

// Plan encoding flag bits.
const (
	planHasDays   = 1 << 0
	planHasPrefix = 1 << 1
	planKnownFlag = planHasDays | planHasPrefix
)

// planAnySource encodes Source = -1 (any sensor) on the wire.
const planAnySource = 0xff

// AppendBinary appends the 20-byte plan encoding (see docs/FORMATS.md):
//
//	[0]      source (0xff = any)
//	[1]      flags (bit 0 has-days, bit 1 has-prefix)
//	[2]      prefix bits
//	[3]      reserved, zero
//	[4:8]    vector mask  (uint32 LE)
//	[8:12]   day lo       (int32 LE)
//	[12:16]  day hi       (int32 LE)
//	[16:20]  prefix       (uint32 LE)
func (p Plan) AppendBinary(b []byte) []byte {
	var buf [PlanSize]byte
	if p.Source < 0 {
		buf[0] = planAnySource
	} else {
		buf[0] = byte(p.Source)
	}
	if p.HasDays {
		buf[1] |= planHasDays
	}
	if p.HasPrefix {
		buf[1] |= planHasPrefix
		buf[2] = p.PrefixBits
	}
	binary.LittleEndian.PutUint32(buf[4:8], p.VecMask)
	if p.HasDays {
		binary.LittleEndian.PutUint32(buf[8:12], uint32(p.DayLo))
		binary.LittleEndian.PutUint32(buf[12:16], uint32(p.DayHi))
	}
	if p.HasPrefix {
		binary.LittleEndian.PutUint32(buf[16:20], uint32(p.Prefix))
	}
	return append(b, buf[:]...)
}

// DecodePlan parses the fixed binary plan encoding, validating every
// field against its domain: unknown flag bits, nonzero reserved bytes,
// out-of-range sources, vector-mask bits beyond NumVectors, prefix
// lengths beyond 32, and fields set without their flag are all rejected
// rather than trusted — a corrupt or hostile frame must not turn into a
// silently different query.
func DecodePlan(b []byte) (Plan, error) {
	if len(b) != PlanSize {
		return Plan{}, fmt.Errorf("attack: plan is %d bytes, want %d", len(b), PlanSize)
	}
	var p Plan
	switch src := b[0]; {
	case src == planAnySource:
		p.Source = -1
	case int(src) < NumSources:
		p.Source = int8(src)
	default:
		return Plan{}, fmt.Errorf("attack: plan: bad source %d", src)
	}
	flags := b[1]
	if flags&^byte(planKnownFlag) != 0 {
		return Plan{}, fmt.Errorf("attack: plan: unknown flag bits %#x", flags)
	}
	if b[3] != 0 {
		return Plan{}, fmt.Errorf("attack: plan: nonzero reserved byte")
	}
	p.VecMask = binary.LittleEndian.Uint32(b[4:8])
	if p.VecMask>>NumVectors != 0 {
		return Plan{}, fmt.Errorf("attack: plan: vector mask %#x has bits beyond %d vectors", p.VecMask, NumVectors)
	}
	dayLo := int32(binary.LittleEndian.Uint32(b[8:12]))
	dayHi := int32(binary.LittleEndian.Uint32(b[12:16]))
	if flags&planHasDays != 0 {
		p.HasDays, p.DayLo, p.DayHi = true, dayLo, dayHi
	} else if dayLo != 0 || dayHi != 0 {
		return Plan{}, fmt.Errorf("attack: plan: day range set without the has-days flag")
	}
	bits := b[2]
	prefix := binary.LittleEndian.Uint32(b[16:20])
	if flags&planHasPrefix != 0 {
		if bits > 32 {
			return Plan{}, fmt.Errorf("attack: plan: prefix length %d", bits)
		}
		p.HasPrefix, p.PrefixBits, p.Prefix = true, bits, netx.Addr(prefix)
		if p.Prefix.Mask(int(bits)) != p.Prefix {
			return Plan{}, fmt.Errorf("attack: plan: prefix %s has bits beyond /%d", p.Prefix, bits)
		}
	} else if bits != 0 || prefix != 0 {
		return Plan{}, fmt.Errorf("attack: plan: prefix set without the has-prefix flag")
	}
	return p, nil
}
