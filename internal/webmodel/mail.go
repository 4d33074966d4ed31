package webmodel

import (
	"fmt"
	"math/rand"
	"slices"

	"doscope/internal/ipmeta"
	"doscope/internal/netx"
)

// Mail infrastructure model — the paper's §8 extension ("we find that
// GoDaddy's e-mail servers, which are used by tens of millions of domain
// names, are frequently targeted by DoS attacks. In future work, we plan
// to investigate the impact of DoS attacks on mail infrastructure").
//
// Each hosting pool runs a small mail cluster shared by all its domains
// (the MX of w123.com points at mail.godaddy-dns.net, which resolves into
// the hoster's network); self-hosted singles run mail on their Web IP.

// BuildMail allocates mail-cluster addresses for every pool and indexes
// which domains each mail-serving address handles. Call after Build;
// idempotent.
func (p *Population) BuildMail(seed int64) error {
	if p.mailOff != nil {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x3a11))
	slot := int32(len(p.SingleIPs))
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		n := 1
		if len(pool.Sites) > 5000 {
			n = 2 // mega hosters run more than one MX host
		}
		for len(pool.MailIPs) < n {
			addr, ok := p.allocIPInAS(rng, p.cfg.Plan, pool.ASN)
			if !ok {
				return fmt.Errorf("webmodel: cannot allocate mail IP in AS%d", pool.ASN)
			}
			p.addrs[addr] = slot
			slot++
			pool.MailIPs = append(pool.MailIPs, addr)
		}
	}
	p.indexMail(slot)
	return nil
}

// indexMail lays out the mail index over slots mail slots: for each, the
// ids of the domains whose mail its address handles, by birth day then
// id. The slot of an address is its value in addrs; allocIPInAS keeps
// every address to one role, so each mail-serving address has one slot.
func (p *Population) indexMail(slots int32) {
	slotOf := make([]int32, len(p.Domains))
	// Counting sort by birth day, then a stable distribution into the
	// slots, leaves each slot's domains ordered by (birth day, id).
	byBirth := make([]int32, p.cfg.WindowDays+1) // birth days are below WindowDays
	off := make([]int32, slots+1)
	for id := range p.Domains {
		d := &p.Domains[id]
		if pool, pos := p.site(uint32(id)); pool != nil {
			slotOf[id] = p.addrs[pool.MailIPs[pos%len(pool.MailIPs)]]
		} else {
			slotOf[id] = d.SingleIP
		}
		byBirth[d.BirthDay+1]++
		off[slotOf[id]+1]++
	}
	for i := 1; i < len(byBirth); i++ {
		byBirth[i] += byBirth[i-1]
	}
	order := make([]uint32, len(p.Domains))
	for id := range p.Domains {
		b := p.Domains[id].BirthDay
		order[byBirth[b]] = uint32(id)
		byBirth[b]++
	}
	for s := 1; s < len(off); s++ {
		off[s] += off[s-1]
	}
	p.mailOff = off
	p.mailIDs = make([]uint32, len(p.Domains))
	p.mailBirth = make([]uint16, len(p.Domains))
	next := slices.Clone(off[:len(off)-1])
	for _, id := range order {
		s := slotOf[id]
		p.mailIDs[next[s]] = id
		p.mailBirth[next[s]] = p.Domains[id].BirthDay
		next[s]++
	}
}

// MailAddrOf returns where the domain's MX target resolves on a day.
// Mail does not follow Web DPS migrations (the paper's DPS mechanisms
// divert Web traffic); pool mail stays on the hoster's mail cluster,
// where site i of the pool has its mail at MailIPs[i % len(MailIPs)].
func (p *Population) MailAddrOf(id uint32, day int) (netx.Addr, bool) {
	d := &p.Domains[id]
	if int(d.BirthDay) > day {
		return 0, false
	}
	pool, pos := p.site(id)
	if pool == nil {
		return p.SingleIPs[d.SingleIP], true
	}
	if len(pool.MailIPs) == 0 {
		return 0, false
	}
	return pool.MailIPs[pos%len(pool.MailIPs)], true
}

// MailSlot returns the mail slot of addr, the argument MailDomains takes,
// or -1 when addr serves no mail. Before BuildMail no address does.
func (p *Population) MailSlot(addr netx.Addr) int32 {
	if s, ok := p.addrs[addr]; ok && s >= 0 && p.mailOff != nil {
		return s
	}
	return -1
}

// MailDomains returns the domains whose mail the address of a slot from
// MailSlot handles on the given day: those born by then, ordered by
// birth day. The slice is shared; callers must not modify it.
func (p *Population) MailDomains(slot int32, day int) []uint32 {
	lo, hi := p.mailOff[slot], p.mailOff[slot+1]
	// The first domain born after day ends the prefix.
	n, m := lo, hi
	for n < m {
		k := int32(uint32(n+m) >> 1)
		if int(p.mailBirth[k]) <= day {
			n = k + 1
		} else {
			m = k
		}
	}
	return p.mailIDs[lo:n]
}

// MailTarget is an attackable mail-cluster IP.
type MailTarget struct {
	Addr    netx.Addr
	Pool    int32
	Domains int
	ASN     ipmeta.ASN
}

// MailTargets lists the mail clusters of attacked hosting pools; the
// simulator targets the big ones (the paper singles out GoDaddy's mail
// servers as frequent targets).
func (p *Population) MailTargets(minDomains int) []MailTarget {
	var out []MailTarget
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		if !pool.Attacked || len(pool.MailIPs) == 0 {
			continue
		}
		per := len(pool.Sites) / len(pool.MailIPs)
		if per < minDomains {
			continue
		}
		for _, addr := range pool.MailIPs {
			out = append(out, MailTarget{Addr: addr, Pool: int32(pi), Domains: per, ASN: pool.ASN})
		}
	}
	return out
}
