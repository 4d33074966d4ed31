package ipmeta

import (
	"doscope/internal/netx"
)

// ASN is an autonomous system number.
type ASN uint32

// PrefixTrie is a binary radix trie for longest-prefix-match lookups.
// Nodes are stored in a flat slice for cache locality; the zero value is an
// empty trie ready for use.
type PrefixTrie struct {
	nodes []trieNode
	size  int // number of stored prefixes
}

type trieNode struct {
	child [2]int32 // index into nodes; 0 means nil (node 0 is the root)
	asn   ASN
	set   bool
}

func (t *PrefixTrie) init() {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, trieNode{})
	}
}

// Insert adds a prefix→ASN mapping, replacing any previous value for the
// exact same prefix.
func (t *PrefixTrie) Insert(p netx.Prefix, asn ASN) {
	t.init()
	idx := int32(0)
	addr := uint32(p.Addr())
	for depth := 0; depth < p.Bits(); depth++ {
		bit := (addr >> (31 - uint(depth))) & 1
		next := t.nodes[idx].child[bit]
		if next == 0 {
			t.nodes = append(t.nodes, trieNode{})
			next = int32(len(t.nodes) - 1)
			t.nodes[idx].child[bit] = next
		}
		idx = next
	}
	if !t.nodes[idx].set {
		t.size++
	}
	t.nodes[idx].asn = asn
	t.nodes[idx].set = true
}

// Lookup returns the ASN of the most specific prefix covering the address.
func (t *PrefixTrie) Lookup(a netx.Addr) (ASN, bool) {
	if len(t.nodes) == 0 {
		return 0, false
	}
	var (
		best    ASN
		found   bool
		idx     int32
		addrBit = uint32(a)
	)
	for depth := 0; ; depth++ {
		n := &t.nodes[idx]
		if n.set {
			best, found = n.asn, true
		}
		if depth == 32 {
			break
		}
		bit := (addrBit >> (31 - uint(depth))) & 1
		next := n.child[bit]
		if next == 0 {
			break
		}
		idx = next
	}
	return best, found
}

// Len returns the number of stored prefixes.
func (t *PrefixTrie) Len() int { return t.size }

// LinearPfx2AS is a reference longest-prefix-match implementation that
// scans all prefixes. It exists to cross-check the trie in tests and to
// quantify the trie's benefit in the ablation bench.
type LinearPfx2AS struct {
	prefixes []netx.Prefix
	asns     []ASN
}

// Insert adds a prefix→ASN mapping.
func (l *LinearPfx2AS) Insert(p netx.Prefix, asn ASN) {
	for i, q := range l.prefixes {
		if q == p {
			l.asns[i] = asn
			return
		}
	}
	l.prefixes = append(l.prefixes, p)
	l.asns = append(l.asns, asn)
}

// Lookup scans every prefix and returns the longest match.
func (l *LinearPfx2AS) Lookup(a netx.Addr) (ASN, bool) {
	bestLen := -1
	var best ASN
	for i, p := range l.prefixes {
		if p.Contains(a) && p.Bits() > bestLen {
			bestLen = p.Bits()
			best = l.asns[i]
		}
	}
	return best, bestLen >= 0
}

// Len returns the number of stored prefixes.
func (l *LinearPfx2AS) Len() int { return len(l.prefixes) }
