package attack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"doscope/internal/netx"
)

// segmentBytes encodes a store as a DOSEVT02 image.
func segmentBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewStore(randomEvents(rng, 3000))
	got, err := OpenSegment(segmentBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), s.Len())
	}
	if !reflect.DeepEqual(got.Events(), s.Events()) {
		t.Fatal("segment round trip changed the event sequence")
	}
	if got.Query().Count() != s.Query().Count() {
		t.Fatal("count mismatch after round trip")
	}
}

func TestSegmentRoundTripEmpty(t *testing.T) {
	got, err := OpenSegment(segmentBytes(t, &Store{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || len(got.Events()) != 0 {
		t.Fatalf("empty store round trip yielded %d events", got.Len())
	}
}

// TestSegmentStoreQueryOracle runs the full query-case matrix against a
// segment-backed store: the mmap-shaped columns must answer every
// terminal exactly like the heap store the segment was written from.
func TestSegmentStoreQueryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	heap := NewStore(randomEvents(rng, 4000))
	seg, err := OpenSegment(segmentBytes(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	evs := append([]Event(nil), heap.Events()...)
	for _, tc := range queryCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleFilter(evs, tc.oracle)
			if got := tc.build(seg.Query()).Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Events: got %d, want %d", len(got), len(want))
			}
			if got := tc.build(seg.Query()).Count(); got != len(want) {
				t.Errorf("Count = %d, want %d", got, len(want))
			}
			var wantVec [NumVectors]int
			for i := range want {
				wantVec[want[i].Vector]++
			}
			if got := tc.build(seg.Query()).CountByVector(); got != wantVec {
				t.Errorf("CountByVector = %v, want %v", got, wantVec)
			}
		})
	}
}

// TestSegmentFile exercises the mmap path end to end, including Add on a
// frozen (segment-backed) store, which must copy the shard out of the
// mapping rather than write through it.
func TestSegmentFile(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s := NewStore(randomEvents(rng, 1500))
	path := filepath.Join(t.TempDir(), "events.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSegment(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	got, closer, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !reflect.DeepEqual(got.Events(), s.Events()) {
		t.Fatal("mmap'd store does not match the written store")
	}

	// Live ingest into the mapped store: copy-on-write, then re-query.
	ev := Event{
		Source: SourceHoneypot, Vector: VectorNTP,
		Target: netx.MustParseAddr("192.0.2.200"),
		Start:  WindowStart + 123, End: WindowStart + 456,
	}
	before := got.Query().Target(ev.Target).Count()
	got.Add(ev)
	if n := got.Query().Target(ev.Target).Count(); n != before+1 {
		t.Fatalf("count after Add = %d, want %d", n, before+1)
	}
	if got.Len() != s.Len()+1 {
		t.Fatalf("Len after Add = %d", got.Len())
	}

	// The backing file must be untouched by the mutation.
	reread, closer2, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	if reread.Len() != s.Len() {
		t.Fatal("Add wrote through to the segment file")
	}
}

// failAfter passes the first n bytes through to w, then fails every
// write with err: a device that fills up mid-file.
type failAfter struct {
	w   io.Writer
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return f.w.Write(p)
	}
	k, _ := f.w.Write(p[:f.n])
	f.n = 0
	return k, f.err
}

// TestWriteSegmentFileAtomic: for both file codecs, a written file
// round-trips, a rewrite replaces it leaving no temporary file behind,
// and an encoder that fails mid-file leaves the previous file
// byte-identical.
func TestWriteSegmentFileAtomic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	first, second := NewStore(randomEvents(rng, 700)), NewStore(randomEvents(rng, 900))
	for _, tc := range []struct {
		name   string
		file   func(*Store, string) error
		encode func(*Store, io.Writer) error
		read   func(t *testing.T, path string) []Event
	}{
		{"segment", (*Store).WriteSegmentFile, (*Store).WriteSegment, func(t *testing.T, path string) []Event {
			s, closer, err := OpenSegmentFile(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { closer.Close() }) // Ports alias the mapping
			return s.Query().Events()
		}},
		{"csv", (*Store).WriteCSVFile, (*Store).WriteCSV, func(t *testing.T, path string) []Event {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := ReadCSV(f)
			if err != nil {
				t.Fatal(err)
			}
			return s.Query().Events()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "events")
			for _, s := range []*Store{first, second} {
				if err := tc.file(s, path); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(tc.read(t, path), second.Query().Events()) {
				t.Fatal("file does not hold the last store written")
			}

			prev, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			boom := errors.New("device full")
			err = writeFileAtomic(path, func(w io.Writer) error {
				return tc.encode(first, &failAfter{w: w, n: 100, err: boom})
			})
			if !errors.Is(err, boom) {
				t.Fatalf("failed write returned %v, want the write error", err)
			}
			if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, prev) {
				t.Fatalf("failed write changed the previous file (err %v)", err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != "events" {
				t.Fatalf("directory holds %v, want only events", entries)
			}
		})
	}
}

// TestOpenSegmentFileRejectsBadMagic: the file opener serves a segment
// and refuses anything under another magic.
func TestOpenSegmentFileRejectsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := NewStore(randomEvents(rng, 800))
	dir := t.TempDir()

	segPath := filepath.Join(dir, "events.seg")
	if err := os.WriteFile(segPath, segmentBytes(t, s), 0o644); err != nil {
		t.Fatal(err)
	}
	got, closer, err := OpenSegmentFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if !reflect.DeepEqual(got.Events(), s.Events()) {
		t.Fatal("event mismatch")
	}

	badPath := filepath.Join(dir, "events.bad")
	if err := os.WriteFile(badPath, []byte("NOTMAGIC plus some trailing junk, long enough for a trailer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSegmentFile(badPath); err == nil {
		t.Error("unknown magic accepted")
	}
}

// TestSegmentRejectsCorrupt hand-corrupts a valid image in the ways the
// reader must detect: truncation anywhere, trailer damage, geometry and
// offset lies.
func TestSegmentRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	raw := segmentBytes(t, NewStore(randomEvents(rng, 500)))

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		b := mutate(append([]byte(nil), raw...))
		if _, err := OpenSegment(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("short", func(b []byte) []byte { return b[:20] })
	corrupt("truncated trailer", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("truncated footer", func(b []byte) []byte {
		// Drop one footer entry and pretend nothing happened.
		return append(b[:len(b)-segTrailerLen-segFooterEntry], b[len(b)-segTrailerLen:]...)
	})
	corrupt("bad leading magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("bad trailer magic", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	corrupt("bad shard count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-24:], numShards+1)
		return b
	})
	corrupt("bad total rows", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-16:], 999999)
		return b
	})
	corrupt("footer offset beyond file", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[len(b)-32:], uint64(len(b)))
		return b
	})
	corrupt("block offset beyond footer", func(b []byte) []byte {
		footerOff := binary.LittleEndian.Uint64(b[len(b)-32:])
		// First non-empty shard's block offset.
		for si := uint64(0); si < numShards; si++ {
			m := b[footerOff+si*segFooterEntry:]
			if binary.LittleEndian.Uint64(m[8:16]) > 0 {
				binary.LittleEndian.PutUint64(m[0:8], footerOff)
				break
			}
		}
		return b
	})

	if _, err := OpenSegment(raw); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// TestSegmentCorruptPortRefs checks the defensive arena bounds: port
// references pointing outside the arena must come back as empty port
// lists, never a panic.
func TestSegmentCorruptPortRefs(t *testing.T) {
	s := NewStore(sampleEvents())
	raw := segmentBytes(t, s)
	// Find the first non-empty shard and poison its port_off column.
	footerOff := binary.LittleEndian.Uint64(raw[len(raw)-32:])
	for si := uint64(0); si < numShards; si++ {
		m := raw[footerOff+si*segFooterEntry:]
		off := binary.LittleEndian.Uint64(m[0:8])
		rows := binary.LittleEndian.Uint64(m[8:16])
		if rows == 0 {
			continue
		}
		binary.LittleEndian.PutUint32(raw[off+52*rows:], 1<<30)
		break
	}
	got, err := OpenSegment(raw)
	if err != nil {
		t.Fatal(err)
	}
	for e := range got.Query().Iter() {
		_ = e.Ports // must not panic
	}
}

// FuzzOpenSegment feeds arbitrary bytes to the segment reader: it must
// either error out or produce a store that can be fully iterated and
// whose pruned scans count what iteration finds, never panic.
func FuzzOpenSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(53))
	valid := segmentBytes(f, NewStore(randomEvents(rng, 200)))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	empty := segmentBytes(f, &Store{})
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := OpenSegment(data)
		if err != nil {
			return
		}
		n := 0
		for e := range s.Query().Iter() {
			_ = e.Ports
			n++
		}
		if n != s.Len() {
			t.Fatalf("iterated %d events, Len says %d", n, s.Len())
		}
		s.Query().CountByVector()
		// Shard pruning must not drop rows, wherever a corrupt file put
		// them: every pair's scan count agrees with the Iter tally.
		want, _ := pairTally(s)
		for src := Source(0); int(src) < NumSources; src++ {
			for vec := Vector(0); int(vec) < NumVectors; vec++ {
				if got := s.Query().Source(src).Vectors(vec).TargetPrefix(0, 0).Count(); got != want[src][vec] {
					t.Fatalf("(%v, %v) counted %d, Iter tallied %d", src, vec, got, want[src][vec])
				}
			}
		}
	})
}

// TestIterScratchContract documents the scratch-Event iteration contract:
// Iter yields the same scratch pointer every time.
func TestIterScratchContract(t *testing.T) {
	s := NewStore(sampleEvents())
	var first *Event
	for e := range s.Query().Iter() {
		if first == nil {
			first = e
		} else if e != first {
			t.Fatal("Iter yielded a new pointer; expected the per-iteration scratch")
		}
	}
}

// TestSegmentRejectsOverflowingBlockOffset covers the uint64-wraparound
// corner: a footer block offset near the top of the address space must
// be rejected by the bounds check, not wrap past it into a slice panic.
func TestSegmentRejectsOverflowingBlockOffset(t *testing.T) {
	raw := segmentBytes(t, NewStore(sampleEvents()))
	footerOff := binary.LittleEndian.Uint64(raw[len(raw)-32:])
	for si := uint64(0); si < numShards; si++ {
		m := raw[footerOff+si*segFooterEntry:]
		if binary.LittleEndian.Uint64(m[8:16]) > 0 {
			binary.LittleEndian.PutUint64(m[0:8], ^uint64(0)&^7) // 8-aligned, near max
			break
		}
	}
	if _, err := OpenSegment(raw); err == nil {
		t.Fatal("wrapping block offset accepted")
	}
}
