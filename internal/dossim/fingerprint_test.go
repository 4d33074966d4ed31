package dossim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"doscope/internal/attack"
)

// fingerprintWant pins Generate's outputs at scale 0.001, one SHA-256
// per part, so a change that should leave the scenario alone can show
// it does: the same random draws in the same order, the same rows in
// the same physical order. TestGoldenReport sees these only through
// the rendered report.
var fingerprintWant = map[int64]map[string]string{
	42: {
		"planned":        "fc49ff1287f38369c2949b184335cf5a636c3e4e67c7ea06e4d36396f05320c1",
		"telescope.rows": "85bb4d157541e9b7f98b4cea18996310e2daf763480f781c34d56e9c56a0b784",
		"honeypot.rows":  "fb6d55c16a01d84c34f687a499826f0d827befb973d5f63a89b1357438ac66ea",
		"telescope.iter": "da6a0157c64fb33016e91fe6d70be394e18e017f16afccb13bdd8c09e0586ae3",
		"honeypot.iter":  "8818d779ac52d56c4a6322301024ec522fbfceccd04b519ce43bea1ee2ec5f99",
		"exposures":      "5457b32024e9a89cce1ffb08b8196610fc2f1af9f561ba3d38259d46a6aca88c",
		"history":        "f4aef3b093a5286a92aad34d49b7dbf361e6bb9b6359ec8f9ae928d54661b7e0",
	},
	7: {
		"planned":        "d2ff7fd2515131d48e8b9b2c00f9b68dd4f1a7fe6f1d526d52cd650d52b3ce47",
		"telescope.rows": "ffba942201b464ad16808a8b697cb80ada0563a904b44b2a77770436f9933398",
		"honeypot.rows":  "1f9b020a98a4248b1c14c3b53ce8898530dc899266ac85e3f3a083d958207b52",
		"telescope.iter": "b2540ff5f92fb367a470c8b4412de864f1ca3517c7d0d9f8c1d8400e568cfcd3",
		"honeypot.iter":  "205f5b4c3a556b816f36bd75faafb1fc168a4e6cdb2c5ae650982210335c2689",
		"exposures":      "011d4e70d5b22987dcd9f1ae7bfb7a43c7d8d1bd9cc9433081b2b717147da6a3",
		"history":        "c8c8bf56df7b5350dced45a36ff5acf0feeaeac3ff664a553665dd580f53e79f",
	},
}

// fpWriter feeds fixed-width little-endian fields into a hash.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) bool(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *fpWriter) ports(ps []uint16) {
	w.u64(uint64(len(ps)))
	for _, p := range ps {
		w.u64(uint64(p))
	}
}

func (w *fpWriter) event(e *attack.Event) {
	w.u64(uint64(e.Source))
	w.u64(uint64(e.Vector))
	w.u64(uint64(e.Target))
	w.i64(e.Start)
	w.i64(e.End)
	w.u64(e.Packets)
	w.u64(e.Bytes)
	w.f64(e.MaxPPS)
	w.f64(e.AvgRPS)
	w.ports(e.Ports)
}

func fingerprintOf(fill func(w *fpWriter)) string {
	w := &fpWriter{h: sha256.New()}
	fill(w)
	return hex.EncodeToString(w.h.Sum(nil))
}

// scenarioFingerprint hashes each output of a generated scenario:
//   - planned: the ground-truth schedule, in plan order;
//   - telescope.rows, honeypot.rows: the events each store was built
//     from, in the order they were appended (physical row order);
//   - telescope.iter, honeypot.iter: each store's rows in query order,
//     which pins how rows with equal (start, target) are ordered;
//   - exposures and history: the Web side derived from the stores.
func scenarioFingerprint(sc *Scenario) map[string]string {
	tel, hp := eventsFromPlan(sc.Cfg, sc.Planned)
	rows := func(evs []attack.Event) string {
		return fingerprintOf(func(w *fpWriter) {
			for i := range evs {
				w.event(&evs[i])
			}
		})
	}
	iterOf := func(st *attack.Store) string {
		return fingerprintOf(func(w *fpWriter) {
			w.u64(uint64(st.Len()))
			for e := range st.Query().Iter() {
				w.event(e)
			}
		})
	}
	return map[string]string{
		"planned": fingerprintOf(func(w *fpWriter) {
			for i := range sc.Planned {
				pa := &sc.Planned[i]
				w.u64(uint64(pa.Dataset))
				w.u64(uint64(pa.Vector))
				w.u64(uint64(pa.Target))
				w.i64(pa.Start)
				w.i64(pa.Duration)
				w.f64(pa.Intensity)
				w.ports(pa.Ports)
				w.bool(pa.IsWeb)
				w.i64(int64(pa.Pool))
			}
		}),
		"telescope.rows": rows(tel),
		"honeypot.rows":  rows(hp),
		"telescope.iter": iterOf(sc.Telescope),
		"honeypot.iter":  iterOf(sc.Honeypot),
		"exposures": fingerprintOf(func(w *fpWriter) {
			for _, x := range sc.Exposures {
				w.u64(uint64(x.Domain))
				w.i64(int64(x.FirstDay))
				w.f64(x.IntensityPct)
				w.i64(x.LongestSecs)
				w.bool(x.TriggeredBulk)
			}
		}),
		"history": fingerprintOf(func(w *fpWriter) {
			w.i64(int64(sc.History.WindowDays))
			for id, segs := range sc.History.Segments {
				w.u64(uint64(len(segs)))
				w.u64(uint64(sc.History.TLD[id]))
				for _, s := range segs {
					w.i64(int64(s.From))
					w.i64(int64(s.To))
					w.u64(uint64(s.Addr))
					w.u64(uint64(s.Provider))
				}
			}
		}),
	}
}

// TestGenerateFingerprint checks that Generate still produces exactly
// the scenario it produced when the hashes were recorded.
func TestGenerateFingerprint(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		sc := defaultScenario(t)
		if seed != 42 {
			var err error
			if sc, err = Generate(Config{Seed: seed, Scale: 0.001}); err != nil {
				t.Fatal(err)
			}
		}
		got := scenarioFingerprint(sc)
		want := fingerprintWant[seed]
		for part, h := range got {
			if want[part] != h {
				t.Errorf("seed %d: %s fingerprint = %s, want %s", seed, part, h, want[part])
			}
		}
	}
}
