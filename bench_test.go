// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each printing the paper-shaped rows it regenerates (once),
// plus ablation benchmarks for the design choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package doscope_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/core"
	"doscope/internal/dossim"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/packet"
	"doscope/internal/report"
	"doscope/internal/telescope"
	"doscope/internal/webmodel"
)

// benchScale reproduces the paper at 1/1000: ≈20.9k attack events and
// 210k Web sites over the real 731-day window.
const benchScale = 0.001

var (
	benchOnce sync.Once
	benchSc   *dossim.Scenario
	benchErr  error
)

func benchScenario(b *testing.B) *dossim.Scenario {
	b.Helper()
	benchOnce.Do(func() {
		benchSc, benchErr = dossim.Generate(dossim.Config{Seed: 42, Scale: benchScale})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSc
}

func freshDataset(b *testing.B) *core.Dataset {
	sc := benchScenario(b)
	return core.New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
}

// printOnce emits the regenerated rows exactly once per bench target.
var printedSections sync.Map

func printOnce(key, text string) {
	if _, loaded := printedSections.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n===== %s (scale %g) =====\n%s", key, benchScale, text)
	}
}

func BenchmarkTable1AttackEvents(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 1", report.Table1(ds.Table1()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.Table1()
	}
}

func BenchmarkTable2DNSDataset(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 2", report.Table2(ds.Table2()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table2()
	}
}

func BenchmarkTable3DPSUse(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 3", report.Table3(ds.Table3()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table3()
	}
}

func BenchmarkTable4CountryRanking(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 4", report.Table4("a (telescope)", ds.Table4(attack.SourceTelescope, 5))+
		report.Table4("b (honeypot)", ds.Table4(attack.SourceHoneypot, 5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table4(attack.SourceTelescope, 5)
		_ = ds.Table4(attack.SourceHoneypot, 5)
	}
}

func BenchmarkTable5IPProtocols(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 5", report.Mix("Table 5: IP protocol distribution", ds.Table5()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table5()
	}
}

func BenchmarkTable6ReflectionProtocols(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 6", report.Mix("Table 6: reflection protocol distribution", ds.Table6()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table6()
	}
}

func BenchmarkTable7PortCardinality(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 7", report.Mix("Table 7: target port cardinality", ds.Table7()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table7()
	}
}

func BenchmarkTable8TargetPorts(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 8", report.Mix("Table 8a: single-port TCP services", ds.Table8(attack.VectorTCP, 5))+
		report.Mix("Table 8b: single-port UDP services", ds.Table8(attack.VectorUDP, 5)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Table8(attack.VectorTCP, 5)
		_ = ds.Table8(attack.VectorUDP, 5)
	}
}

func BenchmarkTable9IntensityOverWebsites(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Table 9", report.Table9(ds.Table9()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.Table9()
	}
}

func BenchmarkFigure1TimeSeries(b *testing.B) {
	ds := freshDataset(b)
	tel, hp, comb := ds.Figure1()
	printOnce("Figure 1", report.Figure1(tel, hp, comb))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = ds.Figure1()
	}
}

func BenchmarkFigure2DurationCDF(b *testing.B) {
	ds := freshDataset(b)
	tel, hp := ds.Figure2()
	printOnce("Figure 2", report.Figure2(tel, hp))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ds.Figure2()
	}
}

func BenchmarkFigure3TelescopeIntensity(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 3", report.Figure3(ds.Figure3()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure3()
	}
}

func BenchmarkFigure4HoneypotIntensity(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 4", report.Figure4(ds.Figure4()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure4()
	}
}

func BenchmarkFigure5HighIntensitySeries(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 5", report.Figure5(ds.Figure5()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure5()
	}
}

func BenchmarkFigure6CoHosting(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 6", report.Figure6(ds.Figure6()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.Figure6()
	}
}

func BenchmarkFigure7WebImpactSeries(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 7", report.Figure7(ds.Figure7(), ds.WindowDays))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.Figure7()
	}
}

func BenchmarkFigure8Taxonomy(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 8", report.Figure8(ds.Figure8()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.Figure8()
	}
}

func BenchmarkFigure9AttackFrequency(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 9", report.Figure9(ds.Figure9()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure9()
	}
}

func BenchmarkFigure10MigrationDelay(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 10", report.Figure10(ds.Figure10()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure10()
	}
}

func BenchmarkFigure11LongAttackMigration(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Figure 11", report.Figure11(ds.Figure11()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.Figure11()
	}
}

func BenchmarkJointAttacks(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Joint attacks (§4)", report.Joint(ds.JointAttacks()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.JointAttacks()
	}
}

func BenchmarkWebImpactAggregates(b *testing.B) {
	ds := freshDataset(b)
	printOnce("Web impact (§5)", report.WebImpact(ds.WebImpactStats()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		_ = ds.WebImpactStats()
	}
}

func BenchmarkScenarioGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dossim.Generate(dossim.Config{Seed: int64(i), Scale: 0.0002}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ------------------------------------------------

// synFlood builds a deterministic, time-sorted backscatter stream:
// victims each emit a 1 pps SYN/ACK flood of packetsPer packets, with
// mid-attack lulls of the given lengths inserted at even fractions of the
// flood (a 150 s lull splits flows under a 60 s timeout but not under the
// Moore 300 s timeout; a 400 s lull splits both).
func synFlood(b *testing.B, darknet netx.Prefix, victimNet byte, victims, packetsPer int, lulls []int64) []struct {
	ts   int64
	data []byte
} {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	var out []struct {
		ts   int64
		data []byte
	}
	buf := packet.NewSerializeBuffer()
	opts := packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	for v := 0; v < victims; v++ {
		victim := netx.AddrFrom4(203, victimNet, byte(v>>8), byte(v))
		base := attack.WindowStart + int64(v)*5
		for i := 0; i < packetsPer; i++ {
			ts := base + int64(i)
			for li, lull := range lulls {
				if i > (li+1)*packetsPer/(len(lulls)+1) {
					ts += lull
				}
			}
			dst := darknet.First() + netx.Addr(rng.Int63n(int64(darknet.NumAddrs())))
			ip := &packet.IPv4{TTL: 60, Protocol: packet.ProtocolTCP, Src: victim, Dst: dst}
			tcp := &packet.TCP{SrcPort: 80, DstPort: uint16(2000 + i), Flags: packet.TCPSyn | packet.TCPAck}
			tcp.SetNetworkLayer(victim, dst)
			if err := packet.SerializeLayers(buf, opts, ip, tcp); err != nil {
				b.Fatal(err)
			}
			out = append(out, struct {
				ts   int64
				data []byte
			}{ts, append([]byte(nil), buf.Bytes()...)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ts < out[j].ts })
	return out
}

// BenchmarkAblationFlowTimeout shows how the 300s flow timeout (Moore et
// al.) merges or splits attacks: the same stream (with 400s lulls)
// classified under different timeouts yields different event counts.
func BenchmarkAblationFlowTimeout(b *testing.B) {
	darknet := netx.MustParsePrefix("44.0.0.0/8")
	stream := synFlood(b, darknet, 0, 50, 400, []int64{150, 400})
	for _, timeout := range []int64{60, 300, 3600} {
		timeout := timeout
		b.Run(fmt.Sprintf("timeout=%ds", timeout), func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				cfg := telescope.DefaultConfig(darknet)
				cfg.FlowTimeout = timeout
				c := telescope.New(cfg)
				for _, p := range stream {
					c.ProcessPacket(p.ts, p.data)
				}
				c.Flush()
				events = len(c.Events())
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkAblationMooreThresholds quantifies the low-intensity filter:
// with the filter off, scan-like flows survive as events.
func BenchmarkAblationMooreThresholds(b *testing.B) {
	darknet := netx.MustParsePrefix("44.0.0.0/8")
	// Mix real floods with sub-threshold dribbles.
	stream := synFlood(b, darknet, 0, 30, 300, nil)
	dribble := synFlood(b, darknet, 1, 200, 8, nil)
	stream = append(stream, dribble...)
	sort.Slice(stream, func(i, j int) bool { return stream[i].ts < stream[j].ts })
	for _, disabled := range []bool{false, true} {
		disabled := disabled
		name := "filter=on"
		if disabled {
			name = "filter=off"
		}
		b.Run(name, func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				cfg := telescope.DefaultConfig(darknet)
				cfg.DisableFilter = disabled
				c := telescope.New(cfg)
				for _, p := range stream {
					c.ProcessPacket(p.ts, p.data)
				}
				c.Flush()
				events = len(c.Events())
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkAblationLPMTrieVsLinear compares the radix trie against the
// linear reference on the pfx2as workload of the fusion pipeline.
func BenchmarkAblationLPMTrieVsLinear(b *testing.B) {
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var linear ipmeta.LinearPfx2AS
	for i := range plan.ASes {
		for _, p := range plan.ASes[i].Prefixes {
			linear.Insert(p, plan.ASes[i].Num)
		}
	}
	rng := rand.New(rand.NewSource(2))
	addrs := make([]netx.Addr, 4096)
	for i := range addrs {
		as := &plan.ASes[rng.Intn(len(plan.ASes))]
		addrs[i], _ = plan.RandomAddrInAS(rng, as.Num)
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.Trie.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			linear.Lookup(addrs[i%len(addrs)])
		}
	})
}

// BenchmarkAblationEventLevelVsPacketLevel measures the cost of full
// packet-level fidelity against the event-level fast path at equal scale.
func BenchmarkAblationEventLevelVsPacketLevel(b *testing.B) {
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 9, NumSixteens: 512, NumActive24: 800})
	if err != nil {
		b.Fatal(err)
	}
	for _, packetLevel := range []bool{false, true} {
		packetLevel := packetLevel
		name := "event-level"
		if packetLevel {
			name = "packet-level"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := dossim.Generate(dossim.Config{
					Seed: 9, Scale: 1e-5, Plan: plan, PacketLevel: packetLevel,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHoneypotRequestPath measures the per-request cost of the
// honeypot hot path (emulator + rate limiter + collector), one
// sub-benchmark per protocol. 64 victims each send one request every 20 s
// of virtual time, three a minute, so the rate limiter answers two in
// three: both the answered and the suppressed path are in the mix.
func BenchmarkHoneypotRequestPath(b *testing.B) {
	const victims = 64
	for _, spec := range amppot.Protocols {
		req := reflectionRequest(spec.Vector)
		b.Run(spec.Vector.String(), func(b *testing.B) {
			fleet := amppot.NewFleet(amppot.DefaultConfig())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := netx.AddrFrom4(203, 0, 113, byte(i%victims))
				fleet.HandleRequest(i, attack.WindowStart+int64(i/victims)*20, v, spec.Vector, req)
			}
		})
	}
}

// reflectionRequest is a well-formed request of the abused protocol.
func reflectionRequest(v attack.Vector) []byte {
	switch v {
	case attack.VectorNTP:
		return []byte{0x17, 0, 0, 42, 0, 0, 0, 0} // mode 7 monlist
	case attack.VectorDNS:
		q := make([]byte, 12, 32)
		binary.BigEndian.PutUint16(q[0:2], 0x1234)
		binary.BigEndian.PutUint16(q[4:6], 1)
		q = append(q, 3, 'a', 'm', 'p', 3, 'c', 'o', 'm', 0)
		return append(q, 0, 0xff, 0, 1) // ANY IN
	case attack.VectorSSDP:
		return []byte("M-SEARCH * HTTP/1.1\r\nHOST:239.255.255.250:1900\r\nMAN:\"ssdp:discover\"\r\nST:ssdp:all\r\n\r\n")
	case attack.VectorMSSQL:
		return []byte{0x02}
	case attack.VectorRIPv1:
		req := make([]byte, 24)
		req[0], req[1] = 1, 1
		binary.BigEndian.PutUint32(req[20:24], 16) // metric 16: whole table
		return req
	case attack.VectorTFTP:
		return append([]byte{0, 1}, "doscope.bin\x00octet\x00"...)
	}
	return []byte{0x0a} // CharGen, QOTD: any datagram
}

// BenchmarkMailImpact regenerates the §8 mail-infrastructure extension.
func BenchmarkMailImpact(b *testing.B) {
	sc := benchScenario(b)
	ds := freshDataset(b)
	ds.MailIdx = sc.Web
	printOnce("Mail impact (§8 extension)", report.Mail(ds.MailImpactStats()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := freshDataset(b)
		ds.MailIdx = sc.Web
		_ = ds.MailImpactStats()
	}
}

// BenchmarkReportAll is the doscope run end to end: per iteration it
// reopens both DOSEVT02 segments, so every lazy index is built again, and
// renders every table and figure with report.All.
func BenchmarkReportAll(b *testing.B) {
	sc := benchScenario(b)
	dir := b.TempDir()
	paths := []string{filepath.Join(dir, "telescope.seg"), filepath.Join(dir, "honeypot.seg")}
	for i, st := range []*attack.Store{sc.Telescope, sc.Honeypot} {
		if err := st.WriteSegmentFile(paths[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tel, telC, err := attack.OpenSegmentFile(paths[0])
		if err != nil {
			b.Fatal(err)
		}
		hp, hpC, err := attack.OpenSegmentFile(paths[1])
		if err != nil {
			b.Fatal(err)
		}
		ds := core.New(tel, hp, sc.Plan, sc.History, sc.Cfg.WindowDays)
		ds.MailIdx = sc.Web
		benchSink = len(report.All(ds))
		telC.Close()
		hpC.Close()
	}
}

// --- query-vs-scan benchmarks (sharded store API) -----------------------

// queryBenchScale reproduces the paper's event volumes at 1/100
// (≈125k telescope + 84k honeypot events); the metadata models are kept
// small so scenario generation stays fast.
const queryBenchScale = 0.01

var (
	qbOnce sync.Once
	qbTel  *attack.Store
	qbHp   *attack.Store
	qbErr  error
)

func queryBenchStores(b *testing.B) (tel, hp *attack.Store) {
	b.Helper()
	qbOnce.Do(func() {
		plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 7, NumActive24: 65000})
		if err != nil {
			qbErr = err
			return
		}
		web, err := webmodel.Build(webmodel.Config{
			Seed: 8, NumDomains: 20000, Plan: plan, WindowDays: attack.WindowDays,
		}, nil)
		if err != nil {
			qbErr = err
			return
		}
		sc, err := dossim.Generate(dossim.Config{Seed: 7, Scale: queryBenchScale, Plan: plan, Web: web})
		if err != nil {
			qbErr = err
			return
		}
		qbTel, qbHp = sc.Telescope, sc.Honeypot
		// Warm the lazy seal, count and target-permutation indexes so
		// both sides measure steady state.
		qbTel.Seal()
		qbHp.Seal()
		qbTel.Query().Count()
		qbHp.Query().Count()
		qbTel.Query().TargetPrefix(0, 8).Count()
		qbHp.Query().TargetPrefix(0, 8).Count()
	})
	if qbErr != nil {
		b.Fatal(qbErr)
	}
	return qbTel, qbHp
}

var benchSink int

// BenchmarkAggPerVector measures the per-vector rollup (the Table 5/6
// aggregation class) on the count-index query path.
func BenchmarkAggPerVector(b *testing.B) {
	tel, hp := queryBenchStores(b)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := attack.QueryStores(tel, hp).CountByVector()
			benchSink = counts[attack.VectorNTP]
		}
	})
}

// BenchmarkAggPerDay measures the per-day event rollup (the Figure 1
// attack-count series) on the count-index query path.
func BenchmarkAggPerDay(b *testing.B) {
	tel, hp := queryBenchStores(b)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			daily := attack.QueryStores(tel, hp).CountByDay()
			benchSink = daily[0]
		}
	})
}

// BenchmarkAggVectorDayRange counts NTP reflection events in a 90-day
// slice of the window: the query path prunes to ~1/8 of the shards and
// answers from the index instead of scanning every event.
func BenchmarkAggVectorDayRange(b *testing.B) {
	_, hp := queryBenchStores(b)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = hp.Query().Vectors(attack.VectorNTP).Days(300, 389).Count()
		}
	})
}

// BenchmarkParallelQuery sweeps the per-shard executor's worker-count
// knob over a count made of pure scan tasks: a /0 target prefix keeps
// every event but, being shorter than /8, compiles to a columnar scan of
// every shard that materializes no event. On a multi-core host ns/op
// drops toward the merge floor as workers grow; on a single-core host
// the grid shows the pool's overhead staying flat — the win there comes
// from the indexes, not the parallelism.
func BenchmarkParallelQuery(b *testing.B) {
	tel, hp := queryBenchStores(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("scan-count/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = attack.QueryStores(tel, hp).TargetPrefix(0, 0).Workers(w).Count()
			}
		})
	}
}

// BenchmarkAblationHoneypotGap shows how the collector's gap timeout
// merges or splits reflection events: a request stream with 30-minute and
// 2-hour lulls yields different event counts under different gaps.
func BenchmarkAblationHoneypotGap(b *testing.B) {
	victim := netx.MustParseAddr("203.0.113.50")
	type obs struct{ ts int64 }
	var stream []obs
	// Three 200-request bursts separated by 30 min and 2 h.
	base := attack.WindowStart
	for burst, offset := range []int64{0, 200 + 1800, 200 + 1800 + 200 + 7200} {
		for i := int64(0); i < 200; i++ {
			stream = append(stream, obs{base + offset + i})
		}
		_ = burst
	}
	for _, gap := range []int64{600, 3600, 4 * 3600} {
		gap := gap
		b.Run(fmt.Sprintf("gap=%ds", gap), func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				cfg := amppot.DefaultConfig()
				cfg.GapTimeout = gap
				col := amppot.NewCollector(cfg)
				for _, o := range stream {
					col.Add(amppot.Observation{Time: o.ts, Victim: victim, Vector: attack.VectorNTP, Bytes: 8})
				}
				col.Flush()
				events = len(col.Events())
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// --- columnar-scan and segment benchmarks (PR 2) ------------------------

// BenchmarkAggFilteredScan measures a source/vector/day aggregation that
// misses the count index (a /0 target prefix, shorter than the /8 the
// by-target probes need, disables it without narrowing the selection):
// the query path tests every candidate on the ~14-byte hot columns and
// materializes nothing.
func BenchmarkAggFilteredScan(b *testing.B) {
	tel, hp := queryBenchStores(b)
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = attack.QueryStores(tel, hp).
				Source(attack.SourceHoneypot).
				Vectors(attack.VectorNTP).
				Days(100, 400).
				TargetPrefix(0, 0).
				Count()
		}
	})
}

// BenchmarkAggPrefixCount measures a target-prefix count, the other
// index-missing filter class: the columnar path touches only the target
// and start columns and materializes nothing.
func BenchmarkAggPrefixCount(b *testing.B) {
	tel, hp := queryBenchStores(b)
	var prefix netx.Addr // the first telescope event's target
	for e := range tel.Query().Iter() {
		prefix = e.Target
		break
	}
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = attack.QueryStores(tel, hp).
				TargetPrefix(prefix, 16).
				Days(0, attack.WindowDays-1).
				Count()
		}
	})
}

// BenchmarkColumnarScan measures counting one vector's events via the
// hot columns (key + start + target, ~14 B/event). The prefix filter
// forces the query off the count index.
func BenchmarkColumnarScan(b *testing.B) {
	tel, hp := queryBenchStores(b)
	b.Run("hot-columns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = attack.QueryStores(tel, hp).
				Vectors(attack.VectorDNS).
				TargetPrefix(0, 8).
				Count()
		}
	})
}

// segmentEvents synthesizes n deterministic events spread over the
// window, for the segment open benchmarks.
func segmentEvents(n int) []attack.Event {
	rng := rand.New(rand.NewSource(17))
	evs := make([]attack.Event, n)
	for i := range evs {
		e := attack.Event{
			Target:  netx.AddrFrom4(198, byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256))),
			Start:   attack.WindowStart + rng.Int63n(attack.WindowDays*86400),
			Packets: rng.Uint64() % 1e9,
			Bytes:   rng.Uint64() % 1e12,
		}
		if i%2 == 0 {
			e.Source = attack.SourceTelescope
			e.Vector = attack.Vector(rng.Intn(4))
			e.MaxPPS = rng.Float64() * 1e4
			e.Ports = []uint16{80, uint16(rng.Intn(65536))}
		} else {
			e.Source = attack.SourceHoneypot
			e.Vector = attack.VectorNTP + attack.Vector(rng.Intn(8))
			e.AvgRPS = rng.Float64() * 1e4
		}
		e.End = e.Start + rng.Int63n(86400)
		evs[i] = e
	}
	return evs
}

// BenchmarkSegmentOpen shows DOSEVT02's O(1) open: ns/op must stay flat
// as the capture grows, because only the footer is decoded and the
// columns are served from the mapping.
func BenchmarkSegmentOpen(b *testing.B) {
	for _, n := range []int{20000, 80000, 320000} {
		st := attack.NewStore(segmentEvents(n))
		dir := b.TempDir()
		segPath := filepath.Join(dir, "events.seg")
		f, err := os.Create(segPath)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.WriteSegment(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dosevt02-mmap/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, closer, err := attack.OpenSegmentFile(segPath)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = s.Len()
				closer.Close()
			}
		})
	}
}

// --- concurrent-query benchmarks (lock-free published-view reads) -------

// concurrentReaders runs the query workload from n goroutines sharing
// b.N iterations and returns only after all finish.
func concurrentReaders(b *testing.B, n int, query func() int) {
	var next int64
	var wg sync.WaitGroup
	sink := make([]int, n*8) // one padded slot per reader, no false sharing on benchSink
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				if i := atomic.AddInt64(&next, 1); i > int64(b.N) {
					return
				}
				sink[g*8] = query()
			}
		}(g)
	}
	wg.Wait()
	benchSink = sink[0]
}

// BenchmarkConcurrentQuery measures reader throughput of the lock-free
// store as goroutines are added. Both variants run the same columnar
// prefix count (a real CPU-bound read, off the count index):
//
//   - lockfree: readers hit the published view directly.
//   - lockfree-live: same, with a writer goroutine AddBatching into the
//     store the whole time — reads and ingest never block each other.
func BenchmarkConcurrentQuery(b *testing.B) {
	evs := segmentEvents(200_000)
	prefix := evs[0].Target
	for _, readers := range []int{1, 2, 4, 8} {
		st := attack.NewStore(evs)
		st.Query().Count() // build the count index once, like a warmed dashboard
		scan := func() int { return st.Query().TargetPrefix(prefix, 16).Days(0, attack.WindowDays-1).Count() }

		b.Run(fmt.Sprintf("lockfree/readers=%d", readers), func(b *testing.B) {
			concurrentReaders(b, readers, scan)
		})
		b.Run(fmt.Sprintf("lockfree-live/readers=%d", readers), func(b *testing.B) {
			live := attack.NewStore(evs)
			live.Query().Count()
			stop := make(chan struct{})
			var wwg sync.WaitGroup
			wwg.Add(1)
			go func() {
				// A paced flush writer (the amppot cadence, sped up):
				// one 512-event batch per millisecond, publishing each
				// batch atomically while the readers run.
				defer wwg.Done()
				tick := time.NewTicker(time.Millisecond)
				defer tick.Stop()
				for i := 0; ; i = (i + 512) % len(evs) {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					end := i + 512
					if end > len(evs) {
						end = len(evs)
					}
					live.AddBatch(evs[i:end])
				}
			}()
			b.ResetTimer()
			concurrentReaders(b, readers, func() int {
				return live.Query().TargetPrefix(prefix, 16).Days(0, attack.WindowDays-1).Count()
			})
			b.StopTimer()
			close(stop)
			wwg.Wait()
		})
	}
}

// --- live-ingest benchmarks (incremental index maintenance) -------------

// BenchmarkLiveIngestQuery interleaves Add with dashboard-style counts
// at 100k events: the store answers every query from the
// delta-maintained per-day index plus a bounded pending-tail scan.
func BenchmarkLiveIngestQuery(b *testing.B) {
	const nEvents = 100_000
	const queryEvery = 64
	evs := segmentEvents(nEvents)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := &attack.Store{}
			total, ranged := 0, 0
			for j := range evs {
				st.Add(evs[j])
				if (j+1)%queryEvery == 0 {
					total = st.Query().Source(attack.SourceHoneypot).Vectors(attack.VectorNTP).Count()
					ranged = st.Query().Source(attack.SourceHoneypot).Vectors(attack.VectorNTP).Days(300, 389).Count()
				}
			}
			benchSink = total + ranged
		}
	})
}

// BenchmarkLiveIngestAddBatch compares event-at-a-time Add against the
// amortized AddBatch flush path (the amppot live pipeline's shape): one
// seal and one index-delta application per touched shard per batch,
// with a per-day count after every flush. The add variant runs the
// store in queued ingest mode — the daemon's live wiring — so each Add
// is an enqueue and the background drainer coalesces publication;
// BENCH_5's ~168ms for this sub-benchmark was the cost of publishing a
// view per mutation, which the MPSC ingest front exists to amortize.
func BenchmarkLiveIngestAddBatch(b *testing.B) {
	const nEvents = 100_000
	const batch = 512
	evs := segmentEvents(nEvents)
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := &attack.Store{}
			st.StartIngest(attack.IngestConfig{Tick: 0}) // drain continuously
			for j := range evs {
				st.Add(evs[j])
				if (j+1)%batch == 0 {
					benchSink = st.Query().Vectors(attack.VectorDNS).Count()
				}
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			benchSink = st.Len()
		}
	})
	b.Run("addbatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := &attack.Store{}
			for off := 0; off < nEvents; off += batch {
				end := off + batch
				if end > nEvents {
					end = nEvents
				}
				st.AddBatch(evs[off:end])
				benchSink = st.Query().Vectors(attack.VectorDNS).Count()
			}
		}
	})
}

// BenchmarkMultiProducerIngest measures aggregate ingest throughput as
// the producer count grows — the paper's many-vantage-points regime,
// where each sensor does real extraction work before submitting. Every
// producer distills its share of a fixed 100k-event corpus from raw
// per-packet observations (rawPerEvent pseudo-observations aggregated
// into each flow event — the work amppot's collector does per victim
// flow) and streams the events into ONE store in queued ingest mode
// (StartIngest with a continuous drainer — the cmd/amppot live
// regime), Close sealing the corpus. Total work is fixed across the
// grid, so ns/op directly compares producer counts: on a multi-core
// host the per-producer extraction parallelizes and ns/op drops
// toward the single-drainer apply floor; on a single-core host (this
// repo's CI container) the grid instead demonstrates the contention
// story — ns/op holds flat from p1 to p8 because producers enqueue
// without blocking and publication coalesces, where a design that ran
// a full writer pass per producer batch would pay per-producer
// penalties. The -r2 grid repeats each point under two concurrent
// readers hammering an indexed count, the serving-while-ingesting
// regime.
func BenchmarkMultiProducerIngest(b *testing.B) {
	const nEvents = 100_000
	const batch = 64
	const rawPerEvent = 32
	produce := func(st *attack.Store, seed int64, n int) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]attack.Event, 0, batch)
		for i := 0; i < n; i++ {
			// Aggregate one flow of raw observations into one event:
			// packet/byte totals, duration, peak instantaneous rate.
			start := attack.WindowStart + rng.Int63n(attack.WindowDays*86400)
			t := start
			var packets, bytes uint64
			var maxPPS float64
			for r := 0; r < rawPerEvent; r++ {
				gap := rng.Int63n(30) + 1
				size := 64 + rng.Intn(1400)
				t += gap
				packets++
				bytes += uint64(size)
				if pps := 1.0 / float64(gap); pps > maxPPS {
					maxPPS = pps
				}
			}
			e := attack.Event{
				Target:  netx.AddrFrom4(198, byte(rng.Intn(64)), byte(rng.Intn(256)), byte(rng.Intn(256))),
				Start:   start,
				End:     t,
				Packets: packets,
				Bytes:   bytes,
			}
			if i%2 == 0 {
				e.Source = attack.SourceTelescope
				e.Vector = attack.Vector(rng.Intn(4))
				e.MaxPPS = maxPPS
				e.Ports = []uint16{80, uint16(rng.Intn(65536))}
			} else {
				e.Source = attack.SourceHoneypot
				e.Vector = attack.VectorNTP + attack.Vector(rng.Intn(8))
				e.AvgRPS = float64(packets) / float64(t-start+1)
			}
			buf = append(buf, e)
			if len(buf) == batch {
				st.AddBatch(buf)
				buf = make([]attack.Event, 0, batch)
			}
		}
		if len(buf) > 0 {
			st.AddBatch(buf)
		}
	}
	for _, readers := range []int{0, 2} {
		for _, producers := range []int{1, 2, 4, 8} {
			name := fmt.Sprintf("p%d", producers)
			if readers > 0 {
				name = fmt.Sprintf("p%d-r%d", producers, readers)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					st := &attack.Store{}
					st.StartIngest(attack.IngestConfig{Tick: 0})
					stop := make(chan struct{})
					var rwg sync.WaitGroup
					for r := 0; r < readers; r++ {
						rwg.Add(1)
						go func() {
							defer rwg.Done()
							for {
								select {
								case <-stop:
									return
								default:
									benchSink = st.Query().Vectors(attack.VectorDNS).Count()
								}
							}
						}()
					}
					var wg sync.WaitGroup
					per := nEvents / producers
					for p := 0; p < producers; p++ {
						wg.Add(1)
						go func(p int) {
							defer wg.Done()
							produce(st, int64(1000+p), per)
						}(p)
					}
					wg.Wait()
					if err := st.Close(); err != nil {
						b.Fatal(err)
					}
					close(stop)
					rwg.Wait()
					if st.Len() != per*producers {
						b.Fatalf("ingested %d events, want %d", st.Len(), per*producers)
					}
				}
			})
		}
	}
}
