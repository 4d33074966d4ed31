// Command e2ebench is doscope's end-to-end benchmark. It drives one of
// four workloads through the layers' public APIs in process — the
// live-ingest HTTP deployment, a federated query front end, the paper's
// batch report and the honeypot sensor — checks every answer against an
// oracle, and prints one JSON result line.
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload fed-query --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the workload runs twice, untraced and then with timing
// wrappers around every layer boundary, and the result carries the
// per-layer metrics plus the tracing overhead. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// layers collects per-layer metrics by name.
type layers map[string]float64

// config is what every workload receives.
type config struct {
	seed    int64
	scale   float64 // share of the paper's event volume to generate
	seconds time.Duration
	dir     string // temporary directory for segment files
}

// outcome is one measured run of a workload.
type outcome struct {
	latMS     []float64 // per-operation latency
	opsPerS   float64
	peakRSSMB float64 // high-water mark at the end of the measured window, before oracles
	attempted int
	failed    int // errors, degraded answers and oracle mismatches
	// manifest carries the workload's own sizing (rates, population
	// and cache sizes) into the run manifest.
	manifest map[string]any
}

// instance is a workload after set-up.
type instance interface {
	// run measures the workload for cfg.seconds; l receives per-layer
	// metrics.
	run(l layers) (outcome, error)
	// sameBehavior replays a fixed operation sequence through the plain
	// and the traced stack and reports any difference in the counters
	// tracing must not change.
	sameBehavior() error
	close()
}

type workload struct {
	name, why string
	// scale is the share of the paper's event volume the workload
	// generates.
	scale float64
	// setup builds inputs and the serving stack, with timing wrappers
	// at every layer boundary when t is non-nil.
	setup func(cfg config, t *tracer, l layers) (instance, error)
}

var workloads = []workload{
	{"live-serve", "the only workload where reads and writes share a store: queued ingest at 3200 events/s under open-loop HTTP queries at 200/s", 0.01, setupLive},
	{"fed-query", "DOSFED01 sites behind the httpapi cache, Zipf plans over 8x the cache: federation, cache and sealed-store execution, no ingest", 0.01, setupFed},
	{"paper-batch", "reopen both segments and render every table and figure: scan, Fold and core dominate; no HTTP, federation or ingest", paperScale, setupPaper},
	{"honeypot-capture", "reflection requests through the AmpPot fleet into a queued store: the only workload where the sensor does the work", 0.01, setupHoneypot},
}

// endToEnd are the metrics of a --trace 0 run, the same on every
// workload; README.md says what the operation is on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

// setupRuns is how many times a --trace 0 run sets its workload up;
// setup_s is their median.
const setupRuns = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: seed, scale: w.scale, seconds: time.Duration(seconds) * time.Second, dir: dir}

	var res result
	var out outcome
	if traced {
		out, res.Metrics, err = tracedRun(w, cfg)
	} else {
		out, res.Metrics, err = plainRun(w, cfg)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0
	mf := manifest(w, cfg, out)
	if err := printJSON(os.Stdout, map[string]any{"manifest": mf}); err != nil {
		return err
	}
	if err := printJSON(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed or disagreed with the oracle", out.failed, out.attempted)
	}
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// plainRun sets the workload up setupRuns times, keeps the last, and
// measures it untraced.
func plainRun(w *workload, cfg config) (outcome, map[string]metric, error) {
	var setups []float64
	var inst instance
	for i := range setupRuns {
		t0 := time.Now()
		in, err := w.setup(cfg, nil, layers{})
		if err != nil {
			return outcome{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			in.close()
			// Collect the discarded set-up before the next one starts,
			// so set-ups do not pile up in the peak RSS.
			debug.FreeOSMemory()
		} else {
			inst = in
		}
	}
	defer inst.close()
	// Peak RSS is the process's high-water mark and never falls, so
	// peak_rss_mb covers set-up too; the manifest shows the peak set-up
	// alone reached, to tell which phase set it.
	setupRSS := peakRSSMB()
	out, err := inst.run(layers{})
	if err != nil {
		return out, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	d := newDist(out.latMS)
	if !tailOK(len(d), 90) {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: latency_p90_ms rests on %d samples, fewer than %d beyond it\n", w.name, len(d), minBeyond)
	}
	values := map[string]float64{
		"setup_s":        median(setups),
		"latency_p50_ms": d.pct(50),
		"latency_p90_ms": d.pct(90),
		"peak_rss_mb":    out.peakRSSMB,
	}
	m := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		m[e.name] = metric{values[e.name], e.unit}
	}
	out.manifest["samples"] = len(d)
	out.manifest["samples_beyond_p99"] = beyond(len(d), 99)
	out.manifest["samples_beyond_p90"] = beyond(len(d), 90)
	out.manifest["latency_p99_ms"] = d.pct(99)
	out.manifest["throughput_per_s"] = out.opsPerS
	out.manifest["setup_runs_s"] = setups
	out.manifest["setup_peak_rss_mb"] = setupRSS
	return out, m, nil
}

// tracedRun measures the workload untraced and then traced, each on a
// fresh set-up, and reports the per-layer metrics of the traced run.
// The Go runtime figures, and any per-layer figure the untraced run
// measures itself, come from the untraced run, where no span is
// allocated.
func tracedRun(w *workload, cfg config) (outcome, map[string]metric, error) {
	plain, err := w.setup(cfg, nil, layers{})
	if err != nil {
		return outcome{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	untracedLayers := layers{}
	out0, err := plain.run(untracedLayers)
	plain.close()
	debug.FreeOSMemory()
	if err != nil {
		return out0, nil, fmt.Errorf("%s untraced: %w", w.name, err)
	}

	l := layers{}
	t := newTracer()
	inst, err := w.setup(cfg, t, l)
	if err != nil {
		return outcome{}, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	out1, err := inst.run(l)
	if err != nil {
		return out1, nil, fmt.Errorf("%s traced: %w", w.name, err)
	}
	if err := inst.sameBehavior(); err != nil {
		out1.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: %s: tracing changed behavior: %v\n", w.name, err)
	}
	out1.attempted += out0.attempted
	out1.failed += out0.failed

	spans := t.finished()
	spanLayers(l, spans)
	for _, k := range untracedKeys {
		if v, ok := untracedLayers[k]; ok {
			l[k] = v
		}
	}
	d0 := newDist(out0.latMS)
	p0, p1 := d0.pct(50), newDist(out1.latMS).pct(50)
	l["trace.overhead_pct"] = 100 * ratio(p1-p0, p0)
	l["e2e.latency_p99_ms"] = d0.pct(99)
	l["e2e.throughput_per_s"] = out0.opsPerS

	if err := saveSpans(w.name, cfg.seed, spans); err != nil {
		return out1, nil, err
	}
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = metric{l[d.name], d.unit}
	}
	for k := range l {
		if _, ok := m[k]; !ok {
			return out1, nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	out1.manifest["untraced_latency_p50_ms"] = p0
	out1.manifest["traced_latency_p50_ms"] = p1
	out1.manifest["spans"] = len(spans)
	return out1, m, nil
}

// untracedKeys are per-layer metrics taken from the untraced run: the
// runtime, allocation and generator figures that span recording would
// distort.
var untracedKeys = []string{
	"go.gc_cpu_fraction", "go.alloc_mb_per_s",
	"amppot.alloc_bytes_per_request", "gen.late_p99_ms",
}

// spanLayers derives the per-layer latencies from the recorded spans.
func spanLayers(l layers, spans []span) {
	p := func(name string, pct float64, unit func(time.Duration) float64) float64 {
		return unit(time.Duration(newDist(durations(spans, name)).pct(pct)))
	}
	l["attack.exec.count_p50_us"] = p("attack.exec.count", 50, us)
	l["attack.exec.count_by_vector_p50_us"] = p("attack.exec.count_by_vector", 50, us)
	l["attack.exec.count_by_day_p50_us"] = p("attack.exec.count_by_day", 50, us)
	l["attack.exec.plan_store_p50_us"] = p("attack.exec.plan_store", 50, us)
	var rtt []float64
	for _, n := range []string{"federation.count", "federation.count_by_vector", "federation.count_by_day"} {
		rtt = append(rtt, durations(spans, n)...)
	}
	rd := newDist(rtt)
	l["federation.count_rtt_p50_us"] = us(time.Duration(rd.pct(50)))
	l["federation.count_rtt_p99_us"] = us(time.Duration(rd.pct(99)))
	l["federation.version_rtt_p50_us"] = p("federation.version", 50, us)
	l["federation.plan_store_p50_ms"] = p("federation.plan_store", 50, ms)
	l["httpapi.serve_p50_us"] = p("httpapi.serve", 50, us)
	l["httpapi.serve_p99_us"] = p("httpapi.serve", 99, us)
	self := selfTimes(spans)
	var serveSelf []float64
	for _, s := range spans {
		if s.Name == "httpapi.serve" {
			serveSelf = append(serveSelf, float64(self[s.ID]))
		}
	}
	l["httpapi.self_p50_us"] = us(time.Duration(newDist(serveSelf).pct(50)))
}

// saveSpans writes the traced run's spans under .bench_build/traces.
func saveSpans(name string, seed int64, spans []span) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a snapshot of the Go runtime's CPU and allocation
// counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
	at                          time.Time
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2), at: time.Now()}
}

// recordRuntime stores the garbage collector's CPU share and the
// allocation rate since the snapshot.
func recordRuntime(l layers, since runtimeSample) {
	now := readRuntime()
	l["go.gc_cpu_fraction"] = ratio(now.gcCPU-since.gcCPU, now.totalCPU-since.totalCPU)
	l["go.alloc_mb_per_s"] = ratio((now.allocBytes-since.allocBytes)/(1<<20), now.at.Sub(since.at).Seconds())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// manifest describes the run so results from different hosts or inputs
// are never compared silently.
func manifest(w *workload, cfg config, out outcome) map[string]any {
	m := map[string]any{
		"workload":    w.name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds.Seconds(),
		"scale":       cfg.scale,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go":          runtime.Version(),
		"goos_arch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      commit(),
		"source":      sourceDigest(),
		"attempted":   out.attempted,
		"failed":      out.failed,
		"failed_frac": ratio(float64(out.failed), float64(out.attempted)),
	}
	for k, v := range out.manifest {
		m[k] = v
	}
	return m
}

// commit reads the checked-out commit from .git when there is one.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and module file, which
// identifies the code under test when the checkout has no .git.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
