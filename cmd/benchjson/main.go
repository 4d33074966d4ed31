// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document, the format the repository's BENCH_<n>.json
// perf-trajectory records use.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . | benchjson -match 'Agg|Columnar|Segment' > BENCH_2.json
//
// Lines that are not benchmark results (the printed report sections, the
// goos/goarch/cpu header) are ignored, except that the header fields are
// captured into the document preamble.
//
// When the same benchmark name appears more than once — `go test
// -count N`, or the same suite run across packages — the minimum
// ns/op is kept (with that run's iterations and allocation columns):
// repeated runs bound scheduling noise from above, so the minimum is
// the closest observation to the code's actual cost.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result is one benchmark line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

type document struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	Benchmarks []result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkAggPerDay/query-8   123   4567 ns/op   89 B/op   2 allocs/op
//
// Metrics a benchmark reports itself (b.ReportMetric, e.g. "20.00
// wire-B/op") print between ns/op and the -benchmem columns, so those
// are looked up anywhere after ns/op.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	bytesCol  = regexp.MustCompile(`\s(\d+) B/op`)
	allocsCol = regexp.MustCompile(`\s(\d+) allocs/op`)
)

func main() {
	match := flag.String("match", ".", "regexp selecting which benchmark names to record")
	flag.Parse()
	sel, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}

	doc := document{Benchmarks: []result{}}
	byName := make(map[string]int) // name -> index in doc.Benchmarks
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil || !sel.MatchString(m[1]) {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := result{Name: m[1], Iterations: iters, NsPerOp: ns}
		rest := line[len(m[0]):]
		if c := bytesCol.FindStringSubmatch(rest); c != nil {
			b, _ := strconv.ParseInt(c[1], 10, 64)
			r.BytesPerOp = &b
		}
		if c := allocsCol.FindStringSubmatch(rest); c != nil {
			a, _ := strconv.ParseInt(c[1], 10, 64)
			r.AllocsPerOp = &a
		}
		if i, ok := byName[r.Name]; ok {
			if r.NsPerOp < doc.Benchmarks[i].NsPerOp {
				doc.Benchmarks[i] = r
			}
			continue
		}
		byName[r.Name] = len(doc.Benchmarks)
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
