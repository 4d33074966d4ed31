package report

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doscope/internal/core"
	"doscope/internal/dossim"
)

// TestGoldenReport renders the full report, mail section included, for
// two seeds at the default scale and compares it to the text committed
// in testdata/. A change to the scenario generator or to an analysis
// shows up here as a diff of exactly the lines that moved. Run with
// UPDATE=1 to regenerate the files after an intentional change.
func TestGoldenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("generates two default-scale scenarios")
	}
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc, err := dossim.Generate(dossim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ds := core.New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
			ds.MailIdx = sc.Web
			got := All(ds)
			path := filepath.Join("testdata", fmt.Sprintf("report-seed%d.golden", seed))
			if os.Getenv("UPDATE") == "1" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with UPDATE=1 to create it)", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("report diverged from %s at line %d (run with UPDATE=1 if intentional):\n got: %s\nwant: %s", path, i+1, g, w)
				}
			}
		})
	}
}
