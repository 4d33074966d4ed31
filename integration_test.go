// End-to-end integration tests across module boundaries: the pcap interop
// path (scenario → capture file → Moore classifier), persistence round
// trips of generated data sets, and whole-pipeline determinism.
package doscope_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"doscope/internal/attack"
	"doscope/internal/core"
	"doscope/internal/dossim"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/pcap"
	"doscope/internal/telescope"
)

func smallPlan(t testing.TB) *ipmeta.Plan {
	t.Helper()
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 9, NumSixteens: 512, NumActive24: 800})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPcapInterop writes a scenario's telescope traffic to a pcap capture
// and classifies the file exactly as cmd/telescope does; the events must
// match the in-process packet-level classification.
func TestPcapInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("packet synthesis is slow")
	}
	plan := smallPlan(t)
	cfg := dossim.Config{Seed: 9, Scale: 1e-5, Plan: plan, PacketLevel: true}
	sc, err := dossim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var capture bytes.Buffer
	n, err := dossim.WriteTelescopePcap(&capture, cfg, sc.Planned)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no packets written")
	}

	// Classify the capture like cmd/telescope.
	r, err := pcap.NewReader(&capture)
	if err != nil {
		t.Fatal(err)
	}
	c := telescope.New(telescope.DefaultConfig(cfg.Darknet))
	packets := 0
	for {
		hdr, data, err := r.Next()
		if err != nil {
			break
		}
		packets++
		c.ProcessPacket(hdr.Timestamp.Unix(), data)
	}
	c.Flush()
	if packets != n {
		t.Fatalf("read %d of %d packets back", packets, n)
	}
	got := attack.NewStore(c.Events())
	want := sc.Telescope
	if got.Len() != want.Len() {
		t.Fatalf("pcap path found %d events, in-process path %d", got.Len(), want.Len())
	}
	ge, we := got.Events(), want.Events()
	for i := range ge {
		if ge[i].Target != we[i].Target || ge[i].Vector != we[i].Vector || ge[i].Packets != we[i].Packets {
			t.Fatalf("event %d differs:\npcap   %+v\ninproc %+v", i, ge[i], we[i])
		}
	}
}

// TestEventStorePersistenceRoundTrip saves a generated scenario's event
// stores to disk in both formats and reloads them.
func TestEventStorePersistenceRoundTrip(t *testing.T) {
	sc, err := dossim.Generate(dossim.Config{Seed: 4, Scale: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, store := range map[string]*attack.Store{"tel": sc.Telescope, "hp": sc.Honeypot} {
		segPath := filepath.Join(dir, name+".seg")
		f, err := os.Create(segPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteSegment(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		back, closer, err := attack.OpenSegmentFile(segPath)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(store.Events(), back.Events()) {
			t.Fatalf("%s segment round trip mismatch", name)
		}
		closer.Close()

		var csvBuf bytes.Buffer
		if err := store.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		back, err = attack.ReadCSV(&csvBuf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(store.Events(), back.Events()) {
			t.Fatalf("%s CSV round trip mismatch", name)
		}
	}
}

// TestPipelineDeterminism: the same seed yields byte-identical analyses
// end to end.
func TestPipelineDeterminism(t *testing.T) {
	run := func() (core.Figure8Result, int, netx.Addr) {
		sc, err := dossim.Generate(dossim.Config{Seed: 12, Scale: 0.0002})
		if err != nil {
			t.Fatal(err)
		}
		ds := core.New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
		ds.MailIdx = sc.Web
		tax := ds.Figure8()
		return tax, sc.Telescope.Len(), sc.Telescope.Events()[0].Target
	}
	tax1, n1, t1 := run()
	tax2, n2, t2 := run()
	if tax1 != tax2 || n1 != n2 || t1 != t2 {
		t.Fatalf("pipeline not deterministic: %+v/%d/%v vs %+v/%d/%v", tax1, n1, t1, tax2, n2, t2)
	}
}

// TestReducedWindowRobustness reruns the taxonomy with the window
// shortened by a month on either end (the paper's §6 misclassification
// check) and verifies the class distribution moves only marginally.
func TestReducedWindowRobustness(t *testing.T) {
	sc, err := dossim.Generate(dossim.Config{Seed: 3, Scale: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	full := core.New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
	fullTax := full.Figure8()

	// Shorten the attack data by 30 days on either end.
	var telTrim, hpTrim attack.Store
	lo := attack.WindowStart + 30*86400
	hi := attack.WindowEnd - 30*86400
	for _, e := range sc.Telescope.Events() {
		if e.Start >= lo && e.Start < hi {
			telTrim.Add(e)
		}
	}
	for _, e := range sc.Honeypot.Events() {
		if e.Start >= lo && e.Start < hi {
			hpTrim.Add(e)
		}
	}
	trimmed := core.New(&telTrim, &hpTrim, sc.Plan, sc.History, sc.Cfg.WindowDays)
	trimTax := trimmed.Figure8()

	fullPre := float64(fullTax.AttackedPreexisting) / float64(fullTax.Attacked)
	trimPre := float64(trimTax.AttackedPreexisting) / float64(trimTax.Attacked)
	if diff := fullPre - trimPre; diff < -0.05 || diff > 0.05 {
		t.Errorf("preexisting share moved %.3f under window trim (want negligible, §6)", diff)
	}
	fullMig := float64(fullTax.AttackedMigrating) / float64(fullTax.AttackedNonPre)
	trimMig := float64(trimTax.AttackedMigrating) / float64(trimTax.AttackedNonPre)
	if diff := fullMig - trimMig; diff < -0.03 || diff > 0.03 {
		t.Errorf("migrating share moved %.3f under window trim", diff)
	}
}
