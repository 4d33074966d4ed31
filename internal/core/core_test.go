package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"doscope/internal/attack"
	"doscope/internal/dossim"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/openintel"
	"doscope/internal/stats"
)

var (
	dsOnce sync.Once
	dsVal  *Dataset
	dsErr  error
)

// scenario builds the default 1/1000-scale scenario once and wraps it in a
// core.Dataset.
func scenario(t testing.TB) *Dataset {
	t.Helper()
	dsOnce.Do(func() {
		sc, err := dossim.Generate(dossim.Config{Seed: 42})
		if err != nil {
			dsErr = err
			return
		}
		dsVal = New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
		dsVal.MailIdx = sc.Web
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

func TestTable1(t *testing.T) {
	ds := scenario(t)
	rows := ds.Table1()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	tel, hp, comb := rows[0], rows[1], rows[2]
	if comb.Events != tel.Events+hp.Events {
		t.Errorf("combined events %d != %d + %d", comb.Events, tel.Events, hp.Events)
	}
	if comb.Targets >= tel.Targets+hp.Targets {
		t.Error("combined targets must be less than the sum (common targets exist)")
	}
	if comb.Targets < tel.Targets || comb.Targets < hp.Targets {
		t.Error("combined targets must dominate each data set")
	}
	if tel.Slash24s > tel.Targets || tel.Slash16s > tel.Slash24s || tel.ASNs == 0 {
		t.Errorf("telescope row inconsistent: %+v", tel)
	}
	// Honeypot sees more unique targets than the telescope (Table 1).
	if hp.Targets <= tel.Targets {
		t.Errorf("honeypot targets (%d) should exceed telescope targets (%d)", hp.Targets, tel.Targets)
	}
	// Telescope has more events (12.47M vs 8.43M).
	if tel.Events <= hp.Events {
		t.Errorf("telescope events (%d) should exceed honeypot events (%d)", tel.Events, hp.Events)
	}
}

func TestTable2(t *testing.T) {
	ds := scenario(t)
	rows := ds.Table2()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	com, net, org, comb := rows[0], rows[1], rows[2], rows[3]
	if com.TLD != ".com" || comb.TLD != "Combined" {
		t.Errorf("row labels: %+v", rows)
	}
	if com.WebSites <= net.WebSites || net.WebSites <= org.WebSites {
		t.Error(".com > .net > .org ordering violated")
	}
	if comb.WebSites != com.WebSites+net.WebSites+org.WebSites {
		t.Error("combined mismatch")
	}
	// Roughly 82.7% of sites in .com.
	frac := float64(com.WebSites) / float64(comb.WebSites)
	if math.Abs(frac-0.827) > 0.03 {
		t.Errorf(".com share = %.3f", frac)
	}
	if comb.DataPoints == 0 {
		t.Error("no data points")
	}
}

func TestTable3(t *testing.T) {
	ds := scenario(t)
	rows := ds.Table3()
	if len(rows) != 10 {
		t.Fatalf("providers = %d", len(rows))
	}
	byName := map[string]int{}
	total := 0
	for _, r := range rows {
		byName[r.Provider] = r.WebSites
		total += r.WebSites
	}
	if total == 0 {
		t.Fatal("no DPS-protected sites detected")
	}
	// Structural expectations from Table 3: the commercial providers
	// dwarf VirtualRoad (< 100 sites at full scale).
	if byName["VirtualRoad"] >= byName["CloudFlare"] {
		t.Error("VirtualRoad should be the smallest provider")
	}
	if byName["CloudFlare"] == 0 || byName["Incapsula"] == 0 || byName["DOSarrest"] == 0 {
		t.Errorf("major providers missing: %v", byName)
	}
}

func TestTable4(t *testing.T) {
	ds := scenario(t)
	tel := ds.Table4(attack.SourceTelescope, 5)
	if len(tel) != 6 {
		t.Fatalf("rows = %d", len(tel))
	}
	if tel[0].Country != "US" {
		t.Errorf("telescope top country = %s, want US", tel[0].Country)
	}
	if tel[1].Country != "CN" {
		t.Errorf("telescope #2 = %s, want CN", tel[1].Country)
	}
	if math.Abs(tel[0].Share-0.2556) > 0.06 {
		t.Errorf("US share = %.3f", tel[0].Share)
	}
	var sum float64
	for _, r := range tel {
		sum += r.Share
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("shares sum to %.3f", sum)
	}
	hp := ds.Table4(attack.SourceHoneypot, 5)
	if hp[0].Country != "US" {
		t.Errorf("honeypot top country = %s", hp[0].Country)
	}
	// France ranks high in the honeypot data (OVH effect).
	foundFR := false
	for _, r := range hp[:5] {
		if r.Country == "FR" {
			foundFR = true
		}
	}
	if !foundFR {
		t.Error("FR missing from honeypot top 5")
	}

	// Rows tied on target count come out in the same order from a second
	// dataset over the same scenario: the full ranking is all ties below
	// the head.
	twin := New(ds.Telescope, ds.Honeypot, ds.Plan, ds.History, ds.WindowDays)
	for _, src := range []attack.Source{attack.SourceTelescope, attack.SourceHoneypot} {
		for _, topN := range []int{5, 1 << 10} {
			if a, b := ds.Table4(src, topN), twin.Table4(src, topN); !reflect.DeepEqual(a, b) {
				t.Errorf("Table4(%v, %d) differs between two datasets over one scenario:\n%+v\n%+v", src, topN, a, b)
			}
		}
	}
}

func TestTable5Through8(t *testing.T) {
	ds := scenario(t)
	t5 := ds.Table5()
	if t5[0].Label != "TCP" || math.Abs(t5[0].Share-0.794) > 0.06 {
		t.Errorf("Table5 TCP = %+v", t5[0])
	}
	t6 := ds.Table6()
	if t6[0].Label != "NTP" {
		t.Errorf("Table6 top = %s, want NTP", t6[0].Label)
	}
	if math.Abs(t6[0].Share-0.4008) > 0.06 {
		t.Errorf("NTP share = %.3f", t6[0].Share)
	}
	t7 := ds.Table7()
	if math.Abs(t7[0].Share-0.606) > 0.08 {
		t.Errorf("single-port = %.3f", t7[0].Share)
	}
	if math.Abs(t7[0].Share+t7[1].Share-1) > 1e-9 {
		t.Error("Table7 shares must sum to 1")
	}
	t8tcp := ds.Table8(attack.VectorTCP, 5)
	if t8tcp[0].Label != "HTTP" || t8tcp[1].Label != "HTTPS" {
		t.Errorf("Table8a top = %s, %s; want HTTP, HTTPS", t8tcp[0].Label, t8tcp[1].Label)
	}
	t8udp := ds.Table8(attack.VectorUDP, 5)
	if t8udp[0].Label != "27015" {
		t.Errorf("Table8b top = %s, want 27015", t8udp[0].Label)
	}
}

func TestTable9(t *testing.T) {
	ds := scenario(t)
	t9 := ds.Table9()
	if len(t9.Intensity) != len(t9.Percentiles) {
		t.Fatal("shape mismatch")
	}
	prev := -1.0
	for i, v := range t9.Intensity {
		if v < prev-1e-9 || v < 0 || v > 1 {
			t.Fatalf("intensity at P%.1f = %v not monotone in [0,1]", t9.Percentiles[i], v)
		}
		prev = v
	}
	// The distribution is bottom-heavy: P95 far below the max (Table 9
	// shows 95% of sites at <= 0.07 normalized intensity).
	p95 := t9.Intensity[2]
	if p95 > 0.6 {
		t.Errorf("P95 normalized intensity = %.3f; distribution should be bottom-heavy", p95)
	}
}

func TestFigure1(t *testing.T) {
	ds := scenario(t)
	tel, hp, comb := ds.Figure1()
	telMean := mean(tel.Attacks)
	hpMean := mean(hp.Attacks)
	combMean := mean(comb.Attacks)
	if math.Abs(combMean-telMean-hpMean) > 1e-9 {
		t.Error("combined attacks != tel + hp")
	}
	// ~17.1/day and ~11.6/day at 1/1000 scale.
	if telMean < 12 || telMean > 22 {
		t.Errorf("telescope daily mean = %.1f, want ~17.1", telMean)
	}
	if hpMean < 8 || hpMean > 16 {
		t.Errorf("honeypot daily mean = %.1f, want ~11.6", hpMean)
	}
	// Unique targets per day below attacks per day (same-day repeats).
	if mean(tel.Targets) >= telMean {
		t.Error("telescope daily targets should be below attacks")
	}
	// Combined targets not the sum of panels (same-day cross-data-set hits).
	if mean(comb.Targets) > mean(tel.Targets)+mean(hp.Targets) {
		t.Error("combined targets exceed sum of panels")
	}
	if mean(comb.ASNs) == 0 || mean(comb.Slash16s) == 0 {
		t.Error("ASN //16 series empty")
	}
}

func TestFigure2(t *testing.T) {
	ds := scenario(t)
	tel, hp := ds.Figure2()
	if tel.P50Sec < 250 || tel.P50Sec > 900 {
		t.Errorf("telescope median = %.0f", tel.P50Sec)
	}
	if hp.P50Sec < 150 || hp.P50Sec > 450 {
		t.Errorf("honeypot median = %.0f", hp.P50Sec)
	}
	if tel.MeanSec <= hp.MeanSec {
		t.Error("randomly spoofed attacks must last longer on average (Fig 2)")
	}
	if hp.Over24h > 0 {
		t.Error("honeypot durations beyond the 24h cap")
	}
}

func TestFigure3And4(t *testing.T) {
	ds := scenario(t)
	f3 := ds.Figure3()
	if f3.Median < 0.5 || f3.Median > 3 {
		t.Errorf("telescope median intensity = %.2f", f3.Median)
	}
	f4 := ds.Figure4()
	if len(f4) != 6 || f4[0].Label != "Overall" {
		t.Fatalf("Figure4 curves = %d", len(f4))
	}
	// NTP reaches the highest rates among protocols (Fig 4).
	var ntp, ripv1 IntensityCDF
	for _, c := range f4 {
		switch c.Label {
		case "NTP":
			ntp = c
		case "RIPv1":
			ripv1 = c
		}
	}
	if ntp.Mean <= ripv1.Mean {
		t.Errorf("NTP mean rps (%.1f) should exceed RIPv1 (%.1f)", ntp.Mean, ripv1.Mean)
	}
}

func TestFigure5(t *testing.T) {
	ds := scenario(t)
	f5 := ds.Figure5()
	medMean := mean(f5.Attacks)
	_, _, comb := ds.Figure1()
	allMean := mean(comb.Attacks)
	// ~1.4k of 28.7k daily at full scale: medium+ events are a small
	// fraction of all events.
	frac := medMean / allMean
	if frac < 0.01 || frac > 0.25 {
		t.Errorf("medium+ fraction = %.3f, want ~0.05", frac)
	}
	// The Nov 4 2016 planted peak (day 614) must stand out.
	peak, at := maxAt(f5.Attacks)
	if peak < 3*medMean {
		t.Errorf("no pronounced high-intensity peak (max %.0f, mean %.1f)", peak, medMean)
	}
	if at < 600 || at > 630 {
		t.Logf("note: top medium+ day = %d (planted peak at 614)", at)
	}
}

func TestFigure6(t *testing.T) {
	ds := scenario(t)
	h := ds.Figure6()
	if len(h.Counts) < 4 {
		t.Fatalf("co-hosting bins = %d", len(h.Counts))
	}
	// n=1 is the biggest bin; counts decay across bins (Fig 6 shape).
	if h.Counts[0] < h.Counts[1] {
		t.Errorf("n=1 bin (%d) should dominate (1,10] (%d)", h.Counts[0], h.Counts[1])
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	// 572k/1000 attacked Web IPs.
	if total < 300 || total > 1200 {
		t.Errorf("attacked Web IPs = %d, want ~572", total)
	}
}

func TestFigure7AndWebImpact(t *testing.T) {
	ds := scenario(t)
	f7 := ds.Figure7()
	w := ds.WebImpactStats()
	if math.Abs(w.AttackedFraction-0.64) > 0.08 {
		t.Errorf("attacked site fraction = %.3f, want ~0.64", w.AttackedFraction)
	}
	if w.DailyAvgFraction < 0.01 || w.DailyAvgFraction > 0.06 {
		t.Errorf("daily attacked fraction = %.4f, want ~0.03", w.DailyAvgFraction)
	}
	if w.MediumDailyAvgSites <= 0 || w.MediumDailyAvgSites >= w.DailyAvgSites {
		t.Errorf("medium+ daily sites = %.1f (all: %.1f)", w.MediumDailyAvgSites, w.DailyAvgSites)
	}
	webIPFrac := float64(w.WebTargetIPs) / float64(w.TotalTargetIPs)
	if webIPFrac < 0.05 || webIPFrac > 0.15 {
		t.Errorf("web target IP fraction = %.3f, want ~0.09", webIPFrac)
	}
	if math.Abs(w.TCPShareOnWeb-0.934) > 0.05 {
		t.Errorf("TCP share on web = %.3f", w.TCPShareOnWeb)
	}
	if math.Abs(w.NTPShareOnWeb-0.5469) > 0.08 {
		t.Errorf("NTP share on web = %.3f", w.NTPShareOnWeb)
	}
	if w.WebPortShareOnWeb < 0.75 {
		t.Errorf("web-port share on web targets = %.3f, want ~0.876", w.WebPortShareOnWeb)
	}
	// Peaks: the largest Fig 7 day should be one of the planted peaks.
	if len(f7.PeakDays) == 0 {
		t.Fatal("no peaks")
	}
	planted := map[int]bool{11: true, 223: true, 614: true, 727: true}
	if !planted[f7.PeakDays[0]] {
		t.Errorf("top web-impact day = %d, want a planted peak day", f7.PeakDays[0])
	}
	if len(f7.SmoothedPct) != ds.WindowDays {
		t.Error("smoothed series wrong length")
	}
}

func TestFigure8Taxonomy(t *testing.T) {
	ds := scenario(t)
	tax := ds.Figure8()
	if tax.Total == 0 {
		t.Fatal("empty taxonomy")
	}
	attackedFrac := float64(tax.Attacked) / float64(tax.Total)
	if math.Abs(attackedFrac-0.64) > 0.08 {
		t.Errorf("attacked fraction = %.3f, want ~0.64", attackedFrac)
	}
	preA := float64(tax.AttackedPreexisting) / float64(tax.Attacked)
	if math.Abs(preA-0.186) > 0.06 {
		t.Errorf("preexisting|attacked = %.3f, want ~0.186", preA)
	}
	preN := float64(tax.NoAttackPreexisting) / float64(tax.NoAttack)
	if preN > 0.03 {
		t.Errorf("preexisting|no-attack = %.4f, want ~0.0089", preN)
	}
	migA := float64(tax.AttackedMigrating) / float64(tax.AttackedNonPre)
	if migA < 0.02 || migA > 0.09 {
		t.Errorf("migrating|attacked = %.4f, want ~0.0431", migA)
	}
	migN := float64(tax.NoAttackMigrating) / float64(tax.NoAttackNonPre)
	if migN < 0.015 || migN > 0.06 {
		t.Errorf("migrating|no-attack = %.4f, want ~0.0332", migN)
	}
	// Sanity: the tree sums.
	if tax.Attacked+tax.NoAttack != tax.Total {
		t.Error("tree level 1 does not sum")
	}
	if tax.AttackedPreexisting+tax.AttackedNonPre != tax.Attacked {
		t.Error("tree level 2 (attacked) does not sum")
	}
	if tax.AttackedMigrating+tax.AttackedNonMigrating != tax.AttackedNonPre {
		t.Error("tree level 3 (attacked) does not sum")
	}
}

func TestFigure9(t *testing.T) {
	ds := scenario(t)
	f9 := ds.Figure9()
	if f9.All.Len() == 0 || f9.Migrating.Len() == 0 {
		t.Fatal("empty frequency CDFs")
	}
	// Migrating sites are attacked less often (Fig 9: 97.83% vs 92.35%
	// within 5 attacks).
	if f9.AtMost5Migrating <= f9.AtMost5All {
		t.Errorf("P(<=5) migrating %.3f should exceed all %.3f", f9.AtMost5Migrating, f9.AtMost5All)
	}
}

func TestFigure10(t *testing.T) {
	ds := scenario(t)
	f10 := ds.Figure10()
	if len(f10) != 4 {
		t.Fatalf("bands = %d", len(f10))
	}
	all, top01 := f10[0], f10[3]
	if all.Sites == 0 {
		t.Fatal("no migrating sites")
	}
	// Intensity accelerates migration: the top band migrates much faster.
	if top01.Sites > 0 && top01.Within1 <= all.Within1 {
		t.Errorf("top 0.1%% within-1-day %.3f should exceed all %.3f", top01.Within1, all.Within1)
	}
	if math.Abs(all.Within1-0.232) > 0.12 {
		t.Errorf("all within-1-day = %.3f, want ~0.232", all.Within1)
	}
	if top01.Sites > 0 && top01.Within6 < 0.85 {
		t.Errorf("top 0.1%% within-6-days = %.3f, want ~0.986", top01.Within6)
	}
}

func TestFigure11(t *testing.T) {
	ds := scenario(t)
	f11 := ds.Figure11()
	if f11.Sites == 0 {
		t.Fatal("no >=4h migrating sites (Wix trigger missing?)")
	}
	// The Wix bulk migration dominates: most migrate within a day.
	if f11.Within1 < 0.4 {
		t.Errorf("within-1-day after >=4h attacks = %.3f, want ~0.676", f11.Within1)
	}
}

func TestJointAttacks(t *testing.T) {
	ds := scenario(t)
	j := ds.JointAttacks()
	if j.CommonTargets == 0 || j.JointTargets == 0 {
		t.Fatal("no joint attacks found")
	}
	if j.JointTargets > j.CommonTargets {
		t.Error("joint > common")
	}
	// Joint attacks concentrate on single ports (77.1% vs 60.6%).
	base := ds.Table7()[0].Share
	if j.SinglePortShare <= base {
		t.Errorf("joint single-port %.3f should exceed base %.3f", j.SinglePortShare, base)
	}
	// 27015/UDP concentration (53% vs 18.5%).
	if j.Port27015Share < 0.3 {
		t.Errorf("joint 27015 share = %.3f, want ~0.53", j.Port27015Share)
	}
	// NTP gains, CharGen halves.
	if j.NTPShare < 0.40 {
		t.Errorf("joint NTP share = %.3f, want ~0.47", j.NTPShare)
	}
	if j.CharGenShare > 0.18 {
		t.Errorf("joint CharGen share = %.3f, want ~0.115", j.CharGenShare)
	}
	// OVH tops the joint-target AS ranking (AS12276, 12.3%).
	if len(j.TopASNs) == 0 {
		t.Fatal("no AS ranking")
	}
	if j.TopASNs[0].Name != "OVH" {
		t.Errorf("top joint AS = %q (%.3f), want OVH", j.TopASNs[0].Name, j.TopASNs[0].Share)
	}
	// US and CN lead the joint country ranking.
	if len(j.TopCountries) < 2 || j.TopCountries[0].Country != "US" || j.TopCountries[1].Country != "CN" {
		t.Errorf("joint countries = %+v", j.TopCountries)
	}
	twin := New(ds.Telescope, ds.Honeypot, ds.Plan, ds.History, ds.WindowDays)
	if j2 := twin.JointAttacks(); !reflect.DeepEqual(j, j2) {
		t.Errorf("JointAttacks differs between two datasets over one scenario:\n%+v\n%+v", j, j2)
	}
}

func TestTargetsIn24s(t *testing.T) {
	ds := scenario(t)
	n := ds.TargetsIn24s()
	frac := float64(n) / float64(ds.Plan.NumActive24())
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("attacked /24 fraction = %.3f, want ~1/3", frac)
	}
}

func TestDatasetWithoutHistory(t *testing.T) {
	ds := scenario(t)
	bare := New(ds.Telescope, ds.Honeypot, ds.Plan, nil, ds.WindowDays)
	if rows := bare.Table1(); rows[2].Events == 0 {
		t.Error("Table1 broken without history")
	}
	if tax := bare.Figure8(); tax.Total != 0 {
		t.Error("taxonomy should be empty without history")
	}
	if w := bare.WebImpactStats(); w.SitesEverAttacked != 0 {
		t.Error("web impact should be empty without history")
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func maxAt(v []float64) (float64, int) {
	best, at := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, at = x, i
		}
	}
	return best, at
}

func TestMailImpact(t *testing.T) {
	ds := scenario(t)
	m := ds.MailImpactStats()
	if m.DomainsEverAffected == 0 {
		t.Fatal("no mail impact measured")
	}
	if m.Fraction <= 0 || m.Fraction > 0.8 {
		t.Errorf("mail-affected fraction = %.3f", m.Fraction)
	}
	if m.AttackedMailIPs == 0 || len(m.TopClusters) == 0 {
		t.Fatalf("mail clusters missing: %+v", m)
	}
	// Clusters are sorted by affected domains, and the biggest cluster
	// belongs to a mega hoster (GoDaddy-scale: >= hundreds of domains).
	if m.TopClusters[0].Domains < 200 {
		t.Errorf("top mail cluster only %d domains", m.TopClusters[0].Domains)
	}
	for i := 1; i < len(m.TopClusters); i++ {
		if m.TopClusters[i].Domains > m.TopClusters[i-1].Domains {
			t.Fatal("clusters not sorted")
		}
	}
	// Without an index the analysis degrades gracefully.
	bare := New(ds.Telescope, ds.Honeypot, ds.Plan, ds.History, ds.WindowDays)
	if got := bare.MailImpactStats(); got.DomainsEverAffected != 0 {
		t.Error("mail impact without index should be empty")
	}
}

// mailAt serves domain 0's mail at every address on every day.
type mailAt struct{}

func (mailAt) ForEachMailDomainOn(_ netx.Addr, _ int, fn func(id uint32)) { fn(0) }

// TestMailDailyAvgCountsDomainDaysOnce checks DailyAvg against distinct
// (domain, day) pairs when both stores hit one domain: telescope
// attacks on days 1 and 3 and a honeypot attack on day 1 make two
// pairs, not three.
func TestMailDailyAvgCountsDomainDaysOnce(t *testing.T) {
	day := func(d int64) int64 { return attack.WindowStart + d*86400 + 3600 }
	ev := func(src attack.Source, target netx.Addr, d int64) attack.Event {
		return attack.Event{Source: src, Vector: attack.VectorNTP, Target: target, Start: day(d), End: day(d) + 600, AvgRPS: 1}
	}
	tel := attack.NewStore([]attack.Event{
		ev(attack.SourceTelescope, 10, 1),
		ev(attack.SourceTelescope, 10, 3),
	})
	hp := attack.NewStore([]attack.Event{ev(attack.SourceHoneypot, 20, 1)})
	hist := &openintel.History{WindowDays: 10, Segments: [][]openintel.Segment{{{From: 0, To: 9, Addr: 10}}}, TLD: []uint8{0}}
	ds := New(tel, hp, nil, hist, 10)
	ds.MailIdx = mailAt{}
	m := ds.MailImpactStats()
	if m.DailyAvg != 0.2 {
		t.Errorf("DailyAvg = %v, want 2 (domain, day) pairs / 10 days = 0.2", m.DailyAvg)
	}
	if m.DomainsEverAffected != 1 || m.AttackedMailIPs != 2 {
		t.Errorf("affected %d domains at %d addresses, want 1 at 2", m.DomainsEverAffected, m.AttackedMailIPs)
	}
	if om := oracleMail(ds); om.DailyAvg != m.DailyAvg {
		t.Errorf("oracle DailyAvg = %v, analysis %v", om.DailyAvg, m.DailyAvg)
	}
}

// TestWebJoinMemoizedPerStoreVersion checks the version-counter memo:
// chained analyses share one web join, and an Add to either attack store
// invalidates it (and the intensity stats) on the next call.
func TestWebJoinMemoizedPerStoreVersion(t *testing.T) {
	sc, err := dossim.Generate(dossim.Config{Seed: 5, Scale: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	ds := New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)

	j1 := ds.webJoinResult()
	ds.Figure6()
	ds.Figure7()
	if ds.webJoinResult() != j1 {
		t.Fatal("chained figures recomputed the web join without a store mutation")
	}

	ds.Honeypot.Add(attack.Event{
		Source: attack.SourceHoneypot, Vector: attack.VectorNTP,
		Target: sc.Honeypot.Events()[0].Target,
		Start:  attack.WindowStart + 3600, End: attack.WindowStart + 7200,
		AvgRPS: 1,
	})
	j2 := ds.webJoinResult()
	if j2 == j1 {
		t.Fatal("web join not recomputed after Store.Add bumped the version")
	}
	if ds.webJoinResult() != j2 {
		t.Fatal("web join recomputed again without a further mutation")
	}
}

// TestReverseIndexSharedAcrossDatasets: the reverse index depends only
// on the History, so every Dataset over one History reads the same
// index, built once by whichever analysis needs it first.
func TestReverseIndexSharedAcrossDatasets(t *testing.T) {
	sc, err := dossim.Generate(dossim.Config{Seed: 5, Scale: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	a := New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
	b := New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
	want := a.WebImpactStats()
	rev := sc.History.ReverseIndex()
	if got := b.WebImpactStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("second Dataset's WebImpactStats = %+v, want %+v", got, want)
	}
	if b.History.ReverseIndex() != rev || a.History.ReverseIndex() != rev {
		t.Fatal("Datasets over one History read different reverse indexes")
	}
}

// TestCachesInvalidateOnAddBatch checks that the batched live-ingest
// path (the amppot periodic flush) bumps the store version like
// event-at-a-time Add, so the Dataset's memoized intermediates are
// recomputed after a flush instead of serving stale results.
func TestCachesInvalidateOnAddBatch(t *testing.T) {
	sc, err := dossim.Generate(dossim.Config{Seed: 6, Scale: 0.0003})
	if err != nil {
		t.Fatal(err)
	}
	ds := New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)

	j1 := ds.webJoinResult()
	target := sc.Honeypot.Events()[0].Target
	ds.Honeypot.AddBatch([]attack.Event{
		{
			Source: attack.SourceHoneypot, Vector: attack.VectorNTP,
			Target: target,
			Start:  attack.WindowStart + 3600, End: attack.WindowStart + 7200,
			AvgRPS: 1,
		},
		{
			Source: attack.SourceHoneypot, Vector: attack.VectorDNS,
			Target: target,
			Start:  attack.WindowStart + 9000, End: attack.WindowStart + 9600,
			AvgRPS: 2,
		},
	})
	if ds.webJoinResult() == j1 {
		t.Fatal("web join not recomputed after Store.AddBatch bumped the version")
	}
}

// --- map-based oracles ----------------------------------------------------
//
// The functions below are the straightforward formulations of the
// analyses that the production code computes from the event digest and
// dense per-site, per-target and per-day state: store scans per analysis
// and Go maps keyed by address, site id or (day, key).
// TestAnalysesMatchOracles checks that both give the same results.

func oracleAddrSet(q *attack.Query) map[netx.Addr]struct{} {
	m := make(map[netx.Addr]struct{})
	for e := range q.Iter() {
		m[e.Target] = struct{}{}
	}
	return m
}

// oracleByTarget groups a query's events per target, each group in Iter
// order, as stable copies.
func oracleByTarget(q *attack.Query) map[netx.Addr][]*attack.Event {
	out := make(map[netx.Addr][]*attack.Event)
	for e := range q.Iter() {
		out[e.Target] = append(out[e.Target], e.Clone())
	}
	return out
}

// oracleStore returns the store of one sensor.
func oracleStore(ds *Dataset, src attack.Source) *attack.Store {
	if src == attack.SourceTelescope {
		return ds.Telescope
	}
	return ds.Honeypot
}

func oracleTable1(ds *Dataset) []Table1Row {
	row := func(name string, stores ...*attack.Store) Table1Row {
		r := Table1Row{Source: name}
		for _, st := range stores {
			r.Events += st.Len()
		}
		targets := oracleAddrSet(attack.QueryStores(stores...))
		t24 := make(map[netx.Addr]struct{})
		t16 := make(map[netx.Addr]struct{})
		asns := make(map[uint32]struct{})
		for a := range targets {
			t24[a.Slash24()] = struct{}{}
			t16[a.Slash16()] = struct{}{}
			if ds.Plan != nil {
				if asn, ok := ds.Plan.ASOf(a); ok {
					asns[uint32(asn)] = struct{}{}
				}
			}
		}
		r.Targets = len(targets)
		r.Slash24s = len(t24)
		r.Slash16s = len(t16)
		r.ASNs = len(asns)
		return r
	}
	return []Table1Row{
		row("Network Telescope", ds.Telescope),
		row("Amplification Honeypot", ds.Honeypot),
		row("Combined", ds.Telescope, ds.Honeypot),
	}
}

func oracleTable4(ds *Dataset, src attack.Source, topN int) []CountryRow {
	if ds.Plan == nil {
		return nil
	}
	counts := make(map[string]int)
	total := 0
	for a := range oracleAddrSet(oracleStore(ds, src).Query()) {
		cc, ok := ds.Plan.CountryOf(a)
		name := "??"
		if ok {
			name = cc.String()
		}
		counts[name]++
		total++
	}
	var rows []CountryRow
	for cc, n := range counts {
		rows = append(rows, CountryRow{Country: cc, Targets: n, Share: float64(n) / float64(total)})
	}
	sortCountries(rows)
	if len(rows) <= topN {
		return rows
	}
	other := CountryRow{Country: "Other"}
	for _, r := range rows[topN:] {
		other.Targets += r.Targets
		other.Share += r.Share
	}
	return append(rows[:topN:topN], other)
}

func oracleTargetsIn24s(ds *Dataset) int {
	s := make(map[netx.Addr]struct{})
	for a := range oracleAddrSet(ds.All()) {
		s[a.Slash24()] = struct{}{}
	}
	return len(s)
}

// oraclePanel is one daily panel with its own per-(day, key) dedup maps.
type oraclePanel struct {
	p                *DailyPanel
	target, s16, asn map[int64]struct{}
	ds               *Dataset
}

func newOraclePanel(ds *Dataset) *oraclePanel {
	return &oraclePanel{
		p:      newDailyPanel(ds.WindowDays),
		target: make(map[int64]struct{}),
		s16:    make(map[int64]struct{}),
		asn:    make(map[int64]struct{}),
		ds:     ds,
	}
}

func (o *oraclePanel) add(e *attack.Event) {
	day := e.Day()
	if day < 0 || day >= o.ds.WindowDays {
		return
	}
	o.p.Attacks[day]++
	dkey := int64(day) << 32
	if k := dkey | int64(uint32(e.Target)); !oracleHas(o.target, k) {
		o.p.Targets[day]++
	}
	if k := dkey | int64(uint32(e.Target.Slash16())); !oracleHas(o.s16, k) {
		o.p.Slash16s[day]++
	}
	if o.ds.Plan != nil {
		if asn, ok := o.ds.Plan.ASOf(e.Target); ok && !oracleHas(o.asn, dkey|int64(asn)) {
			o.p.ASNs[day]++
		}
	}
}

// oracleHas reports whether k was in m, and inserts it.
func oracleHas(m map[int64]struct{}, k int64) bool {
	_, ok := m[k]
	m[k] = struct{}{}
	return ok
}

// oracleFigure1 builds the three panels sequentially: one dedup map set
// per panel over the whole window.
func oracleFigure1(ds *Dataset) (tel, hp, comb *DailyPanel) {
	t, h, c := newOraclePanel(ds), newOraclePanel(ds), newOraclePanel(ds)
	for e := range ds.All().Iter() {
		if e.Source == attack.SourceTelescope {
			t.add(e)
		} else {
			h.add(e)
		}
		c.add(e)
	}
	return t.p, h.p, c.p
}

func oracleFigure5(ds *Dataset) *DailyPanel {
	c := newOraclePanel(ds)
	for e := range ds.All().Iter() {
		if ds.MediumPlus(e) {
			c.add(e)
		}
	}
	return c.p
}

// oracleJoin is the §5 join over a map-based reverse index, with one
// array per per-site aggregate.
type oracleJoin struct {
	attacksPerSite []int32
	firstAttackDay []int32
	maxNorm        []float64
	longestHpSecs  []int64
	dailyAll       []float64
	dailyMed       []float64
	cohost         []int
	uniqueTargets  int
	aliveSites     int
}

type oracleRevEntry struct {
	from, to int32
	id       uint32
}

func oracleReverse(ds *Dataset) map[netx.Addr][]oracleRevEntry {
	rev := make(map[netx.Addr][]oracleRevEntry)
	for id, segs := range ds.History.Segments {
		for _, s := range segs {
			rev[s.Addr] = append(rev[s.Addr], oracleRevEntry{s.From, s.To, uint32(id)})
		}
	}
	return rev
}

func oracleSitesOn(rev map[netx.Addr][]oracleRevEntry, addr netx.Addr, day int, fn func(id uint32)) {
	for _, e := range rev[addr] {
		if int(e.from) <= day && day <= int(e.to) {
			fn(e.id)
		}
	}
}

func oracleWebJoin(ds *Dataset) *oracleJoin {
	nd := ds.History.NumDomains()
	j := &oracleJoin{
		attacksPerSite: make([]int32, nd),
		firstAttackDay: make([]int32, nd),
		maxNorm:        make([]float64, nd),
		longestHpSecs:  make([]int64, nd),
		dailyAll:       make([]float64, ds.WindowDays),
		dailyMed:       make([]float64, ds.WindowDays),
	}
	for i := range j.firstAttackDay {
		j.firstAttackDay[i] = -1
	}
	for id := 0; id < nd; id++ {
		if len(ds.History.Segments[id]) > 0 {
			j.aliveSites++
		}
	}
	var telMax, hpMax float64
	for e := range ds.Telescope.Query().Iter() {
		telMax = max(telMax, e.MaxPPS)
	}
	for e := range ds.Honeypot.Query().Iter() {
		hpMax = max(hpMax, e.AvgRPS)
	}
	telDen, hpDen := 1.0, 1.0
	if telMax > 0 {
		telDen = telMax
	}
	if hpMax > 0 {
		hpDen = hpMax
	}
	rev := oracleReverse(ds)
	type ipState struct{ seen bool }
	firstSeen := make(map[netx.Addr]*ipState)
	seenAll := make(map[int64]struct{})
	seenMed := make(map[int64]struct{})
	for e := range ds.All().IterByStart() {
		day := e.Day()
		if day < 0 || day >= ds.WindowDays {
			continue
		}
		st := firstSeen[e.Target]
		if st == nil {
			st = &ipState{}
			firstSeen[e.Target] = st
		}
		norm := e.AvgRPS / hpDen
		if e.Source == attack.SourceTelescope {
			norm = e.MaxPPS / telDen
		}
		med := ds.MediumPlus(e)
		sites := 0
		oracleSitesOn(rev, e.Target, day, func(id uint32) {
			sites++
			j.attacksPerSite[id]++
			if j.firstAttackDay[id] < 0 || int32(day) < j.firstAttackDay[id] {
				j.firstAttackDay[id] = int32(day)
			}
			j.maxNorm[id] = max(j.maxNorm[id], norm)
			if e.Source == attack.SourceHoneypot && e.Duration() > j.longestHpSecs[id] {
				j.longestHpSecs[id] = e.Duration()
			}
			k := int64(day)<<32 | int64(id)
			if !oracleHas(seenAll, k) {
				j.dailyAll[day]++
			}
			if med && !oracleHas(seenMed, k) {
				j.dailyMed[day]++
			}
		})
		if !st.seen && sites > 0 {
			st.seen = true
			j.cohost = append(j.cohost, sites)
		}
	}
	j.uniqueTargets = len(firstSeen)
	return j
}

func oracleTable9(j *oracleJoin) Table9Result {
	var norm []float64
	for id, n := range j.attacksPerSite {
		if n > 0 {
			norm = append(norm, j.maxNorm[id])
		}
	}
	slices.Sort(norm)
	cdf := stats.SortedCDF(norm)
	ps := []float64{11.1, 50, 95, 97.5, 99, 99.9, 100}
	res := Table9Result{Percentiles: ps}
	for _, p := range ps {
		res.Intensity = append(res.Intensity, cdf.Quantile(p/100))
	}
	return res
}

// oracleMigration is the §6 classification with map-keyed adoption and
// last-attack days.
func oracleMigration(ds *Dataset, j *oracleJoin) *migrationStudy {
	m := &migrationStudy{}
	var sitePct []float64
	for id, n := range j.attacksPerSite {
		if n > 0 {
			sitePct = append(sitePct, j.maxNorm[id])
		}
	}
	sort.Float64s(sitePct)
	pctOf := func(v float64) float64 {
		if len(sitePct) < 2 {
			return 1
		}
		i := sort.Search(len(sitePct), func(k int) bool { return sitePct[k] > v })
		return float64(i) / float64(len(sitePct))
	}
	adoption := make(map[uint32]int32)
	for id := 0; id < ds.History.NumDomains(); id++ {
		if day, _, ok := ds.History.FirstProtectedDay(uint32(id)); ok && !ds.History.Preexisting(uint32(id)) {
			adoption[uint32(id)] = int32(day)
		}
	}
	lastBefore := make(map[uint32]int32, len(adoption))
	rev := oracleReverse(ds)
	for e := range ds.All().Iter() {
		day := int32(e.Day())
		if day < 0 || int(day) >= ds.WindowDays {
			continue
		}
		oracleSitesOn(rev, e.Target, int(day), func(id uint32) {
			ad, ok := adoption[id]
			if !ok || day >= ad {
				return
			}
			if prev, ok := lastBefore[id]; !ok || day > prev {
				lastBefore[id] = day
			}
		})
	}
	for id := 0; id < ds.History.NumDomains(); id++ {
		if len(ds.History.Segments[id]) == 0 {
			continue
		}
		m.taxonomy.Total++
		adoptionDay, _, adopted := ds.History.FirstProtectedDay(uint32(id))
		pre := ds.History.Preexisting(uint32(id))
		if j.attacksPerSite[id] > 0 {
			m.taxonomy.Attacked++
			m.freqAll = append(m.freqAll, float64(j.attacksPerSite[id]))
			firstAttack := int(j.firstAttackDay[id])
			switch {
			case pre || (adopted && adoptionDay <= firstAttack):
				m.taxonomy.AttackedPreexisting++
			case adopted:
				m.taxonomy.AttackedNonPre++
				m.taxonomy.AttackedMigrating++
				ref := firstAttack
				if lb, ok := lastBefore[uint32(id)]; ok {
					ref = int(lb)
				}
				m.delays = append(m.delays, max(adoptionDay-ref, 1))
				m.delayPct = append(m.delayPct, pctOf(j.maxNorm[id]))
				m.longHp = append(m.longHp, j.longestHpSecs[id] >= 4*3600)
				m.freqMigrating = append(m.freqMigrating, float64(j.attacksPerSite[id]))
			default:
				m.taxonomy.AttackedNonPre++
				m.taxonomy.AttackedNonMigrating++
			}
		} else {
			m.taxonomy.NoAttack++
			switch {
			case pre:
				m.taxonomy.NoAttackPreexisting++
			case adopted:
				m.taxonomy.NoAttackNonPre++
				m.taxonomy.NoAttackMigrating++
			default:
				m.taxonomy.NoAttackNonPre++
				m.taxonomy.NoAttackNonMigrating++
			}
		}
	}
	return m
}

// oracleMail is the §8 analysis with one domain set per attacked mail
// address.
func oracleMail(ds *Dataset) MailImpact {
	var m MailImpact
	if ds.MailIdx == nil || ds.History == nil {
		return m
	}
	nd := ds.History.NumDomains()
	affected := make([]bool, nd)
	counted := make(map[[2]int]bool) // (day, domain) pairs in daily
	daily := make([]float64, ds.WindowDays)
	type cluster struct {
		domains map[uint32]struct{}
		events  int
	}
	clusters := make(map[netx.Addr]*cluster)
	for e := range ds.All().Iter() {
		day := e.Day()
		if day < 0 || day >= ds.WindowDays {
			continue
		}
		var cl *cluster
		ds.MailIdx.ForEachMailDomainOn(e.Target, day, func(id uint32) {
			if cl == nil {
				cl = clusters[e.Target]
				if cl == nil {
					cl = &cluster{domains: make(map[uint32]struct{})}
					clusters[e.Target] = cl
				}
			}
			affected[id] = true
			cl.domains[id] = struct{}{}
			if k := [2]int{day, int(id)}; !counted[k] {
				counted[k] = true
				daily[day]++
			}
		})
		if cl != nil {
			cl.events++
		}
	}
	for _, a := range affected {
		if a {
			m.DomainsEverAffected++
		}
	}
	alive := 0
	for id := 0; id < nd; id++ {
		if len(ds.History.Segments[id]) > 0 {
			alive++
		}
	}
	if alive > 0 {
		m.Fraction = float64(m.DomainsEverAffected) / float64(alive)
	}
	var sum float64
	for _, v := range daily {
		sum += v
	}
	m.DailyAvg = sum / float64(len(daily))
	m.AttackedMailIPs = len(clusters)
	for addr, cl := range clusters {
		m.TopClusters = append(m.TopClusters, MailCluster{Addr: addr, Domains: len(cl.domains), Events: cl.events})
	}
	sort.Slice(m.TopClusters, func(i, j int) bool {
		if m.TopClusters[i].Domains != m.TopClusters[j].Domains {
			return m.TopClusters[i].Domains > m.TopClusters[j].Domains
		}
		return m.TopClusters[i].Addr < m.TopClusters[j].Addr
	})
	if len(m.TopClusters) > 5 {
		m.TopClusters = m.TopClusters[:5]
	}
	return m
}

// oracleTable7 is Table 7 over a telescope scan.
func oracleTable7(ds *Dataset) []MixRow {
	var single, multi int
	for e := range ds.Telescope.Query().Iter() {
		switch {
		case len(e.Ports) == 0:
		case e.SinglePort():
			single++
		default:
			multi++
		}
	}
	total := float64(single + multi)
	return []MixRow{
		{Label: "single-port", Events: single, Share: float64(single) / total},
		{Label: "multi-port", Events: multi, Share: float64(multi) / total},
	}
}

// oracleTable8 is Table 8 over a vector-filtered telescope scan with one
// counter per service name.
func oracleTable8(ds *Dataset, vec attack.Vector, topN int) []MixRow {
	counts := make(map[string]int)
	total := 0
	for e := range ds.Telescope.Query().Vectors(vec).Iter() {
		if !e.SinglePort() {
			continue
		}
		counts[attack.ServiceName(vec, e.Ports[0])]++
		total++
	}
	var rows []MixRow
	for svc, n := range counts {
		rows = append(rows, MixRow{Label: svc, Events: n, Share: float64(n) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Events != rows[j].Events {
			return rows[i].Events > rows[j].Events
		}
		return rows[i].Label < rows[j].Label
	})
	if len(rows) > topN {
		other := MixRow{Label: "Other"}
		for _, r := range rows[topN:] {
			other.Events += r.Events
			other.Share += r.Share
		}
		rows = append(rows[:topN:topN], other)
	}
	return rows
}

// oracleFigure2 is Figure 2 over one Iter pass per store.
func oracleFigure2(ds *Dataset) (tel, hp DurationCDF) {
	build := func(name string, st *attack.Store) DurationCDF {
		d := make([]float64, 0, st.Len())
		for e := range st.Query().Iter() {
			d = append(d, float64(e.Duration()))
		}
		slices.Sort(d)
		c := stats.SortedCDF(d)
		return DurationCDF{
			Source: name, CDF: c,
			MeanSec: c.Mean(), P50Sec: c.Median(), P90Sec: c.Quantile(0.9),
			Over1h: 1 - c.At(3600), Over24h: 1 - c.At(86400),
		}
	}
	return build("Telescope", ds.Telescope), build("Honeypot", ds.Honeypot)
}

// oracleFigure4 is Figure 4 over one Iter pass of the honeypot store.
func oracleFigure4(ds *Dataset) []IntensityCDF {
	hpPct := make([]float64, 0, ds.Honeypot.Len())
	var byVec [attack.NumVectors][]float64
	for v := range byVec {
		byVec[v] = []float64{} // Figure4's CDFs hold empty, not nil, samples
	}
	for e := range ds.Honeypot.Query().Iter() {
		hpPct = append(hpPct, e.AvgRPS)
		byVec[e.Vector] = append(byVec[e.Vector], e.AvgRPS)
	}
	sort.Float64s(hpPct)
	out := []IntensityCDF{}
	c := stats.SortedCDF(hpPct)
	out = append(out, IntensityCDF{Label: "Overall", CDF: c, Mean: c.Mean(), Median: c.Median()})
	for _, v := range []attack.Vector{attack.VectorNTP, attack.VectorDNS, attack.VectorCharGen, attack.VectorSSDP, attack.VectorRIPv1} {
		slices.Sort(byVec[v])
		c := stats.SortedCDF(byVec[v])
		out = append(out, IntensityCDF{Label: v.String(), CDF: c, Mean: c.Mean(), Median: c.Median()})
	}
	return out
}

// oracleWebImpact is the §5 summary over the oracle join, with Web
// targets found in the map-based reverse index.
func oracleWebImpact(ds *Dataset, j *oracleJoin) WebImpact {
	rev := oracleReverse(ds)
	var w WebImpact
	for _, n := range j.attacksPerSite {
		if n > 0 {
			w.SitesEverAttacked++
		}
	}
	w.AliveSites = j.aliveSites
	if w.AliveSites > 0 {
		w.AttackedFraction = float64(w.SitesEverAttacked) / float64(w.AliveSites)
	}
	w.DailyAvgSites = (&stats.Daily{Values: j.dailyAll}).Mean()
	if w.AliveSites > 0 {
		w.DailyAvgFraction = w.DailyAvgSites / float64(w.AliveSites)
	}
	w.MediumDailyAvgSites = (&stats.Daily{Values: j.dailyMed}).Mean()
	w.WebTargetIPs = len(j.cohost)
	w.TotalTargetIPs = j.uniqueTargets

	tcp, webPort, telWeb := 0, 0, 0
	for e := range ds.Telescope.Query().Iter() {
		if _, ok := rev[e.Target]; !ok {
			continue
		}
		telWeb++
		if e.Vector == attack.VectorTCP {
			tcp++
			if e.SinglePort() && attack.WebPort(e.Ports[0]) {
				webPort++
			} else if !e.SinglePort() {
				for _, p := range e.Ports {
					if attack.WebPort(p) {
						webPort++
						break
					}
				}
			}
		}
	}
	if telWeb > 0 {
		w.TCPShareOnWeb = float64(tcp) / float64(telWeb)
		w.WebPortShareOnWeb = float64(webPort) / float64(telWeb)
	}
	ntp, hpWeb := 0, 0
	for e := range ds.Honeypot.Query().Iter() {
		if _, ok := rev[e.Target]; !ok {
			continue
		}
		hpWeb++
		if e.Vector == attack.VectorNTP {
			ntp++
		}
	}
	if hpWeb > 0 {
		w.NTPShareOnWeb = float64(ntp) / float64(hpWeb)
	}
	return w
}

// oracleJointAttacks is the §4 joint-attack analysis over the
// by-target groupings of both stores.
func oracleJointAttacks(ds *Dataset) JointStats {
	telBy := oracleByTarget(ds.Telescope.Query())
	hpBy := oracleByTarget(ds.Honeypot.Query())

	var st JointStats
	jointTargets := make(map[netx.Addr]bool)
	var jointTel, jointHp []*attack.Event
	for target, tEvs := range telBy {
		hEvs, ok := hpBy[target]
		if !ok {
			continue
		}
		st.CommonTargets++
		overlap := false
		for _, te := range tEvs {
			for _, he := range hEvs {
				if te.Overlaps(he) {
					overlap = true
					jointTel = append(jointTel, te)
					jointHp = append(jointHp, he)
				}
			}
		}
		if overlap {
			st.JointTargets++
			jointTargets[target] = true
		}
	}

	// Telescope-side attribute shifts over co-participating events.
	single, withPorts := 0, 0
	http, tcpSingle := 0, 0
	p27015, udpSingle := 0, 0
	seenTel := make(map[*attack.Event]bool)
	for _, e := range jointTel {
		if seenTel[e] {
			continue
		}
		seenTel[e] = true
		if len(e.Ports) == 0 {
			continue
		}
		withPorts++
		if e.SinglePort() {
			single++
			switch e.Vector {
			case attack.VectorTCP:
				tcpSingle++
				if attack.WebPort(e.Ports[0]) && e.Ports[0] != 443 {
					http++
				}
			case attack.VectorUDP:
				udpSingle++
				if e.Ports[0] == 27015 {
					p27015++
				}
			}
		}
	}
	if withPorts > 0 {
		st.SinglePortShare = float64(single) / float64(withPorts)
	}
	if tcpSingle > 0 {
		st.HTTPShare = float64(http) / float64(tcpSingle)
	}
	if udpSingle > 0 {
		st.Port27015Share = float64(p27015) / float64(udpSingle)
	}

	// Honeypot-side vector shifts.
	seenHp := make(map[*attack.Event]bool)
	ntp, chargen, hpTotal := 0, 0, 0
	for _, e := range jointHp {
		if seenHp[e] {
			continue
		}
		seenHp[e] = true
		hpTotal++
		switch e.Vector {
		case attack.VectorNTP:
			ntp++
		case attack.VectorCharGen:
			chargen++
		}
	}
	if hpTotal > 0 {
		st.NTPShare = float64(ntp) / float64(hpTotal)
		st.CharGenShare = float64(chargen) / float64(hpTotal)
	}

	// Joint-target AS and country rankings.
	if ds.Plan != nil {
		asCounts := make(map[uint32]int)
		ccCounts := make(map[string]int)
		for target := range jointTargets {
			if asn, ok := ds.Plan.ASOf(target); ok {
				asCounts[uint32(asn)]++
			}
			if cc, ok := ds.Plan.CountryOf(target); ok {
				ccCounts[cc.String()]++
			}
		}
		total := float64(len(jointTargets))
		for asn, n := range asCounts {
			name := ""
			if as, ok := ds.Plan.ASByNum(ipmeta.ASN(asn)); ok {
				name = as.Name
			}
			st.TopASNs = append(st.TopASNs, ASShare{ASN: asn, Name: name, Share: float64(n) / total})
		}
		sort.Slice(st.TopASNs, func(i, j int) bool {
			a, b := st.TopASNs[i], st.TopASNs[j]
			if a.Share != b.Share {
				return a.Share > b.Share
			}
			return a.ASN < b.ASN
		})
		if len(st.TopASNs) > 5 {
			st.TopASNs = st.TopASNs[:5]
		}
		for cc, n := range ccCounts {
			st.TopCountries = append(st.TopCountries, CountryRow{Country: cc, Targets: n, Share: float64(n) / total})
		}
		sortCountries(st.TopCountries)
		if len(st.TopCountries) > 5 {
			st.TopCountries = st.TopCountries[:5]
		}
	}
	return st
}

// equalNaN is reflect.DeepEqual, except that NaN equals NaN: the CDF
// summaries of an empty data set are NaN.
func equalNaN(x, y reflect.Value) bool {
	if x.Kind() != y.Kind() || x.Type() != y.Type() {
		return false
	}
	switch x.Kind() {
	case reflect.Float32, reflect.Float64:
		a, b := x.Float(), y.Float()
		return a == b || math.IsNaN(a) && math.IsNaN(b)
	case reflect.Pointer:
		if x.IsNil() || y.IsNil() {
			return x.IsNil() == y.IsNil()
		}
		return equalNaN(x.Elem(), y.Elem())
	case reflect.Struct:
		for i := range x.NumField() {
			if !equalNaN(x.Field(i), y.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if x.Kind() == reflect.Slice && x.IsNil() != y.IsNil() || x.Len() != y.Len() {
			return false
		}
		for i := range x.Len() {
			if !equalNaN(x.Index(i), y.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return x.Int() == y.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return x.Uint() == y.Uint()
	case reflect.String:
		return x.String() == y.String()
	case reflect.Bool:
		return x.Bool() == y.Bool()
	}
	return x.CanInterface() && reflect.DeepEqual(x.Interface(), y.Interface())
}

// checkOracles compares every rewritten analysis of ds with its oracle.
func checkOracles(t *testing.T, ds *Dataset) {
	t.Helper()
	eq := func(name string, got, want any) {
		t.Helper()
		if !equalNaN(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s differs from its oracle:\n got %+v\nwant %+v", name, got, want)
		}
	}
	eq("Table1", ds.Table1(), oracleTable1(ds))
	for _, src := range []attack.Source{attack.SourceTelescope, attack.SourceHoneypot} {
		for _, topN := range []int{3, 5, 1000} {
			eq(fmt.Sprintf("Table4(%v, %d)", src, topN), ds.Table4(src, topN), oracleTable4(ds, src, topN))
		}
	}
	eq("TargetsIn24s", ds.TargetsIn24s(), oracleTargetsIn24s(ds))
	eq("Table7", ds.Table7(), oracleTable7(ds))
	for _, vec := range []attack.Vector{attack.VectorTCP, attack.VectorUDP} {
		for _, topN := range []int{5, 1000} {
			eq(fmt.Sprintf("Table8(%v, %d)", vec, topN), ds.Table8(vec, topN), oracleTable8(ds, vec, topN))
		}
	}
	f2tel, f2hp := ds.Figure2()
	of2tel, of2hp := oracleFigure2(ds)
	eq("Figure2 telescope", f2tel, of2tel)
	eq("Figure2 honeypot", f2hp, of2hp)
	eq("Figure4", ds.Figure4(), oracleFigure4(ds))
	eq("JointAttacks", ds.JointAttacks(), oracleJointAttacks(ds))
	tel, hp, comb := ds.Figure1()
	otel, ohp, ocomb := oracleFigure1(ds)
	eq("Figure1 telescope", tel, otel)
	eq("Figure1 honeypot", hp, ohp)
	eq("Figure1 combined", comb, ocomb)
	eq("Figure5", ds.Figure5(), oracleFigure5(ds))
	eq("MailImpactStats", ds.MailImpactStats(), oracleMail(ds))
	if ds.History == nil {
		return
	}
	oj := oracleWebJoin(ds)
	j := ds.webJoinResult()
	eq("Figure6 co-hosting", j.cohost, oj.cohost)
	eq("daily sites", j.dailyAll.Values, oj.dailyAll)
	eq("daily medium+ sites", j.dailyMed.Values, oj.dailyMed)
	eq("unique targets", j.uniqueTargets, oj.uniqueTargets)
	eq("alive sites", j.aliveSites, oj.aliveSites)
	eq("WebImpactStats", ds.WebImpactStats(), oracleWebImpact(ds, oj))
	eq("Table9", ds.Table9(), oracleTable9(oj))
	m, om := ds.migrationResult(), oracleMigration(ds, oj)
	eq("Figure8", m.taxonomy, om.taxonomy)
	eq("migration delays", m.delays, om.delays)
	eq("migration delay percentiles", m.delayPct, om.delayPct)
	eq("long honeypot attacks", m.longHp, om.longHp)
	eq("attack frequencies", m.freqAll, om.freqAll)
	eq("migrating attack frequencies", m.freqMigrating, om.freqMigrating)
}

// churnMail serves every third address a few of n domains that change
// every 30 days, so a domain is counted in many clusters and returns to
// clusters it was counted in before.
type churnMail struct{ n uint32 }

func (c churnMail) ForEachMailDomainOn(addr netx.Addr, day int, fn func(id uint32)) {
	if addr%3 != 0 {
		return
	}
	for k := uint32(0); k < 3; k++ {
		fn((uint32(addr)*7 + uint32(day/30) + k*11) % c.n)
	}
}

// cloneEvents copies every event of a store.
func cloneEvents(st *attack.Store) []attack.Event {
	var out []attack.Event
	for e := range st.Query().Iter() {
		out = append(out, *e.Clone())
	}
	return out
}

// TestAnalysesMatchOracles checks Tables 1, 4, 7 and 8, Figures 1, 2, 4 and
// 5, the joint-attack analysis, the §5 join with Table 9 and the Web
// impact summary, the §6 migration study and the §8 mail analysis
// against the oracles: on three scenarios, on stores whose shards carry
// unsealed pending tails, with an empty honeypot store, and on Datasets
// queried, then extended by Add, then queried again.
func TestAnalysesMatchOracles(t *testing.T) {
	scenarios := make([]*dossim.Scenario, 3)
	for i := range scenarios {
		sc, err := dossim.Generate(dossim.Config{Seed: int64(11 + i), Scale: 0.0003})
		if err != nil {
			t.Fatal(err)
		}
		scenarios[i] = sc
	}
	dataset := func(sc *dossim.Scenario, tel, hp *attack.Store) *Dataset {
		ds := New(tel, hp, sc.Plan, sc.History, sc.Cfg.WindowDays)
		ds.MailIdx = sc.Web
		return ds
	}
	for i, sc := range scenarios {
		t.Run(fmt.Sprintf("seed=%d", 11+i), func(t *testing.T) {
			checkOracles(t, dataset(sc, sc.Telescope, sc.Honeypot))
		})
	}

	sc := scenarios[0]
	tel, hp := cloneEvents(sc.Telescope), cloneEvents(sc.Honeypot)
	t.Run("unsealed tails", func(t *testing.T) {
		// Every fifth event arrives by Add after the store is built, so
		// most shards end with a pending tail.
		var body, tail []attack.Event
		for i, e := range tel {
			if i%5 == 0 {
				tail = append(tail, e)
			} else {
				body = append(body, e)
			}
		}
		st := attack.NewStore(body)
		for _, e := range tail {
			st.Add(e)
		}
		checkOracles(t, dataset(sc, st, attack.NewStore(hp)))
	})
	t.Run("mail domains in several clusters", func(t *testing.T) {
		ds := dataset(sc, sc.Telescope, sc.Honeypot)
		ds.MailIdx = churnMail{97}
		if reflect.DeepEqual(ds.MailImpactStats(), MailImpact{}) {
			t.Fatal("churnMail matched no attacked address")
		}
		checkOracles(t, ds)
	})
	t.Run("empty honeypot", func(t *testing.T) {
		checkOracles(t, dataset(sc, attack.NewStore(tel), attack.NewStore(nil)))
	})
	t.Run("add between queries", func(t *testing.T) {
		st, hst := attack.NewStore(tel), attack.NewStore(hp[:len(hp)/2])
		ds := dataset(sc, st, hst)
		checkOracles(t, ds)
		before := ds.Table1()
		// The telescope now also sees the honeypot's targets, and the
		// honeypot its second half: distinct targets, the join and the
		// intensity statistics all change.
		for _, e := range hp[:200] {
			e.Source, e.Vector, e.MaxPPS = attack.SourceTelescope, attack.VectorTCP, e.AvgRPS
			st.Add(e)
		}
		hst.AddBatch(hp[len(hp)/2:])
		if reflect.DeepEqual(ds.Table1(), before) {
			t.Fatal("Table1 unchanged after Add; the test does not exercise invalidation")
		}
		checkOracles(t, ds)
	})
	t.Run("add after digest", func(t *testing.T) {
		st, hst := attack.NewStore(tel), attack.NewStore(hp)
		ds := dataset(sc, st, hst)
		ds.MailIdx = churnMail{97}
		d := ds.digest()
		// One analysis of each kind, before the stores change.
		type results struct {
			table1           []Table1Row
			table4           []CountryRow
			table8           []MixRow
			figure1, figure5 *DailyPanel
			figure2          DurationCDF
			figure4          []IntensityCDF
			joint            JointStats
			web              WebImpact
			mail             MailImpact
			table9           Table9Result
		}
		collect := func() results {
			r := results{
				table1: ds.Table1(), table4: ds.Table4(attack.SourceTelescope, 1000),
				table8: ds.Table8(attack.VectorTCP, 1000), figure5: ds.Figure5(),
				figure4: ds.Figure4(), joint: ds.JointAttacks(), web: ds.WebImpactStats(),
				mail: ds.MailImpactStats(), table9: ds.Table9(),
			}
			_, _, r.figure1 = ds.Figure1()
			r.figure2, _ = ds.Figure2()
			return r
		}
		before := collect()
		// New telescope events on honeypot targets that host Web sites,
		// overlapping a honeypot attack, single-port HTTP, at the top
		// intensity and a new longest duration; and honeypot NTP
		// attacks on addresses no store has seen, multiples of three, so
		// churnMail serves them mail.
		var added []attack.Event
		rev := ds.History.ReverseIndex()
		for _, e := range hp {
			if len(added) == 50 {
				break
			}
			if rev.Slot(e.Target) < 0 || oracleStore(ds, attack.SourceTelescope).Query().Target(e.Target).Count() > 0 {
				continue
			}
			added = append(added, attack.Event{
				Source: attack.SourceTelescope, Vector: attack.VectorTCP, Target: e.Target,
				Start: e.Start, End: e.Start + 400*86400, MaxPPS: 1e9, Ports: []uint16{80},
			})
		}
		if len(added) == 0 {
			t.Fatal("no honeypot target hosts a Web site")
		}
		for _, e := range added {
			st.Add(e)
		}
		for i := range 30 {
			hst.Add(attack.Event{
				Source: attack.SourceHoneypot, Vector: attack.VectorNTP, Target: netx.Addr(0xfe000001 + 3*i),
				Start: attack.WindowStart + int64(i)*86400, End: attack.WindowStart + int64(i)*86400 + 600, AvgRPS: 1e9,
			})
		}
		if ds.digest() == d {
			t.Fatal("digest not rebuilt after Store.Add")
		}
		after := collect()
		rv, av := reflect.ValueOf(before), reflect.ValueOf(after)
		for i := range rv.NumField() {
			if equalNaN(rv.Field(i), av.Field(i)) {
				t.Errorf("%s unchanged after Add", rv.Type().Field(i).Name)
			}
		}
		checkOracles(t, ds)
	})
}
