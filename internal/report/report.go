// Package report renders the analyses of internal/core as paper-style
// text: aligned tables for Tables 1-9, sparkline time series and CDF
// summaries for Figures 1-11, and the §4-§6 headline paragraphs. The
// doscope CLI and the benchmark harness print these.
package report

import (
	"fmt"
	"strings"

	"doscope/internal/attack"
	"doscope/internal/core"
	"doscope/internal/stats"
)

// table renders rows of cells with right-aligned columns (first column
// left-aligned).
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "  %*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	total := len(header) - 1
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
func count(n int) string   { return fmt.Sprintf("%d", n) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }

// sparkline draws a one-line chart of a series, downsampled to width.
func sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if width > len(values) {
		width = len(values)
	}
	bucket := float64(len(values)) / float64(width)
	agg := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := int(float64(i) * bucket)
		hi := int(float64(i+1) * bucket)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > len(values) {
			hi = len(values)
		}
		var max float64
		for _, v := range values[lo:hi] {
			if v > max {
				max = v
			}
		}
		agg[i] = max
	}
	var top float64
	for _, v := range agg {
		if v > top {
			top = v
		}
	}
	var b strings.Builder
	for _, v := range agg {
		idx := 0
		if top > 0 {
			idx = int(v / top * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// cdfLine summarizes a CDF at the paper's anchor points.
func cdfLine(label string, c *stats.CDF, unit string) string {
	if c.Len() == 0 {
		return fmt.Sprintf("  %-10s (no samples)\n", label)
	}
	return fmt.Sprintf("  %-10s n=%-7d median=%.4g%s mean=%.4g%s P90=%.4g%s P99=%.4g%s\n",
		label, c.Len(), c.Median(), unit, c.Mean(), unit, c.Quantile(0.9), unit, c.Quantile(0.99), unit)
}

// Table1 renders Table 1.
func Table1(rows []core.Table1Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Source, count(r.Events), count(r.Targets), count(r.Slash24s), count(r.Slash16s), count(r.ASNs)}
	}
	return "Table 1: DoS attack events data\n" +
		table([]string{"source", "#events", "#targets", "#/24s", "#/16s", "#ASNs"}, out)
}

// Table2 renders Table 2.
func Table2(rows []core.Table2Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.TLD, count(r.WebSites), fmt.Sprintf("%d", r.DataPoints)}
	}
	return "Table 2: Active DNS data set\n" +
		table([]string{"source", "#Web sites", "#data points"}, out)
}

// Table3 renders Table 3.
func Table3(rows []core.Table3Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Provider, count(r.WebSites)}
	}
	return "Table 3: DDoS Protection Service use\n" +
		table([]string{"provider", "#Web sites"}, out)
}

// Table4 renders one panel of Table 4.
func Table4(name string, rows []core.CountryRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Country, count(r.Targets), pct(r.Share)}
	}
	return fmt.Sprintf("Table 4%s: targets per country\n", name) +
		table([]string{"country", "#targets", "%"}, out)
}

// Mix renders Tables 5, 6, 7, 8.
func Mix(title string, rows []core.MixRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Label, count(r.Events), pct(r.Share)}
	}
	return title + "\n" + table([]string{"type", "#events", "%"}, out)
}

// Table9 renders Table 9.
func Table9(res core.Table9Result) string {
	head := []string{"percentile"}
	row := []string{"intensity (<=)"}
	for i, p := range res.Percentiles {
		head = append(head, fmt.Sprintf("P%.4g", p))
		row = append(row, f2(res.Intensity[i]))
	}
	return "Table 9: normalized attack intensity over Web sites\n" +
		table(head, [][]string{row})
}

// Figure1 renders the three daily panels.
func Figure1(tel, hp, comb *core.DailyPanel) string {
	var b strings.Builder
	b.WriteString("Figure 1: attacks over time (daily)\n")
	panel := func(name string, p *core.DailyPanel) {
		fmt.Fprintf(&b, "  %-9s attacks    %s  avg=%.1f/day\n", name, sparkline(p.Attacks, 73), mean(p.Attacks))
		fmt.Fprintf(&b, "  %-9s targets    %s  avg=%.1f/day\n", "", sparkline(p.Targets, 73), mean(p.Targets))
		fmt.Fprintf(&b, "  %-9s /16s       %s  avg=%.1f/day\n", "", sparkline(p.Slash16s, 73), mean(p.Slash16s))
		fmt.Fprintf(&b, "  %-9s ASNs       %s  avg=%.1f/day\n", "", sparkline(p.ASNs, 73), mean(p.ASNs))
	}
	panel("Telescope", tel)
	panel("Honeypot", hp)
	panel("Combined", comb)
	return b.String()
}

// Figure2 renders the duration CDFs.
func Figure2(tel, hp core.DurationCDF) string {
	var b strings.Builder
	b.WriteString("Figure 2: duration of attacks\n")
	for _, d := range []core.DurationCDF{tel, hp} {
		b.WriteString(cdfLine(d.Source, d.CDF, "s"))
		fmt.Fprintf(&b, "             >1h: %s   >24h: %s\n", pct(d.Over1h), pct(d.Over24h))
	}
	return b.String()
}

// Figure3 renders the telescope intensity CDF.
func Figure3(c core.IntensityCDF) string {
	var b strings.Builder
	b.WriteString("Figure 3: telescope intensity distribution (max pps; x256 for victim estimate)\n")
	b.WriteString(cdfLine(c.Label, c.CDF, ""))
	fmt.Fprintf(&b, "             P(<=2 pps)=%s\n", pct(c.CDF.At(2)))
	return b.String()
}

// Figure4 renders the honeypot intensity CDFs.
func Figure4(curves []core.IntensityCDF) string {
	var b strings.Builder
	b.WriteString("Figure 4: honeypot intensity distribution (avg requests/s)\n")
	for _, c := range curves {
		b.WriteString(cdfLine(c.Label, c.CDF, ""))
	}
	return b.String()
}

// Figure5 renders the medium+ intensity series.
func Figure5(p *core.DailyPanel) string {
	var b strings.Builder
	b.WriteString("Figure 5: high-intensity attack events over time (combined)\n")
	fmt.Fprintf(&b, "  attacks  %s  avg=%.1f/day\n", sparkline(p.Attacks, 73), mean(p.Attacks))
	fmt.Fprintf(&b, "  targets  %s  avg=%.1f/day\n", sparkline(p.Targets, 73), mean(p.Targets))
	return b.String()
}

// Figure6 renders the co-hosting histogram.
func Figure6(h *stats.LogHistogram) string {
	var rows [][]string
	for k, c := range h.Counts {
		rows = append(rows, []string{h.BinLabel(k), count(c)})
	}
	return "Figure 6: Web site associations with attacked IPs (co-hosting)\n" +
		table([]string{"sites per IP", "#target IPs"}, rows)
}

// Figure7 renders the Web impact series.
func Figure7(res core.Figure7Result, windowDays int) string {
	var b strings.Builder
	b.WriteString("Figure 7: Web sites on attacked IPs over time\n")
	fmt.Fprintf(&b, "  all      %s  avg=%.0f/day\n", sparkline(res.DailySites, 73), mean(res.DailySites))
	fmt.Fprintf(&b, "  medium+  %s  avg=%.0f/day\n", sparkline(res.DailyMedium, 73), mean(res.DailyMedium))
	fmt.Fprintf(&b, "  smoothed %% of all sites: start=%.2f%% end=%.2f%%\n",
		at(res.SmoothedPct, 0), at(res.SmoothedPct, windowDays-1))
	for i, d := range res.PeakDays {
		fmt.Fprintf(&b, "  peak %d: day %d (%s) with %.0f sites\n",
			i+1, d, attack.Date(attack.DayStart(d)).Format("2006-01-02"), res.PeakValues[i])
	}
	return b.String()
}

// Figure8 renders the taxonomy tree.
func Figure8(tax core.Figure8Result) string {
	var b strings.Builder
	b.WriteString("Figure 8: Web site taxonomy\n")
	pctOf := func(n, den int) string {
		if den == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2f%%", 100*float64(n)/float64(den))
	}
	fmt.Fprintf(&b, "  total Web sites: %d\n", tax.Total)
	fmt.Fprintf(&b, "  ├─ attack observed:      %8d (%s)\n", tax.Attacked, pctOf(tax.Attacked, tax.Total))
	fmt.Fprintf(&b, "  │   ├─ preexisting:      %8d (%s)\n", tax.AttackedPreexisting, pctOf(tax.AttackedPreexisting, tax.Attacked))
	fmt.Fprintf(&b, "  │   └─ non-preexisting:  %8d (%s)\n", tax.AttackedNonPre, pctOf(tax.AttackedNonPre, tax.Attacked))
	fmt.Fprintf(&b, "  │       ├─ migrating:    %8d (%s)\n", tax.AttackedMigrating, pctOf(tax.AttackedMigrating, tax.AttackedNonPre))
	fmt.Fprintf(&b, "  │       └─ non-migrating:%8d (%s)\n", tax.AttackedNonMigrating, pctOf(tax.AttackedNonMigrating, tax.AttackedNonPre))
	fmt.Fprintf(&b, "  └─ no attack observed:   %8d (%s)\n", tax.NoAttack, pctOf(tax.NoAttack, tax.Total))
	fmt.Fprintf(&b, "      ├─ preexisting:      %8d (%s)\n", tax.NoAttackPreexisting, pctOf(tax.NoAttackPreexisting, tax.NoAttack))
	fmt.Fprintf(&b, "      └─ non-preexisting:  %8d (%s)\n", tax.NoAttackNonPre, pctOf(tax.NoAttackNonPre, tax.NoAttack))
	fmt.Fprintf(&b, "          ├─ migrating:    %8d (%s)\n", tax.NoAttackMigrating, pctOf(tax.NoAttackMigrating, tax.NoAttackNonPre))
	fmt.Fprintf(&b, "          └─ non-migrating:%8d (%s)\n", tax.NoAttackNonMigrating, pctOf(tax.NoAttackNonMigrating, tax.NoAttackNonPre))
	return b.String()
}

// Figure9 renders the attack frequency comparison.
func Figure9(res core.Figure9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: attack frequency, all vs migrating Web sites\n")
	fmt.Fprintf(&b, "  all sites:       P(<=5 attacks) = %s\n", pct(res.AtMost5All))
	fmt.Fprintf(&b, "  migrating sites: P(<=5 attacks) = %s\n", pct(res.AtMost5Migrating))
	return b.String()
}

// Figure10 renders the migration delay bands.
func Figure10(bands []core.MigrationDelayCDF) string {
	var rows [][]string
	for _, bnd := range bands {
		rows = append(rows, []string{bnd.Label, count(bnd.Sites), pct(bnd.Within1), pct(bnd.Within6)})
	}
	return "Figure 10: migration delay by attack intensity\n" +
		table([]string{"band", "#sites", "<=1 day", "<=6 days"}, rows)
}

// Figure11 renders the long-attack migration delay.
func Figure11(c core.MigrationDelayCDF) string {
	return "Figure 11: migration delay after >=4h attacks\n" +
		fmt.Sprintf("  sites=%d  within 1 day=%s  within 5 days=%s\n", c.Sites, pct(c.Within1), pct(c.Within6))
}

// Joint renders the §4 joint-attack analysis.
func Joint(j core.JointStats) string {
	var b strings.Builder
	b.WriteString("Joint attacks (both data sets)\n")
	fmt.Fprintf(&b, "  common targets: %d   simultaneous (joint): %d\n", j.CommonTargets, j.JointTargets)
	fmt.Fprintf(&b, "  joint telescope events: single-port %s, HTTP %s of single-port TCP, 27015 %s of single-port UDP\n",
		pct(j.SinglePortShare), pct(j.HTTPShare), pct(j.Port27015Share))
	fmt.Fprintf(&b, "  joint reflection events: NTP %s, CharGen %s\n", pct(j.NTPShare), pct(j.CharGenShare))
	b.WriteString("  top joint-target ASNs:\n")
	for _, a := range j.TopASNs {
		name := a.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Fprintf(&b, "    AS%-7d %-18s %s\n", a.ASN, name, pct(a.Share))
	}
	b.WriteString("  top joint-target countries:\n")
	for _, c := range j.TopCountries {
		fmt.Fprintf(&b, "    %-3s %s\n", c.Country, pct(c.Share))
	}
	return b.String()
}

// WebImpact renders the §5 headline numbers.
func WebImpact(w core.WebImpact) string {
	var b strings.Builder
	b.WriteString("Web impact (§5)\n")
	fmt.Fprintf(&b, "  sites ever on attacked IPs: %d of %d (%s)\n", w.SitesEverAttacked, w.AliveSites, pct(w.AttackedFraction))
	fmt.Fprintf(&b, "  daily average: %.0f sites (%s of namespace); medium+ only: %.0f\n",
		w.DailyAvgSites, pct(w.DailyAvgFraction), w.MediumDailyAvgSites)
	fmt.Fprintf(&b, "  target IPs hosting sites: %d of %d (%s)\n", w.WebTargetIPs, w.TotalTargetIPs,
		pct(float64(w.WebTargetIPs)/float64(max(1, w.TotalTargetIPs))))
	fmt.Fprintf(&b, "  on Web targets: TCP %s, Web ports %s, NTP %s\n",
		pct(w.TCPShareOnWeb), pct(w.WebPortShareOnWeb), pct(w.NTPShareOnWeb))
	return b.String()
}

// Mail renders the §8 mail-infrastructure extension.
func Mail(m core.MailImpact) string {
	var b strings.Builder
	b.WriteString("Mail infrastructure impact (§8 extension)\n")
	fmt.Fprintf(&b, "  domains with attacked mail service: %d (%s of namespace)\n",
		m.DomainsEverAffected, pct(m.Fraction))
	fmt.Fprintf(&b, "  daily average: %.0f domains; attacked mail-serving IPs: %d\n", m.DailyAvg, m.AttackedMailIPs)
	for _, c := range m.TopClusters {
		fmt.Fprintf(&b, "    %-16v %6d domains  %3d events\n", c.Addr, c.Domains, c.Events)
	}
	return b.String()
}

// All renders every table and figure.
func All(ds *core.Dataset) string {
	var b strings.Builder
	sep := func() { b.WriteString("\n") }
	b.WriteString(Table1(ds.Table1()))
	sep()
	b.WriteString(Table2(ds.Table2()))
	sep()
	b.WriteString(Table3(ds.Table3()))
	sep()
	b.WriteString(Table4("a (telescope)", ds.Table4(attack.SourceTelescope, 5)))
	sep()
	b.WriteString(Table4("b (honeypot)", ds.Table4(attack.SourceHoneypot, 5)))
	sep()
	b.WriteString(Mix("Table 5: IP protocol distribution (telescope)", ds.Table5()))
	sep()
	b.WriteString(Mix("Table 6: reflection protocol distribution (honeypot)", ds.Table6()))
	sep()
	b.WriteString(Mix("Table 7: target port cardinality (telescope)", ds.Table7()))
	sep()
	b.WriteString(Mix("Table 8a: top targeted services, single-port TCP", ds.Table8(attack.VectorTCP, 5)))
	sep()
	b.WriteString(Mix("Table 8b: top targeted services, single-port UDP", ds.Table8(attack.VectorUDP, 5)))
	sep()
	b.WriteString(Table9(ds.Table9()))
	sep()
	tel, hp, comb := ds.Figure1()
	b.WriteString(Figure1(tel, hp, comb))
	sep()
	f2tel, f2hp := ds.Figure2()
	b.WriteString(Figure2(f2tel, f2hp))
	sep()
	b.WriteString(Figure3(ds.Figure3()))
	sep()
	b.WriteString(Figure4(ds.Figure4()))
	sep()
	b.WriteString(Figure5(ds.Figure5()))
	sep()
	b.WriteString(Figure6(ds.Figure6()))
	sep()
	b.WriteString(Figure7(ds.Figure7(), ds.WindowDays))
	sep()
	b.WriteString(Figure8(ds.Figure8()))
	sep()
	b.WriteString(Figure9(ds.Figure9()))
	sep()
	b.WriteString(Figure10(ds.Figure10()))
	sep()
	b.WriteString(Figure11(ds.Figure11()))
	sep()
	b.WriteString(Joint(ds.JointAttacks()))
	sep()
	b.WriteString(WebImpact(ds.WebImpactStats()))
	if ds.MailIdx != nil {
		sep()
		b.WriteString(Mail(ds.MailImpactStats()))
	}
	return b.String()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func at(v []float64, i int) float64 {
	if i < 0 || i >= len(v) {
		return 0
	}
	return v[i]
}
