package harness

import (
	"fmt"
	"strings"
)

// RenderBarChart draws the overhead matrix as horizontal ASCII bars, one
// group per benchmark — a terminal rendition of Figure 7/8's bar groups.
// Bars are clipped at clipPct (the paper clips at 180% and annotates the
// clipped values, which we reproduce).
func (m *Matrix) RenderBarChart(title string, clipPct float64) string {
	const width = 50
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "(bar = overhead over plain, full scale %.0f%%, '>' = clipped)\n\n", clipPct)
	base := m.plain()
	for w, wl := range m.Workloads {
		fmt.Fprintf(&b, "%s\n", wl)
		row := m.row(w)
		for c, name := range m.Configs {
			if c == base {
				continue
			}
			cycles, plain, ok := pair(row, c, base)
			if !ok {
				reason := row[c].reason
				if reason == "" && base >= 0 {
					reason = row[base].reason
				}
				fmt.Fprintf(&b, "  %-16s|%-*s|  hole: %s\n", name, width, "", reason)
				continue
			}
			ov := overhead(cycles, plain)
			clipped := ov > clipPct
			frac := ov / clipPct
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			n := int(frac * width)
			bar := strings.Repeat("#", n)
			mark := " "
			if clipped {
				mark = ">"
			}
			fmt.Fprintf(&b, "  %-16s|%-*s|%s %6.1f%%\n", name, width, bar, mark, ov)
		}
	}
	return b.String()
}
