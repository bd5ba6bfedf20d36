package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// summaryQuantiles are the quantile series a histogram exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// writePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one `# TYPE` line per metric
// family, then its series sorted by label set. Counters and gauges
// emit one series each; histograms emit a summary — quantile-labeled
// series plus _sum and _count. Returns the first write error.
func (r *Registry) writePrometheus(w io.Writer) error {
	ss := r.snapshot()
	// Group by family so each base name gets exactly one TYPE line with
	// its series contiguous, as the format requires.
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].name != ss[j].name {
			return ss[i].name < ss[j].name
		}
		return ss[i].id < ss[j].id
	})
	var b strings.Builder
	prevName := ""
	for _, s := range ss {
		if s.name != prevName {
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind.promType())
			prevName = s.name
		}
		switch s.kind {
		case kindCounterFunc, kindGaugeFunc:
			writeSeries(&b, s.id, s.fn())
		case kindHistogram:
			h := s.h.Snapshot()
			for _, q := range summaryQuantiles {
				id := renderID(s.name, append(append([]Label{}, s.labels...),
					Label{"quantile", strconv.FormatFloat(q, 'g', -1, 64)}))
				writeSeries(&b, id, float64(h.Quantile(q)))
			}
			writeSeries(&b, renderID(s.name+"_sum", s.labels), float64(h.Sum()))
			writeSeries(&b, renderID(s.name+"_count", s.labels), float64(h.Count()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries emits one sample line. Values render with full float64
// round-trip precision; counters and counts are exact below 2^53,
// far beyond any run this system does.
func writeSeries(b *strings.Builder, id string, v float64) {
	b.WriteString(id)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}
