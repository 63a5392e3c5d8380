package serve

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// latencyBounds are the shared latency-histogram bucket bounds in
// seconds: log-spaced from 1 ms to 60 s, fine enough that interpolated
// p99s are meaningful at SLO scales of tens to hundreds of ms.
var latencyBounds = []float64{
	0.001, 0.002, 0.003, 0.005, 0.0075,
	0.010, 0.015, 0.020, 0.030, 0.050, 0.075,
	0.10, 0.15, 0.20, 0.30, 0.50, 0.75,
	1, 1.5, 2, 3, 5, 10, 30, 60,
}

// classScore accumulates one class's counters and latency distribution.
type classScore struct {
	name      string
	slo       float64
	hist      *stats.BucketHistogram
	offered   uint64
	admitted  uint64
	rejected  uint64
	dropped   uint64
	timedOut  uint64
	completed uint64
	sloOK     uint64
}

func (c *classScore) quantile(p float64) float64 {
	if c.hist.Count() == 0 {
		return 0
	}
	return c.hist.Quantile(p)
}

// Scoreboard is the station's scoring account: per-class latency
// histograms and outcome counters plus per-client goodput. Everything
// is keyed to simulated time, so equal seeds give byte-equal summaries.
type Scoreboard struct {
	classes []classScore
	// clientOK counts each client's SLO-meeting completions, its goodput
	// for the fairness index.
	clientOK []uint64
}

func newScoreboard(classes []Class, clients int) *Scoreboard {
	sb := &Scoreboard{clientOK: make([]uint64, clients)}
	for _, c := range classes {
		sb.classes = append(sb.classes, classScore{
			name: c.Name,
			slo:  c.SLO,
			hist: stats.MustBucketHistogram(latencyBounds...),
		})
	}
	return sb
}

func (sb *Scoreboard) offered(class int)  { sb.classes[class].offered++ }
func (sb *Scoreboard) admitted(class int) { sb.classes[class].admitted++ }
func (sb *Scoreboard) rejected(class int) { sb.classes[class].rejected++ }
func (sb *Scoreboard) dropped(class int)  { sb.classes[class].dropped++ }

func (sb *Scoreboard) timedOut(class int) { sb.classes[class].timedOut++ }

func (sb *Scoreboard) completed(class, client int, latency float64) {
	row := &sb.classes[class]
	row.completed++
	row.hist.Observe(latency)
	if latency <= row.slo {
		row.sloOK++
		sb.clientOK[client]++
	}
}

// ClassSummary is one class's frozen score.
type ClassSummary struct {
	Class     string  `json:"class"`
	Offered   uint64  `json:"offered"`
	Admitted  uint64  `json:"admitted"`
	Rejected  uint64  `json:"rejected,omitempty"`
	Dropped   uint64  `json:"dropped,omitempty"`
	TimedOut  uint64  `json:"timed_out,omitempty"`
	Completed uint64  `json:"completed"`
	SLOOk     uint64  `json:"slo_ok"`
	P50S      float64 `json:"p50_s"`
	P95S      float64 `json:"p95_s"`
	P99S      float64 `json:"p99_s"`
	// Attainment is SLOOk/(Completed+TimedOut): the fraction of admitted,
	// resolved requests that met their SLO. Rejected and dropped requests
	// are admission outcomes, accounted separately.
	Attainment float64 `json:"attainment"`
	// GoodputRPS is SLO-meeting completions per second of serving time.
	GoodputRPS float64 `json:"goodput_rps"`
}

// Summary is a station's frozen score.
type Summary struct {
	Classes []ClassSummary `json:"classes"`
	// Jain is Jain's fairness index over per-client SLO-meeting
	// completions: (Σx)²/(n·Σx²), 1 when perfectly fair, →1/n when one
	// client takes everything. 1 when no client completed anything.
	Jain float64 `json:"jain"`
}

// Summarize freezes the account; elapsed (seconds of serving time)
// converts counts to goodput.
func (sb *Scoreboard) Summarize(elapsed float64) Summary {
	var s Summary
	for i := range sb.classes {
		row := &sb.classes[i]
		cs := ClassSummary{
			Class:     row.name,
			Offered:   row.offered,
			Admitted:  row.admitted,
			Rejected:  row.rejected,
			Dropped:   row.dropped,
			TimedOut:  row.timedOut,
			Completed: row.completed,
			SLOOk:     row.sloOK,
			P50S:      row.quantile(0.50),
			P95S:      row.quantile(0.95),
			P99S:      row.quantile(0.99),
		}
		if resolved := row.completed + row.timedOut; resolved > 0 {
			cs.Attainment = float64(row.sloOK) / float64(resolved)
		}
		if elapsed > 0 {
			cs.GoodputRPS = float64(row.sloOK) / elapsed
		}
		s.Classes = append(s.Classes, cs)
	}
	s.Jain = sb.JainIndex()
	return s
}

// JainIndex returns Jain's fairness index over per-client SLO-meeting
// completions.
func (sb *Scoreboard) JainIndex() float64 {
	var sum, sumSq float64
	for _, ok := range sb.clientOK {
		x := float64(ok)
		sum += x
		sumSq += x * x
	}
	if len(sb.clientOK) == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(sb.clientOK)) * sumSq)
}

// Render writes the summary as a fixed-precision text block, one line
// per class plus the fairness line — deterministic for equal accounts.
func (s Summary) Render() string {
	var b strings.Builder
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "%-10s offered %6d admitted %6d completed %6d slo-ok %6d (%6.2f%%)  rej %5d drop %5d tmo %5d  p50 %7.4fs p95 %7.4fs p99 %7.4fs  goodput %8.2f/s\n",
			c.Class, c.Offered, c.Admitted, c.Completed, c.SLOOk, 100*c.Attainment,
			c.Rejected, c.Dropped, c.TimedOut, c.P50S, c.P95S, c.P99S, c.GoodputRPS)
	}
	fmt.Fprintf(&b, "jain fairness %.4f\n", s.Jain)
	return b.String()
}
