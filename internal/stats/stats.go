// Package stats provides small statistical helpers used across the
// simulator: histograms, geometric means, and fixed-width table
// rendering for the bench harness.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// GeoMean returns the geometric mean of xs. Non-positive inputs are an
// error in this domain (ratios and speedups), so they panic loudly
// rather than silently corrupting a result.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Ratio returns a/b, or 0 if b is zero. Convenient for normalized
// metrics where an empty denominator means "no activity".
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Histogram is a bucketed counter over arbitrary integer upper bounds.
// Bucket i counts observations x with x <= Bounds[i] (and greater than
// Bounds[i-1]). Observations above the last bound land in the overflow
// bucket.
type Histogram struct {
	Bounds   []int64
	Counts   []int64
	Overflow int64
	total    int64
}

// NewHistogram builds a histogram over the given ascending bounds.
func NewHistogram(bounds ...int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must ascend")
		}
	}
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds))}
}

// Add records one observation.
func (h *Histogram) Add(x int64) {
	h.total++
	// The first bound >= x, found by an inline binary search: Add runs
	// once per DRAM read, where sort.Search's closure call shows.
	i, j := 0, len(h.Bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if x <= h.Bounds[m] {
			j = m
		} else {
			i = m + 1
		}
	}
	if i == len(h.Bounds) {
		h.Overflow++
		return
	}
	h.Counts[i]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Percentile returns the value below which fraction p (in [0, 1]) of
// the observations fall, linearly interpolated within the containing
// bucket. Observations in the overflow bucket are attributed to the
// last bound, so a tail-heavy distribution saturates there rather than
// inventing values the histogram never saw. Returns 0 with no
// observations.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.total)
	cum := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= target {
			lo := float64(0)
			if i > 0 {
				lo = float64(h.Bounds[i-1])
			}
			hi := float64(h.Bounds[i])
			frac := (target - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

// LatencyBounds returns the canonical bucket bounds for CPU-cycle
// latency histograms: 8 bounds per octave from 8 cycles to ~1M
// (~4.5% worst-case interpolation error). The DRAM controller's
// request-level histogram and the timing runner's end-to-end one both
// use it, so their percentiles stay comparable.
func LatencyBounds() []int64 { return LogBounds(8, 1<<20, 8) }

// LogBounds returns ascending histogram bounds covering [lo, hi] with
// perOctave geometrically spaced bounds per doubling — the standard
// shape for latency distributions, where relative (not absolute)
// resolution matters.
func LogBounds(lo, hi int64, perOctave int) []int64 {
	if lo < 1 {
		lo = 1
	}
	if perOctave < 1 {
		perOctave = 1
	}
	ratio := math.Pow(2, 1/float64(perOctave))
	var bounds []int64
	x := float64(lo)
	prev := int64(0)
	for {
		b := int64(math.Round(x))
		if b > prev {
			bounds = append(bounds, b)
			prev = b
		}
		if b >= hi {
			return bounds
		}
		x *= ratio
	}
}

// Fraction returns the fraction of observations in bucket i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// Fractions returns per-bucket fractions including overflow as the
// final element.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts)+1)
	for i := range h.Counts {
		out[i] = h.Fraction(i)
	}
	if h.total > 0 {
		out[len(h.Counts)] = float64(h.Overflow) / float64(h.total)
	}
	return out
}

// Table renders aligned rows of strings, for figure/table output. The
// first row is treated as a header and underlined.
type Table struct {
	rows [][]string
}

// Header sets the header cells.
func (t *Table) Header(cells ...string) { t.rows = append([][]string{cells}, t.rows...) }

// Row appends a data row.
func (t *Table) Row(cells ...string) { t.rows = append(t.rows, cells) }

// Rowf appends a row where each cell is formatted with fmt.Sprint for
// arbitrary values.
func (t *Table) Rowf(cells ...any) {
	s := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			s[i] = fmt.Sprintf("%.3f", v)
		default:
			s[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, s)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, r := range t.rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Pct formats a ratio as a percentage string with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
