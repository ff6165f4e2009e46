package stats

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean(2,8) = %g, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %g", g)
	}
	if g := GeoMean([]float64{7}); math.Abs(g-7) > 1e-12 {
		t.Fatalf("GeoMean(7) = %g", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean of non-positive value did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Fatal("Ratio(6,3) != 2")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio by zero should be 0")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 3, 7)
	for _, x := range []int64{1, 2, 3, 4, 7, 8, 100} {
		h.Add(x)
	}
	if h.Counts[0] != 1 { // x <= 1
		t.Fatalf("bucket0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 2 { // 2,3
		t.Fatalf("bucket1 = %d", h.Counts[1])
	}
	if h.Counts[2] != 2 { // 4,7
		t.Fatalf("bucket2 = %d", h.Counts[2])
	}
	if h.Overflow != 2 { // 8,100
		t.Fatalf("overflow = %d", h.Overflow)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
}

// Add's inline search must pick sort.Search's bucket for every
// value at and next to a bound, below the first and past the last.
func TestHistogramAddMatchesSortSearch(t *testing.T) {
	for _, bounds := range [][]int64{nil, {5}, {1, 3, 7}, {-4, 0, 9, 10}, LatencyBounds()} {
		h := NewHistogram(bounds...)
		want := make([]int64, len(bounds)+1)
		xs := []int64{math.MinInt64, -1 << 40}
		for _, b := range bounds {
			xs = append(xs, b-1, b, b+1)
		}
		xs = append(xs, 1<<40, math.MaxInt64)
		for _, x := range xs {
			h.Add(x)
			want[sort.Search(len(bounds), func(i int) bool { return x <= bounds[i] })]++
		}
		got := append(append([]int64(nil), h.Counts...), h.Overflow)
		if !slices.Equal(got, want) {
			t.Errorf("bounds %v: counts+overflow %v, want %v", bounds, got, want)
		}
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		h := NewHistogram(0, 10, 100, 1000)
		for _, x := range xs {
			h.Add(int64(x))
		}
		sum := 0.0
		for _, fr := range h.Fractions() {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("descending bounds did not panic")
		}
	}()
	NewHistogram(5, 3)
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.Header("name", "value")
	tb.Row("x", "1")
	tb.Rowf("longer-name", 3.14159)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Fatalf("header/underline malformed:\n%s", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Fatalf("Rowf float formatting missing:\n%s", out)
	}
	// Columns align: all lines equal length after padding.
	if len(lines[2]) > len(lines[0])+2 {
		t.Fatalf("column misalignment:\n%s", out)
	}
}

func TestEmptyTable(t *testing.T) {
	var tb Table
	if tb.String() != "" {
		t.Fatal("empty table should render empty")
	}
}

func TestPct(t *testing.T) {
	if Pct(0.1234) != "12.3%" {
		t.Fatalf("Pct = %q", Pct(0.1234))
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10, 20, 40, 80)
	if h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram percentile not 0")
	}
	// 100 observations uniform over (0, 10]: p50 interpolates to ~5.
	for i := 0; i < 100; i++ {
		h.Add(5)
	}
	if p := h.Percentile(0.5); math.Abs(p-5) > 1e-9 {
		t.Fatalf("p50 = %g, want 5", p)
	}
	if p := h.Percentile(1.0); math.Abs(p-10) > 1e-9 {
		t.Fatalf("p100 = %g, want 10", p)
	}
	// Add 100 observations in (20, 40]: p75 lands mid second half.
	for i := 0; i < 100; i++ {
		h.Add(30)
	}
	if p := h.Percentile(0.75); p <= 20 || p > 40 {
		t.Fatalf("p75 = %g, want in (20, 40]", p)
	}
	// Clamped inputs behave.
	if h.Percentile(-1) != h.Percentile(0) || h.Percentile(2) != h.Percentile(1) {
		t.Fatal("percentile inputs not clamped")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewHistogram(LogBounds(16, 1<<20, 8)...)
	for i := 1; i <= 5000; i++ {
		h.Add(int64(i * 37 % 100000))
	}
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone: p=%.2f gives %g < %g", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramPercentileOverflowSaturates(t *testing.T) {
	h := NewHistogram(10, 20)
	for i := 0; i < 10; i++ {
		h.Add(1000) // all overflow
	}
	if p := h.Percentile(0.99); p != 20 {
		t.Fatalf("overflow p99 = %g, want last bound 20", p)
	}
}

func TestLogBounds(t *testing.T) {
	b := LogBounds(16, 1<<20, 8)
	if b[0] != 16 {
		t.Fatalf("first bound = %d", b[0])
	}
	if last := b[len(b)-1]; last < 1<<20 {
		t.Fatalf("last bound %d does not cover 1<<20", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
	// Usable directly as histogram bounds.
	NewHistogram(b...)
	// Roughly 8 bounds per octave: 16 octaves -> ~128 bounds.
	if len(b) < 100 || len(b) > 140 {
		t.Fatalf("unexpected bound count %d", len(b))
	}
}
