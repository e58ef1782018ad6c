package harness

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuantileNearestRank(t *testing.T) {
	v := seq(100) // 1..100
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.5, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}, {1, 100}, {0.505, 51},
	} {
		if got := Quantile(v, c.q); got != c.want {
			t.Errorf("Quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of an empty sample is not NaN")
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	// p99 of n samples sits at rank ceil(0.99n); n−rank samples lie beyond.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, // rank 990, 9 beyond
		{1000, 0.99, true}, // rank 990, 10 beyond
		{20, 0.5, true},
		{19, 0.5, false},
		{100000, 0.9999, true},
	} {
		if got := Supported(c.n, c.q); got != c.want {
			t.Errorf("Supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestTailQuantileFallsBack(t *testing.T) {
	v := seq(500)
	got, ok := TailQuantile(v, 0.99)
	if ok || got != 490 {
		t.Errorf("TailQuantile(1..500, 0.99) = %g, %v; want 490 (ten beyond), false", got, ok)
	}
	got, ok = TailQuantile(seq(1000), 0.99)
	if !ok || got != 990 {
		t.Errorf("TailQuantile(1..1000, 0.99) = %g, %v; want 990, true", got, ok)
	}
	if got, ok = TailQuantile(seq(10), 0.99); ok || !math.IsNaN(got) {
		t.Errorf("TailQuantile of 10 samples = %g, %v; want NaN, false", got, ok)
	}
}

func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	v := make([]float64, 7000)
	for i := range v {
		v[i] = 1
	}
	for i := 3000; i < 3900; i++ { // a stall inside one window
		v[i] = 100
	}
	if got, ok := WindowedQuantile(v, 0.99, 7); !ok || got != 1 {
		t.Errorf("WindowedQuantile = %g, %v; want 1, true", got, ok)
	}
	if got := Quantile(Sorted(v), 0.99); got != 100 {
		t.Errorf("pooled p99 = %g; the stall should show there", got)
	}
	// Too few samples for three windows: the pooled tail quantile.
	got, ok := WindowedQuantile(seq(1500), 0.99, 7)
	if !ok || got != Quantile(seq(1500), 0.99) {
		t.Errorf("WindowedQuantile(1..1500) = %g, %v; want pooled p99", got, ok)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(42, 2500, 10000)
	b := Schedule(42, 2500, 10000)
	c := Schedule(43, 2500, 10000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, offset %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets decrease at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 42 and 43 gave the same schedule")
	}
	// 10000 arrivals at 2500/s take about 4s.
	if end := a[len(a)-1]; end < 3800*time.Millisecond || end > 4200*time.Millisecond {
		t.Errorf("10000 arrivals at 2500/s end at %v", end)
	}
}

func TestSelfTime(t *testing.T) {
	p := Span{Start: 0, End: 100}
	kids := []Span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	if got := SelfTime(p, kids); got != 100-30-10 {
		t.Errorf("SelfTime = %d, want 60", got)
	}
}

func TestPinnedFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three full-scale traces")
	}
	for _, c := range []struct {
		name       string
		singleSize bool
	}{{"BL", true}, {"BR", true}, {"U", false}} {
		if _, fp, err := LoadTrace(c.name, c.singleSize); err != nil {
			t.Errorf("%s: %v (fingerprint %+v)", c.name, err, fp)
		}
	}
}
