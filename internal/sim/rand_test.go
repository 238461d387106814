package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Errorf("exponential mean = %g, want ~5.0", mean)
	}
}

func TestParetoProperties(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	const beta, a = 1.4, 2.0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Pareto(beta, a)
		if v < a {
			t.Fatalf("Pareto variate %g below location %g", v, a)
		}
		sum += v
	}
	mean := sum / n
	want := a * beta / (beta - 1) // 7.0
	// Pareto with shape 1.4 has infinite variance, so the sample mean
	// converges slowly; accept a generous band.
	if mean < want*0.8 || mean > want*1.6 {
		t.Errorf("Pareto mean = %g, want near %g", mean, want)
	}
}

func TestParetoTailHeavy(t *testing.T) {
	// The defining LRD property: P[X > x] = (a/x)^beta decays polynomially.
	// Check the empirical survival function at a few points.
	r := NewRNG(17)
	const n = 500000
	const beta, a = 1.2, 1.0
	exceed10, exceed100 := 0, 0
	for i := 0; i < n; i++ {
		v := r.Pareto(beta, a)
		if v > 10 {
			exceed10++
		}
		if v > 100 {
			exceed100++
		}
	}
	p10 := float64(exceed10) / n
	p100 := float64(exceed100) / n
	want10 := math.Pow(1.0/10, beta)
	want100 := math.Pow(1.0/100, beta)
	if math.Abs(p10-want10) > 0.2*want10 {
		t.Errorf("P[X>10] = %g, want ~%g", p10, want10)
	}
	if math.Abs(p100-want100) > 0.4*want100 {
		t.Errorf("P[X>100] = %g, want ~%g", p100, want100)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(19)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("value %d never drawn in 1000 tries", v)
		}
	}
}

func TestSplitIndependent(t *testing.T) {
	parent := NewRNG(23)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split children produced %d identical draws", same)
	}
}

// A generator re-seeded in place from its parent's next word must draw
// exactly what Split's allocated child draws, and re-seeding must forget
// all earlier state.
func TestSeedMatchesSplit(t *testing.T) {
	a, b := NewRNG(37), NewRNG(37)
	var child RNG
	child.Uint64() // state that Seed must overwrite
	for k := 0; k < 3; k++ {
		split := a.Split()
		child.Seed(b.Uint64())
		for i := 0; i < 16; i++ {
			if x, y := split.Uint64(), child.Uint64(); x != y {
				t.Fatalf("child %d draw %d: Split %d, Seed %d", k, i, x, y)
			}
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 1000; i++ {
		v := r.UniformRange(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("UniformRange(2,5) = %g out of range", v)
		}
	}
}
