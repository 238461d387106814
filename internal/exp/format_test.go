package exp

import (
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// fixedSeeds are the inputs FuzzFixed starts from: ties at the rounding
// place (0.125, 2.5, 0.5), values that round up to a new power of ten
// (9.995, 999.5, 0.9999995), negative zero and a negative value that
// rounds to zero, subnormals, the edges of the fixed-point range and of
// keyFloat's integer range, and the values both hand to strconv.
var fixedSeeds = []float64{
	0, math.Copysign(0, -1), 0.125, 2.5, 0.5, 1.5, -2.5, 9.995, 999.5, 0.9999995,
	-0.0004, 1.0 / 3, 2.0 / 3, 0.1, 0.05, 505, 1.1, 1.355, 4.0, 0.2, 0.35,
	123456.7890125, 100000, 999999, -999999, 999999.5, 1e6, -1e6, 999999999999.5, 1e12, -1e12, 1e300,
	math.SmallestNonzeroFloat64, 0x1p-1022, 0x1.fffffffffffffp-1023, 5e-7, 4.9999999e-7,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzFixed compares f with strconv.FormatFloat(v, 'f', prec, 64) for
// any float64 bit pattern and prec 0-6, and keyFloat with the shortest
// round-tripping 'g' form the result keys were built with.
func FuzzFixed(fz *testing.F) {
	for _, v := range fixedSeeds {
		for prec := range 7 {
			fz.Add(math.Float64bits(v), uint8(prec))
		}
	}
	fz.Fuzz(func(t *testing.T, fb uint64, p uint8) {
		v, prec := math.Float64frombits(fb), int(p%7)
		if got, want := f(v, prec), strconv.FormatFloat(v, 'f', prec, 64); got != want {
			t.Errorf("f(%v (%#x), %d) = %q; strconv gives %q", v, fb, prec, got, want)
		}
		if got, want := string(keyFloat(nil, "x", v)), "|x="+strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Errorf("keyFloat(%v (%#x)) = %q; want %q", v, fb, got, want)
		}
	})
}

// TestFixedMatchesStrconv runs f against strconv over the values tables
// print: binary fractions, where the ties fall, and log-uniform values
// across the fixed-point range, both signs, every prec 0-6.
func TestFixedMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	check := func(v float64) {
		for prec := range 7 {
			if got, want := f(v, prec), strconv.FormatFloat(v, 'f', prec, 64); got != want {
				t.Fatalf("f(%v (%#x), %d) = %q; strconv gives %q", v, math.Float64bits(v), prec, got, want)
			}
		}
	}
	for i := range 4096 {
		for _, k := range []int{1, 3, 7, 10, 20} {
			check(math.Ldexp(float64(i), -k))
			check(-math.Ldexp(float64(i), -k))
		}
	}
	for range 20000 {
		v := math.Pow(10, rng.Float64()*20-8)
		check(v)
		check(-v)
	}
}
